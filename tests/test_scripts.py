"""The scripts under scripts/ and README's library example run in-process against the package,
so an export change shows here."""

import ast
import runpy
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_invariant_form_tables_runs_at_degree_two(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "invariant_form_tables.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["invariant_form_tables.py", "2"])
    assert main() == 0
    assert "degree 2" in capsys.readouterr().out


def _committed(repo: Path) -> None:
    """Make ``repo`` a git repository with everything in it committed."""
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "first"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
                        "-c", "commit.gpgsign=false", *args], cwd=repo, check=True, capture_output=True)


def test_bench_trees_are_siblings_laid_out_alike(tmp_path):
    prepare_trees = runpy.run_path(str(SCRIPTS / "bench_record.py"))["prepare_trees"]
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("A = 1\n")
    (repo / "notes.txt").write_text("n\n")
    _committed(repo)
    (repo / "src" / "a.py").write_text("A = 2\n")  # uncommitted edit under src/
    (repo / "untracked.txt").write_text("u\n")
    out = tmp_path / "trees"
    out.mkdir()
    trees = prepare_trees("HEAD", str(out), str(repo))
    assert {Path(tree).parent for tree in trees.values()} == {out}
    layouts = [sorted(p.relative_to(tree).as_posix() for p in Path(tree).rglob("*"))
               for tree in (trees["parent"], trees["change"])]
    assert layouts[0] == layouts[1] == ["notes.txt", "src", "src/a.py"]
    assert (Path(trees["parent"]) / "src" / "a.py").read_text() == "A = 1\n"
    assert (Path(trees["change"]) / "src" / "a.py").read_text() == "A = 2\n"


def test_bench_trees_holding_bytecode_refuse_to_start(tmp_path):
    prepare_trees = runpy.run_path(str(SCRIPTS / "bench_record.py"))["prepare_trees"]
    repo = tmp_path / "repo"
    (repo / "src" / "__pycache__").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("A = 1\n")
    (repo / "src" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    _committed(repo)
    out = tmp_path / "trees"
    out.mkdir()
    with pytest.raises(SystemExit, match="refusing to start: change/src/__pycache__, "
                                         "parent/src/__pycache__"):
        prepare_trees("HEAD", str(out), str(repo))


@pytest.mark.parametrize("value", [None, "1"])
def test_bench_record_notes_whether_runs_write_bytecode(monkeypatch, value):
    machine = runpy.run_path(str(SCRIPTS / "bench_record.py"))["machine"]
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    rec = {"cpu": "c", "nproc": 2, "python": "3.11.7", "src_lines": 10}
    assert machine(rec) == {"cpu": "c", "nproc": 2, "python": "3.11.7",
                            "PYTHONDONTWRITEBYTECODE": value}


def test_readme_library_example_gives_the_values_in_its_comments():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), scope))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
    assert values == [F(1, 2), (F(1, 2), 0, F(-5, 48), 0, F(53, 3840)), F(2, 3)]
