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


@pytest.mark.parametrize("args", [["3"], ["2", "7"]])
def test_invariant_form_tables_prints_the_recorded_tables(monkeypatch, capsys, args):
    main = runpy.run_path(str(SCRIPTS / "invariant_form_tables.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["invariant_form_tables.py", *args])
    assert main() == 0
    recorded = ROOT / "tests" / "data" / f"invariant_form_tables_{'_'.join(args)}.txt"
    assert capsys.readouterr().out == recorded.read_text()


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


def test_bench_summary_lines_flag_a_median_outside_the_parent_quartiles():
    script = runpy.run_path(str(SCRIPTS / "bench_record.py"))
    five = [1, 2, 3, 4, 5]
    values = {"parent": dict.fromkeys(script["METRICS"], five),
              "change": {"setup_s": [10, 11, 12, 13, 14], "run_ref": [0.5, 1.5, 2.5, 3.5, 4.5],
                         "peak_rss_mb": five}}
    runs = {side: [{**{m: values[side][m][k] for m in script["METRICS"]},
                    "failed": int(side == "change" and k == 2)} for k in range(5)] for side in values}
    record = {"workloads": {"w": {"summary": script["summarize"](runs), "runs": runs}},
              "src_lines": {"parent": 100, "change": 90}}
    assert script["summary_lines"](record) == [
        "w setup_s: parent 3 (q1-q3 2-4), change 12, better in 0/5 pairs, outside the parent's quartiles",
        "w run_ref: parent 3 (q1-q3 2-4), change 2.5, better in 5/5 pairs",
        "w peak_rss_mb: parent 3 (q1-q3 2-4), change 3, better in 0/5 pairs",
        "w failed ops: parent 0, change 1",
        "src lines: parent 100, change 90",
    ]


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
