"""The scripts under scripts/ run in-process against the package, so an export change shows here."""

import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_invariant_form_tables_runs_at_degree_two(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "invariant_form_tables.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["invariant_form_tables.py", "2"])
    assert main() == 0
    assert "degree 2" in capsys.readouterr().out


def test_bench_trees_are_siblings_laid_out_alike(tmp_path):
    prepare_trees = runpy.run_path(str(SCRIPTS / "bench_record.py"))["prepare_trees"]
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("A = 1\n")
    (repo / "notes.txt").write_text("n\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
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
