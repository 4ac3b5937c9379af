"""The scripts under scripts/ run in-process against the package, so an export change shows here."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_invariant_form_tables_runs_at_degree_two(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "invariant_form_tables.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["invariant_form_tables.py", "2"])
    assert main() == 0
    assert "degree 2" in capsys.readouterr().out
