import contextlib
import functools
import io
import json
import os
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertrace.cli import main
from supertrace.report import check, check_true, info


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRootData:
    @staticmethod
    def root_rows(text):
        rows = [line.split() for line in text.splitlines()]
        return [r[-1] for r in rows if r and r[-1] in ("even", "odd") and r[0] != "root"]

    def test_sl21_listing(self):
        code, text = run_cli("root-data", "sl", "2", "1")
        assert code == 0
        rows = self.root_rows(text)
        assert rows.count("odd") == 2 and rows.count("even") == 1
        assert "rho = [0, -1]" in text

    def test_equal_dims_rejected(self):
        code, _ = run_cli("root-data", "sl", "2", "2")
        assert code == 2

    def test_osp2(self):
        code, text = run_cli("root-data", "osp2", "3")
        assert code == 0
        rows = self.root_rows(text)
        assert rows.count("even") == 9 and rows.count("odd") == 6

    def test_json_mode(self):
        code, text = run_cli("root-data", "sl", "3", "1", "--format", "json")
        assert code == 0
        data = json.loads(text)
        assert data["m"] == 3 and len(data["pos_odd"]) == 3


class TestDimensionTables:
    def test_mdim_values(self):
        code, text = run_cli("mdim", "sl", "2", "1", "--weight", "0,1", "--format", "json")
        assert code == 0
        row = json.loads(text.strip())
        assert row["mdim"] == "1/2" and row["typical"] is True

    def test_mdim_atypical_marked_not_errored(self):
        code, text = run_cli(
            "mdim", "sl", "3", "1", "--weight", "0,0,0", "--format", "json"
        )
        assert code == 0
        assert json.loads(text.strip())["mdim"] == "atypical"

    def test_qdim_coefficients(self):
        code, text = run_cli(
            "qdim", "sl", "2", "1", "--weight", "0,1", "--order", "4", "--format", "json"
        )
        assert code == 0
        row = json.loads(text.strip())
        assert row["coefficients"] == ["1/2", "0", "-5/48", "0", "53/3840"]

    def test_bad_weight_length(self):
        code, _ = run_cli("mdim", "sl", "2", "1", "--weight", "1,2,3")
        assert code == 2


class TestScan:
    def scan(self, fixed):
        code, text = run_cli(
            "scan-typical", "sl", "2", "1", "--fixed", fixed,
            "--start", "-3", "--stop", "3", "--step", "1/2", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in text.strip().splitlines()]
        summary = rows[-1]
        assert summary["record"] == "summary"
        return rows[:-1], summary

    def test_base_family(self):
        rows, summary = self.scan("0")
        assert summary["atypical_points"] == ["-1", "0"]
        assert summary["all_integers"] is True
        assert summary["matches_pole_set"] is True

    def test_shifted_family(self):
        _, summary = self.scan("1")
        assert summary["atypical_points"] == ["-2", "0"]

    def test_wider_family(self):
        _, summary = self.scan("2")
        assert summary["atypical_points"] == ["-3", "0"]


class TestVerify:
    def test_superlin_suite(self):
        code, text = run_cli("verify", "--suite", "superlin", "--format", "json")
        assert code == 0
        lines = [json.loads(line) for line in text.strip().splitlines()]
        header = lines[0]
        assert header["record"] == "report" and header["pass"] is True
        assert all(c["pass"] for c in lines[1:])

    def test_report_schema_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        code, _ = run_cli("verify", "--suite", "superlin", "--report", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert set(data) >= {"suite", "algebra", "checks", "total", "failed", "pass"}
        for c in data["checks"]:
            assert set(c) == {"check", "pass", "expected", "actual", "inputs"}

    def test_unknown_algebra_for_trace_suite(self):
        code, _ = run_cli("verify", "--suite", "trace", "--algebra", "sl31")
        assert code == 2

    @pytest.mark.parametrize("seed", [51, 85])
    def test_trace_suite_passes_on_seed(self, seed):
        code, text = run_cli("verify", "--suite", "trace", "--seed", str(seed), "--format", "json")
        assert code == 0
        assert json.loads(text.splitlines()[0])["pass"] is True

    def test_swapped_cache_file_fails_with_named_check(self, tmp_path):
        import shutil

        from supertrace import repmod as rm
        from supertrace.rootdata import build_root_system, weight

        rs = build_root_system("sl", 2, 1)
        for lam in (weight(0, 1), weight(1, 1)):
            rm.cached_kac_module(rs, lam, str(tmp_path))
        shutil.copy(rm.kac_cache_path(str(tmp_path), rs, weight(1, 1)),
                    rm.kac_cache_path(str(tmp_path), rs, weight(0, 1)))
        code, text = run_cli(
            "verify", "--suite", "trace", "--cache-dir", str(tmp_path), "--format", "json"
        )
        assert code == 1
        checks = {c["check"]: c["pass"] for c in map(json.loads, text.strip().splitlines()[1:])}
        assert checks == {"roster.cache-integrity": False}

    @pytest.mark.parametrize("wrong", ["std(2|1)(+)C(1|0)", "op(K(0,1))"])
    def test_cached_module_that_is_not_the_kac_module_fails_with_named_check(self, tmp_path,
                                                                              wrong):
        # Saved as K(0,1) with its highest weight: dim 4 and relations that hold, but no even d.
        import dataclasses

        from supertrace import repmod as rm
        from supertrace.rootdata import build_root_system, weight

        rs, lam = build_root_system("sl", 2, 1), weight(0, 1)
        std, C, K = rm.standard_module(rs), rm.trivial_module(rs), rm.kac_module(rs, lam)
        mod = rm.direct_sum_module(std, C) if wrong.startswith("std") else rm.parity_shift_module(K)
        rm.save_gmodule(dataclasses.replace(mod, name="K(0,1)", highest_weight=lam),
                        rm.kac_cache_path(str(tmp_path), rs, lam))
        code, text = run_cli(
            "verify", "--suite", "trace", "--cache-dir", str(tmp_path), "--format", "json"
        )
        assert code == 1
        checks = {c["check"]: c["pass"] for c in map(json.loads, text.strip().splitlines()[1:])}
        assert checks == {"roster.cache-integrity": False}

    def test_corrupted_cache_fails_with_named_check(self, tmp_path):
        from supertrace import repmod as rm
        from supertrace.rootdata import build_root_system, weight

        rs = build_root_system("sl", 2, 1)
        rm.cached_kac_module(rs, weight(0, 1), str(tmp_path))
        path = rm.kac_cache_path(str(tmp_path), rs, weight(0, 1))
        broken = open(path).read().replace('"entries": [[0', '"entries": [[2', 1)
        open(path, "w").write(broken)
        code, text = run_cli(
            "verify", "--suite", "trace", "--cache-dir", str(tmp_path), "--format", "json"
        )
        assert code == 1
        lines = [json.loads(line) for line in text.strip().splitlines()]
        assert any(c.get("check") == "roster.cache-integrity" and not c["pass"] for c in lines[1:])

    def test_truncated_cache_fails_with_named_check(self, tmp_path):
        from supertrace import repmod as rm
        from supertrace.rootdata import build_root_system, weight

        rs = build_root_system("sl", 2, 1)
        rm.cached_kac_module(rs, weight(0, 1), str(tmp_path))
        path = rm.kac_cache_path(str(tmp_path), rs, weight(0, 1))
        text = open(path).read()
        open(path, "w").write(text[: len(text) - 20])
        code, text = run_cli(
            "verify", "--suite", "all", "--cache-dir", str(tmp_path), "--format", "json"
        )
        assert code == 1
        header = json.loads(text.splitlines()[0])
        assert header["failed_checks"] == ["roster.cache-integrity"]

    def test_timings_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        code, text = run_cli("verify", "--suite", "all", "--max-degree", "2",
                             "--format", "json", "--report", str(path))
        assert code == 0
        timings = json.loads(text.splitlines()[0])["timings"]
        assert set(timings) == {"roster", "superlin", "trace", "tensors"}
        assert all(isinstance(s, float) and s >= 0 for s in timings.values())
        assert json.loads(path.read_text())["timings"] == timings
        code, text = run_cli("verify", "--suite", "superlin", "--format", "json")
        assert list(json.loads(text.splitlines()[0])["timings"]) == ["superlin"]


class TestRunBlock:
    def test_header_and_report_record_how_the_run_was_made(self, tmp_path):
        import supertrace
        from supertrace.repmod import CONSTRUCTION_VERSION

        cache, path = tmp_path / "cache", tmp_path / "report.json"
        argv = ("verify", "--suite", "tensors", "--max-degree", "2", "--seed", "11",
                "--cache-dir", str(cache), "--format", "json", "--report", str(path))
        runs = []
        for _ in range(2):
            code, text = run_cli(*argv)
            assert code == 0
            header = json.loads(text.splitlines()[0])
            assert {"suite", "algebra", "total", "failed", "failed_checks", "pass",
                    "timings"} <= set(header)
            assert json.loads(path.read_text())["run"] == header["run"]
            runs.append(header["run"])
        first, second = runs
        assert first == {"seed": 11, "max_degree": 2, "algebra": "sl21",
                         "version": supertrace.__version__,
                         "construction_version": CONSTRUCTION_VERSION,
                         "cache": {"hits": 0, "misses": 2, "writes": 2}}
        assert second["cache"] == {"hits": 2, "misses": 0, "writes": 0}

    def test_no_cache_and_no_roster(self):
        code, text = run_cli("verify", "--suite", "superlin", "--algebra", "osp23",
                             "--format", "json")
        header = json.loads(text.splitlines()[0])
        assert code == 0 and header["run"]["cache"] == {"hits": 0, "misses": 0, "writes": 0}
        # superlin reads no algebra, so the report names none.
        assert header["algebra"] is None and header["run"]["algebra"] is None


def test_report_inputs_render_canonically():
    pair = (F(1, 2), F(2, 3))
    for result in (check("x", 1, 1, a=pair), check_true("x", True, a=pair), info("x", "d", a=pair)):
        assert result.inputs == {"a": "(1/2, 2/3)"}


# `verify --format json` runs as recorded at an earlier commit, without the
# `timings` and `run` blocks: every check's id, pass flag, rendered values and
# inputs, so a change of how values are held cannot change what is reported.
# Each file under tests/data is named by its key here.
GOLDEN_REPORTS = {
    "verify_all_seed2024": ("--suite", "all"),
    "verify_all_seed51": ("--suite", "all", "--seed", "51"),
    "verify_all_seed85": ("--suite", "all", "--seed", "85"),
    "verify_tensors_degree4_seed7": ("--suite", "tensors", "--max-degree", "4", "--seed", "7"),
}
CHECK_KEYS = ("check", "pass", "expected", "actual", "inputs")


@functools.lru_cache(maxsize=None)
def verify_run(argv: tuple) -> tuple[int, str]:
    """`verify *argv --format json`, run once per argv."""
    return run_cli("verify", *argv, "--format", "json")


@pytest.fixture(scope="module")
def verify_all():
    """`verify --suite all --format json` at the defaults (seed 2024, degree 3), run once."""
    return verify_run(GOLDEN_REPORTS["verify_all_seed2024"])


class TestVerifyFailures:
    @staticmethod
    def checks_of(text):
        lines = [json.loads(line) for line in text.strip().splitlines()]
        assert lines[0]["record"] == "report"
        return {c["check"]: c for c in lines[1:]}

    @pytest.mark.parametrize("golden", sorted(GOLDEN_REPORTS))
    def test_report_matches_the_golden_report(self, golden):
        code, text = verify_run(GOLDEN_REPORTS[golden])
        assert code == 0
        header, *checks = [json.loads(line) for line in text.splitlines()]
        with open(os.path.join(os.path.dirname(__file__), "data", f"{golden}.json")) as fh:
            golden = json.load(fh)
        assert [{k: c[k] for k in CHECK_KEYS} for c in checks] == golden.pop("checks")
        assert {k: header[k] for k in golden} == golden

    def test_values_render_canonically(self, verify_all):
        code, text = verify_all
        assert code == 0
        assert "Fraction(" not in text
        checks = self.checks_of(text)
        assert checks["tensors.form-sample"]["actual"] == "(2, 1, 0)"
        assert checks["trace.supertrace-nonzero-control"]["actual"] == "(1, False)"

    def test_raising_tensor_suite_is_a_named_failure(self, monkeypatch):
        from supertrace import invtensor as it

        def broken(rs):
            raise it.FormConstructionError("form is degenerate")

        monkeypatch.setattr(it, "build_adjoint", broken)
        code, text = run_cli("verify", "--suite", "tensors", "--format", "json")
        assert code == 1
        checks = self.checks_of(text)
        assert list(checks) == ["tensors.raised"]
        assert checks["tensors.raised"]["actual"] == "FormConstructionError: form is degenerate"
        assert checks["tensors.raised"]["inputs"]["at"].endswith("in broken")

    def test_raising_suite_does_not_stop_the_others(self, monkeypatch):
        from supertrace import mtrace as mt

        def broken(*args):
            raise mt.BracketError("bracket input is not g-linear")

        monkeypatch.setattr(mt, "trace_invariance_sides", broken)
        code, text = run_cli("verify", "--suite", "all", "--max-degree", "2", "--format", "json")
        assert code == 1
        checks = self.checks_of(text)
        failed = [name for name, c in checks.items() if not c["pass"]]
        assert failed == ["trace.raised"]
        assert checks["trace.raised"]["actual"] == "BracketError: bracket input is not g-linear"
        assert "superlin.zigzag" in checks and "tensors.kernel-property" in checks

    def test_raising_roster_is_a_named_failure(self, monkeypatch):
        from supertrace import repmod as rm

        def broken(V, V0):
            raise rm.WitnessNotFoundError("no splitting")

        monkeypatch.setattr(rm, "ideal_witness", broken)
        code, text = run_cli("verify", "--suite", "all", "--format", "json")
        assert code == 1
        checks = self.checks_of(text)
        assert not checks["roster.raised"]["pass"]
        assert checks["roster.raised"]["actual"] == "WitnessNotFoundError: no splitting"
        assert all(name.startswith("superlin.") for name in checks if name != "roster.raised")

    def test_checks_that_compare_nothing_fail(self, monkeypatch):
        from supertrace import invtensor as it

        monkeypatch.setattr(it, "it_space", lambda adj, N, probes: it.ITSubspace(N, (), ()))
        code, text = run_cli("verify", "--suite", "tensors", "--max-degree", "3", "--format", "json")
        assert code == 1
        checks = self.checks_of(text)
        for name in ("kernel-property", "route-agreement", "modified-form-symmetric",
                     "presentation-independence", "closure-sum", "closure-product",
                     "permutation-orthogonality", "functorial-adjoint", "classical-gram-recorded"):
            assert not checks[f"tensors.{name}"]["pass"]
            assert checks[f"tensors.{name}"]["actual"] == "nothing was compared"

    def test_a_supertrace_over_no_endomorphism_fails(self, monkeypatch):
        from supertrace import repmod as rm

        hom = rm.hom_space
        monkeypatch.setattr(rm, "hom_space", lambda U, V, parity: [] if parity is None else hom(U, V, parity))
        code, text = run_cli("verify", "--suite", "trace", "--format", "json")
        assert code == 1
        checks = self.checks_of(text)
        assert not checks["trace.supertrace-vanishes"]["pass"]
        assert checks["trace.supertrace-vanishes"]["actual"] == "nothing was compared"
        assert [name for name, c in checks.items() if not c["pass"]] == ["trace.supertrace-vanishes"]

    def test_form_axioms_are_computed(self, monkeypatch):
        from supertrace import invtensor as it

        inverse = it.AdjointData.b_inv.func
        monkeypatch.setattr(it.AdjointData, "b_inv", property(lambda adj: 2 * inverse(adj)))
        code, text = run_cli("verify", "--suite", "tensors", "--max-degree", "2", "--format", "json")
        assert code == 1
        checks = self.checks_of(text)
        assert checks["tensors.form-axioms"]["actual"] == "b_inv . b is not the identity"


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ("qdim", "sl", "2", "1", "--weight", "1,1", "--order", "-3"),
        ("verify", "--suite", "tensors", "--max-degree", "0"),
        ("verify", "--suite", "tensors", "--max-degree", "1"),
        ("verify", "--suite", "superlin", "--report", "/nonexistent-dir/report.json"),
    ])
    def test_usage_error_exits_2(self, argv, capsys):
        code, _ = run_cli(*argv)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("selection, message", [
        (["trcae"], r"unknown suites \['trcae'\]"), (["trace", "x", "all"], r"unknown suites \['x'\]"),
        ([], r"non-empty list of names, got \[\]"), ("trace", "non-empty list of names, got 'trace'"),
    ])
    def test_run_verification_refuses_a_selection_it_does_not_know(self, selection, message):
        from supertrace import suites

        with pytest.raises(ValueError, match=message):
            suites.run_verification(selection)

    @pytest.mark.parametrize("spec, message", [
        ("sl11", "sl(m|n) requires m != n"), ("sl10", "sl(m|n) requires m, n >= 1"),
        ("osp20", "osp(2|2n) requires n >= 1"),
    ])
    def test_invalid_algebra_exits_2_before_any_suite(self, spec, message, capsys, monkeypatch):
        from supertrace import suites

        def no_run(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(suites, "run_verification", no_run)
        code, _ = run_cli("verify", "--suite", "superlin", "--algebra", spec)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("degree", ["5", "6", "7", "40"])
    def test_max_degree_above_the_cap_exits_before_any_suite(self, degree, capsys, monkeypatch):
        from supertrace import suites

        def no_run(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(suites, "run_verification", no_run)
        code, _ = run_cli("verify", "--suite", "tensors", "--max-degree", degree)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --max-degree must be between 2 and 4")

    @pytest.mark.parametrize("stop, step", [("100000", "1/100000"), ("1", "1/100000"), ("100000", "1/2")])
    def test_scan_grid_above_the_cap_exits_before_any_row(self, stop, step, capsys):
        code, text = run_cli("scan-typical", "sl", "2", "1", "--fixed", "0", "--start", "0",
                             "--stop", stop, "--step", step)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: the grid has ")

    def test_scan_grid_at_the_cap_runs(self, monkeypatch):
        # 0, 1/2, ..., 3/2 is four points: refused above a cap of 3, scanned at a cap of 4.
        from supertrace import cli

        argv = ("scan-typical", "sl", "2", "1", "--fixed", "0", "--start", "0", "--stop", "3/2",
                "--step", "1/2", "--format", "json")
        monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 3)
        assert run_cli(*argv)[0] == 2
        monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 4)
        code, text = run_cli(*argv)
        assert code == 0 and len(text.splitlines()) == 5  # four rows and the summary


ALGEBRAS = st.sampled_from([
    ["sl", "2", "1"], ["sl", "3", "1"], ["sl", "1", "2"], ["osp2", "1"], [], ["sl", "2", "2"],
    ["sl", "2"], ["sl", "x", "1"], ["osp2", "0"], ["osp2", "1", "2"], ["gl", "2", "1"],
])
RATIONALS = st.sampled_from(["-3", "-1/2", "0", "1", "1/2", "3", "x", "1/0", ""])
INTEGERS = st.sampled_from(["-3", "-1", "0", "1", "2", "3", "x", "2.5"])
VALUES = {
    "--weight": st.sampled_from(["0,1", "1,1", "0,0", "1/2,1", "1,0,1/2", "-1,2", "x", "", "1/0,1"]),
    "--order": INTEGERS,
    "--format": st.sampled_from(["table", "json", "csv"]),
    "--fixed": st.sampled_from(["0", "1", "0,1", "1/2", "", "x"]),
    "--start": RATIONALS,
    "--stop": RATIONALS,
    "--step": RATIONALS,
    "--suite": st.sampled_from(["superlin", "trace", "tensors", "all", "none"]),
    "--algebra": st.sampled_from(["sl21", "sl31", "sl22", "osp21", "gl21", ""]),
    "--max-degree": INTEGERS,
    "--seed": INTEGERS,
    "--report": st.sampled_from(["{tmp}/report.json", "{tmp}/missing/report.json", "{tmp}"]),
    "--cache-dir": st.sampled_from(["{tmp}/cache", "{tmp}/report.json"]),
}
OWN_FLAGS = {
    "root-data": ["--format"],
    "mdim": ["--weight", "--weight", "--format"],
    "qdim": ["--weight", "--order", "--format"],
    "scan-typical": ["--fixed", "--start", "--stop", "--step", "--format"],
    "verify": ["--suite", "--algebra", "--max-degree", "--seed", "--report", "--cache-dir",
               "--format"],
}


@st.composite
def cli_argv(draw):
    """A subcommand with a random subset of its flags, now and then a stray
    flag of another subcommand, and now and then a flag without its value."""
    argv = [draw(st.sampled_from(list(OWN_FLAGS) + ["bogus"]))]
    if argv[0] != "verify":
        argv += draw(ALGEBRAS)
    flags = [flag for flag in OWN_FLAGS.get(argv[0], []) if draw(st.booleans())]
    flags += draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=1))
    for flag in flags:
        argv += [flag] if draw(st.integers(0, 19)) == 0 else [flag, draw(VALUES[flag])]
    return argv


class TestParserFuzz:
    """Any argv exits 0, 1 or 2 and never raises.

    The verify engine is replaced by a canned superlin report: the suites are
    covered elsewhere, and a real `--suite all --max-degree 3` run takes seconds.
    """

    @pytest.fixture(scope="class")
    def canned_engine(self):
        from supertrace import suites

        report = suites.run_verification(["superlin"])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(suites, "run_verification", lambda *args, **kwargs: report)
            yield

    @settings(max_examples=150, deadline=None)
    @given(argv=cli_argv())
    def test_exit_codes(self, canned_engine, argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [a.replace("{tmp}", tmp) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main(argv, out=out)
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        if code == 2 and not err.getvalue().startswith("usage:"):
            assert err.getvalue().startswith("error: "), err.getvalue()
