"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import supertrace  # noqa: E402
from supertrace import mtrace, repmod, superlin  # noqa: E402
from supertrace.rootdata import build_root_system  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from worker import run_ops  # noqa: E402
from workloads import (  # noqa: E402
    MODULE_SHAPES, ModulesWorkload, OracleError, TensorsD4Workload,
)


@pytest.fixture
def modules(tmp_path):
    wl = ModulesWorkload(seed=5, tmp=str(tmp_path))
    wl.setup()
    return wl


def small_module_op(wl: ModulesWorkload, k: int = 0):
    shape, lam, c = wl.round_inputs(k)[0]
    assert shape == "sl21-d8"
    return lambda: wl.op(shape, lam, c)


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


def test_traced_and_untraced_ops_agree_and_originals_return(modules, tmp_path):
    originals = (repmod.hom_space, supertrace.hom_space, superlin.SuperMap.__dict__["__init__"],
                 sys.modules["supertrace.invtensor"].hom_space, mtrace.modified_trace)
    op = small_module_op(modules)
    plain = op()
    result, tracer = traced(op)
    assert result == plain
    assert (repmod.hom_space, supertrace.hom_space, superlin.SuperMap.__dict__["__init__"],
            sys.modules["supertrace.invtensor"].hom_space, mtrace.modified_trace) == originals
    # Bound names are wrapped: ideal_witness reaches nullspace through repmod.
    assert layer_metrics(tracer)[0]["linalg.nullspace.calls"][0] > 0

    tensors = TensorsD4Workload(seed=2, tmp=str(tmp_path))
    tensors.setup()
    _, op = tensors.round_ops(0)[0]
    plain = op()
    assert plain[0] != 0
    assert traced(op)[0] == plain


def test_counts_repeat_for_the_same_inputs(modules):
    _, first = traced(small_module_op(modules))
    _, second = traced(small_module_op(modules))
    counts = [{k: v for k, (v, unit) in layer_metrics(t)[0].items() if unit != "s"}
              for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["repmod.cache.hit_ratio"] == 0.5


def test_failing_oracle_and_raising_op_count_as_failed(modules, monkeypatch):
    good = ("good", small_module_op(modules))
    latencies, failures, results = run_ops([("raises", lambda: 1 / 0), good])
    assert len(latencies) == 2 and len(failures) == 1 and "ZeroDivisionError" in failures[0]
    assert results[0] is None and results[1] is not None

    real = mtrace.modified_trace
    monkeypatch.setattr(mtrace, "modified_trace", lambda f, w: real(f, w) + 1)
    _, failures, results = run_ops([good, good])
    assert len(failures) == 2 and results == [None, None]
    assert "OracleError" in failures[0] and "closed form" in failures[0]
    with pytest.raises(OracleError):
        good[1]()


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 99991])
def test_generated_weights_are_typical_and_dominant(tmp_path, seed):
    wl = ModulesWorkload(seed=seed, tmp=str(tmp_path))
    wl.setup()
    systems = {(m, n): build_root_system("sl", m, n) for m, n, _, _ in MODULE_SHAPES.values()}
    for core in wl.cores.values():
        assert core.rs.is_typical(core.highest_weight)
    for k in range(4):
        for shape, lam, c in wl.round_inputs(k):
            m, n, _, _ = MODULE_SHAPES[shape]
            rs = systems[(m, n)]
            assert rs.is_typical(lam) and rs.is_dominant_finite(lam) and c != 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known defect: trace.supertrace-nonzero-control draws a "
                   "random map whose supertrace is 0 on this seed; the verify workload leaves "
                   "the trace suite out until it is fixed")
def test_trace_suite_passes_on_seed_51(tmp_path):
    from supertrace import cli
    argv = ["verify", "--suite", "trace", "--algebra", "sl21", "--cache-dir", str(tmp_path),
            "--seed", "51", "--format", "json"]
    assert cli.main(argv, out=io.StringIO()) == 0
