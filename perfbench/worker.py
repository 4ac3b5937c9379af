"""Run one workload in this (fresh) process and print one JSON result line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
``--t0`` is the wall-clock time at which the parent started this process, so
``setup_s`` covers interpreter start, imports and the workload's set-up.
``setup_reference_s`` is the reference job's time measured right after it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

from workloads import WORKLOADS

# At least this many rounds run, whatever --seconds says.
MIN_ROUNDS = 2
# Reference samples taken right after set-up; setup_reference_s is their median.
SETUP_REFERENCES = 3


def run_ops(ops) -> tuple[list[float], list[str], list]:
    """Time each (name, callable) op; one that raises or fails its oracle is a failed op."""
    latencies, failures, results = [], [], []
    for name, fn in ops:
        start = time.perf_counter()
        try:
            results.append(fn())
        except Exception as exc:  # the run goes on; the failure is counted and reported
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            results.append(None)
        latencies.append(time.perf_counter() - start)
    return latencies, failures, results


def reference_s() -> float:
    """Seconds for a fixed stdlib job of exact sparse arithmetic.

    The job shares no code with the library, and the garbage collector is
    off while it runs, so its time does not depend on the objects the library
    keeps alive.  It measures only how fast the machine runs this kind of
    Python work right now.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict[int, Fraction] = {}
        for i in range(1, 10000):
            k = i * 7919 % 1021
            acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 97, i % 13 + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


def timed_rounds(workload, seconds: float) -> dict:
    """Rounds 0, 1, ... until the next round would end after ``seconds``.

    The reference job runs before each op and after each round, outside the
    op timings; a round's reference time is the mean of those samples.
    """
    latencies, failures, rounds, references = [], [], [], []
    start = time.perf_counter()
    while True:
        ops = workload.round_ops(len(rounds))
        samples, round_s = [], 0.0
        for op in ops:
            samples.append(reference_s())
            lat, fail, _ = run_ops([op])
            round_s += lat[0]
            latencies += lat
            failures += fail
        samples.append(reference_s())
        rounds.append(round_s)
        references.append(statistics.fmean(samples))
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > seconds:
            break
    return {"rounds": rounds, "references": references, "latencies": latencies,
            "failures": failures, "ops_per_round": len(ops)}


def traced_round(workload, out_dir: str, tag: str) -> dict:
    """Round 0 once untraced and once traced; per-layer metrics of the traced pass."""
    from tracer import Tracer, layer_metrics

    ops = workload.round_ops(0)
    t = time.perf_counter()
    lat0, fail0, _ = run_ops(ops)
    untraced_s = time.perf_counter() - t

    tracer = Tracer()
    tracer.install()
    try:
        ops = workload.round_ops(0)
        t = time.perf_counter()
        lat1, fail1, _ = run_ops(ops)
        traced_s = time.perf_counter() - t
    finally:
        tracer.uninstall()
    spans_path = os.path.join(out_dir, f"spans-{tag}.csv")
    tracer.write_spans(spans_path)
    layers, bases = layer_metrics(tracer)
    return {
        "untraced_s": untraced_s, "traced_s": traced_s,
        "latencies": lat0 + lat1, "failures": fail0 + fail1,
        "layers": layers, "bases": bases, "spans_path": spans_path,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", required=True, help="scratch directory for caches")
    p.add_argument("--out", required=True, help="directory for span files")
    p.add_argument("--t0", type=float, required=True, help="parent's time.time() at spawn")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    workload.setup()
    result = {"setup_s": time.time() - args.t0,
              "setup_reference_s": statistics.median(reference_s() for _ in range(SETUP_REFERENCES))}
    if not args.setup_only:
        if args.trace:
            result |= traced_round(workload, args.out, f"{args.workload}-seed{args.seed}")
        else:
            result |= timed_rounds(workload, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
