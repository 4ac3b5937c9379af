"""The supertrace benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh Python
process with ``src`` on its path, so ``peak_rss_mb`` and ``setup_s`` belong
to that run.  Set-up is repeated in further fresh processes.  Each set-up
time is scaled to a fixed machine speed by a reference job timed right after
it, and ``setup_s`` is the median of the scaled times.  With ``--trace 0``
the run repeats the workload's round of operations for about ``--seconds``
and reports end-to-end metrics; with
``--trace 1`` it runs round 0 untraced and then traced, and reports
per-layer metrics.  Every operation checks its result exactly.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK_DIR = os.path.join(ROOT, ".perfbench")
# Fresh processes that measure set-up: at least SETUP_MIN_RUNS, then more
# while their total time stays under SETUP_BUDGET_S, up to SETUP_MAX_RUNS.
SETUP_MIN_RUNS = 5
SETUP_MAX_RUNS = 15
SETUP_BUDGET_S = 8.0
# setup_s is given at the machine speed at which the reference job takes this long.
REFERENCE_NOMINAL_S = 0.030
# All workers of one run must end within this many seconds.
RUN_TIMEOUT_S = 170


def run_worker(args, tmp: str, setup_only: bool, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUPERTRACE_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--out", WORK_DIR]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.time()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()),
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_record(seed: int) -> dict:
    """Where and how the run was made; recorded, not gated."""
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or rev
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    lines = 0
    for path in glob.glob(os.path.join(SRC, "supertrace", "*.py")):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {"git_rev": rev, "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "seed": seed, "src_lines": lines}


def check_counts_repeat(workload: str, seed: int, layers: dict) -> str:
    """Compare the count metrics with the last traced run of the same seed."""
    counts = {k: v for k, (v, unit) in layers.items() if unit in ("count", "B")}
    path = os.path.join(WORK_DIR, f"counts-{workload}-seed{seed}.json")
    previous = None
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
    with open(path, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    if previous is None:
        return "first traced run of this seed; counts saved for the next one"
    diff = sorted(k for k in counts.keys() | previous.keys()
                  if counts.get(k) != previous.get(k))
    if diff:
        return "MISMATCH with the previous traced run of this seed: " + ", ".join(diff)
    return "identical to the previous traced run of this seed"


def percentile_ms(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return 1000 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "supertrace", "__init__.py")):
        print(f"error: no supertrace sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        main_run = run_worker(args, tmp, False, deadline)
        setups = [main_run]
        spent = 0.0
        while not args.trace and len(setups) < SETUP_MAX_RUNS and (
                len(setups) < SETUP_MIN_RUNS or spent < SETUP_BUDGET_S):
            start = time.monotonic()
            setups.append(run_worker(args, tmp, True, deadline))
            spent += time.monotonic() - start
    except subprocess.SubprocessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = run_record(args.seed)
    latencies, failures = main_run["latencies"], main_run["failures"]
    attempted, failed = len(latencies), len(failures)
    print(f"# supertrace benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, one client, closed loop")
    print("# run record: " + json.dumps(record, sort_keys=True))
    for failure in failures:
        print(f"# FAILED op: {failure}")
    print(f"# ops: {attempted} attempted, {failed} failed, failed_ratio {failed / attempted:g}")
    setup_wall = [r["setup_s"] for r in setups]
    setup_scaled = [REFERENCE_NOMINAL_S * r["setup_s"] / r["setup_reference_s"] for r in setups]
    print(f"# set-up in {len(setups)} fresh processes, wall s: "
          + ", ".join(f"{s:.4f}" for s in setup_wall))
    print(f"# the same at reference speed ({1000 * REFERENCE_NOMINAL_S:g} ms), s: "
          + ", ".join(f"{s:.4f}" for s in setup_scaled))

    if args.trace:
        values = main_run["layers"]
        overhead = main_run["traced_s"] - main_run["untraced_s"]
        print(f"# round 0: untraced run_s {main_run['untraced_s']:.4f} s, traced run_s "
              f"{main_run['traced_s']:.4f} s, tracing overhead {overhead:.4f} s "
              f"({100 * overhead / main_run['untraced_s']:.1f} %)")
        print(f"# spans written to {os.path.relpath(main_run['spans_path'], ROOT)}")
        print("# per-layer counts: " + check_counts_repeat(args.workload, args.seed, values))
        wanted = spec["per_layer"]
    else:
        rounds = main_run["rounds"]
        print(f"# {len(rounds)} rounds of {main_run['ops_per_round']} ops; run_s is the median "
              "round: " + ", ".join(f"{r:.3f}" for r in rounds))
        values = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "setup_wall_s": (statistics.median(setup_wall), "s"),
            "run_s": (statistics.median(rounds), "s"),
            "run_ref": (statistics.median(r / ref for r, ref in zip(rounds, main_run["references"])),
                        "ref"),
            "reference_ms": (1000 * statistics.median(main_run["references"]), "ms"),
            "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "peak_rss_mb": (main_run["peak_rss_mb"], "MB"),
            "failed_ratio": (failed / attempted, "ratio"),
        }
        if attempted >= 100:
            values["op_p90_ms"] = (percentile_ms(latencies, 0.9), "ms")
        else:
            print(f"# op_p90_ms not reported: {attempted} ops < 100")
        wanted = spec["end_to_end"]
    bases = main_run.get("bases", {})
    for name, (value, unit) in values.items():
        print(f"  {name:40s} {value:>16.6f} {unit}" + (f"  ({bases[name]})" if name in bases else ""))
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
