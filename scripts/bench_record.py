"""Benchmark a change against its parent revision and write BENCH_<n>.json.

    python3 scripts/bench_record.py 10 --parent HEAD~1 --layer repmod

Run from anywhere inside the checkout.  The parent revision is unpacked from
``git archive`` into a temporary directory, which is removed afterwards; the
change is the working tree of this checkout.  For every workload of
``BENCHMARK.json`` and each of the ``PAIRS`` seeds from ``FIRST_SEED``,
``perfbench/run.py --trace 0`` runs once on each tree, one after the other,
and the tree that goes first alternates from seed to seed.  The file records both revisions, the machine
and the ``src/`` line counts (both from each run's ``# run record:`` line),
the layer the change moved, every run, and per workload the median and
quartiles of ``setup_s``, ``run_ref`` and ``peak_rss_mb`` with the number of
pairs in which the change was better.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "run_ref", "peak_rss_mb")
PAIRS = 10
FIRST_SEED = 2001  # pair k runs seed FIRST_SEED + k
RECORD = "# run record: "


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def unpack(rev: str, dest: str) -> None:
    """The committed files of ``rev`` under ``dest``; nothing is registered in .git."""
    archive, tree = os.path.join(dest, "tree.tar"), os.path.join(dest, "tree")
    os.makedirs(tree)
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev], cwd=ROOT, check=True)
    subprocess.run(["tar", "-xf", archive, "-C", tree], check=True)
    os.remove(archive)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced benchmark run: its final JSON line with the seed, and its run record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith(RECORD))[len(RECORD):])
    return {"seed": seed, "correct": last["correct"], "failed": last["failed"],
            "attempted": last["attempted"],
            **{m: last["metrics"][m]["value"] for m in METRICS}}, record


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict) -> dict:
    """Per metric: quartiles of each tree, and pairs in which the change was lower (better)."""
    out = {}
    for m in METRICS:
        parent = [r[m] for r in runs["parent"]]
        change = [r[m] for r in runs["change"]]
        out[m] = {"parent": quartiles(parent), "change": quartiles(change),
                  "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
                  "pairs": len(parent)}
    out["failed_ops"] = {tree: sum(r["failed"] for r in runs[tree]) for tree in runs}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("number", type=int, help="n of BENCH_<n>.json")
    p.add_argument("--parent", required=True, help="the revision to compare against")
    p.add_argument("--layer", required=True, help="the layer the change moved, e.g. repmod")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench"))
    record = {
        "bench": args.number,
        "layer": args.layer,
        "parent_rev": git("rev-parse", args.parent),
        "change_rev": git("rev-parse", "HEAD") + (" + uncommitted changes" if dirty else ""),
        "seconds_per_run": seconds,
        "order": f"pair k runs seed {FIRST_SEED} + k; the parent goes first for even k",
        "workloads": {},
        "src_lines": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        unpack(args.parent, tmp)
        trees = {"parent": os.path.join(tmp, "tree"), "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list] = {"parent": [], "change": []}
            for k in range(PAIRS):
                seed = FIRST_SEED + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for tree in order:
                    run, rec = run_once(trees[tree], workload, seed, seconds)
                    runs[tree].append(run)
                    record["machine"] = {key: rec[key] for key in ("cpu", "nproc", "python")}
                    record["src_lines"][tree] = rec["src_lines"]
                    print(f"{workload} seed {seed} {tree}: "
                          + ", ".join(f"{m} {runs[tree][-1][m]:.4g}" for m in METRICS),
                          flush=True)
            record["workloads"][workload] = {"summary": summarize(runs), "runs": runs}
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
