"""Benchmark a change against its parent revision and write BENCH_<n>.json.

    python3 scripts/bench_record.py 10 --parent HEAD~1 --layer repmod

Run from anywhere inside the checkout.  Both sides run from sibling trees in
one temporary directory, laid out alike and removed afterwards: the parent
revision unpacked from ``git archive``, and the change copied from the tracked
files of this checkout as they are in its working tree, so uncommitted edits
count.  Neither tree may hold a ``__pycache__``, so no side starts with its
``src/`` compiled.  For every workload of
``BENCHMARK.json`` and each of the ``PAIRS`` seeds from ``FIRST_SEED``,
``perfbench/run.py --trace 0`` runs once on each tree, one after the other,
and the tree that goes first alternates from seed to seed.  The file records both revisions, the machine
(with ``PYTHONDONTWRITEBYTECODE`` as the runs inherit it: set, every run compiles
``src/`` afresh; unset, only each tree's first) and the ``src/`` line counts (both from each run's ``# run record:`` line),
the layer the change moved, every run, and per workload the median and
quartiles of ``setup_s``, ``run_ref`` and ``peak_rss_mb`` with the number of
pairs in which the change was better.  After writing the file it prints that
summary (``summary_lines``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "run_ref", "peak_rss_mb")
PAIRS = 10
FIRST_SEED = 2001  # pair k runs seed FIRST_SEED + k
RECORD = "# run record: "


def git(*args: str, root: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def prepare_trees(rev: str, dest: str, root: str = ROOT) -> dict[str, str]:
    """Sibling trees ``dest/parent`` and ``dest/change``, laid out alike.

    The parent tree holds the committed files of ``rev``; the change tree the
    files that git tracks in the checkout at ``root``, as they are in its
    working tree (a tracked file deleted there is left out).  Nothing is
    registered in .git.  Exits if a tree holds a ``__pycache__`` (a tracked one).
    """
    trees = {side: os.path.join(dest, side) for side in ("parent", "change")}
    archive = os.path.join(dest, "parent.tar")
    os.makedirs(trees["parent"])
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev], cwd=root, check=True)
    subprocess.run(["tar", "-xf", archive, "-C", trees["parent"]], check=True)
    os.remove(archive)
    for rel in git("ls-files", "-z", root=root).split("\0"):
        if rel and os.path.isfile(os.path.join(root, rel)):
            target = os.path.join(trees["change"], rel)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(os.path.join(root, rel), target)
    cached = [os.path.relpath(os.path.join(path, "__pycache__"), dest)
              for tree in trees.values() for path, dirs, _ in os.walk(tree) if "__pycache__" in dirs]
    if cached:
        raise SystemExit(f"refusing to start: {', '.join(sorted(cached))} holds compiled bytecode")
    return trees


def machine(rec: dict) -> dict:
    """The machine block: a run record's cpu, nproc and python, and ``PYTHONDONTWRITEBYTECODE``
    as the runs inherit it (null when unset)."""
    return {**{key: rec[key] for key in ("cpu", "nproc", "python")},
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


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


def summary_lines(record: dict) -> list[str]:
    """What a record says, one line each: per workload and metric the parent median with its
    quartiles, the change median and the pairs in which the change was better (flagged when the
    change median lies outside the parent's quartiles); per workload the failed ops of both
    sides; and the ``src/`` line counts of both sides."""
    lines = []
    for workload, data in record["workloads"].items():
        summary = data["summary"]
        for m in METRICS:
            parent, change = summary[m]["parent"], summary[m]["change"]
            outside = not parent["q1"] <= change["median"] <= parent["q3"]
            lines.append(f"{workload} {m}: parent {parent['median']:.4g} "
                         f"(q1-q3 {parent['q1']:.4g}-{parent['q3']:.4g}), "
                         f"change {change['median']:.4g}, better in "
                         f"{summary[m]['change_better_pairs']}/{summary[m]['pairs']} pairs"
                         + (", outside the parent's quartiles" if outside else ""))
        failed = summary["failed_ops"]
        lines.append(f"{workload} failed ops: parent {failed['parent']}, change {failed['change']}")
    src = record["src_lines"]
    lines.append(f"src lines: parent {src['parent']}, change {src['change']}")
    return lines


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
    with tempfile.TemporaryDirectory(prefix="bench-trees-") as tmp:
        trees = prepare_trees(args.parent, tmp)
        for workload in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list] = {"parent": [], "change": []}
            for k in range(PAIRS):
                seed = FIRST_SEED + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for tree in order:
                    run, rec = run_once(trees[tree], workload, seed, seconds)
                    runs[tree].append(run)
                    record["machine"] = machine(rec)
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
    print("\n".join(summary_lines(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
