"""Command-line interface: root data tables, dimension tables, scans, verification.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors.  JSON output is line-oriented (one JSON object per row) so tables
stream and diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .exactnum import rat_str
from .rootdata import AtypicalWeightError, RootDataError, RootSystem, Weight, build_root_system

USAGE_ERROR = 2
CACHE_ENV = "SUPERTRACE_CACHE_DIR"
# Degree 5 is refused before any work starts: its reachable space (it_space) alone
# takes about 6 minutes and 1.2 GB, and the degree-5 forms are not measured yet.
MAX_DEGREE = 4
MAX_SCAN_POINTS = 100_000  # refused before the first row: about 12 s at 0.12 ms a point, all rows kept


class UsageError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _parse_weight(text: str, rank: int) -> Weight:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != rank:
        raise UsageError(f"weight needs {rank} comma-separated coordinates, got {text!r}")
    return Weight(tuple(_parse_rational(p) for p in parts))


def _build_system(family: str, dims) -> RootSystem:
    try:
        if family == "sl":
            if len(dims) != 2:
                raise UsageError("sl requires two dimensions, e.g. `sl 2 1`")
            return build_root_system("sl", dims[0], dims[1])
        if family == "osp2":
            if len(dims) != 1:
                raise UsageError("osp2 requires one dimension, e.g. `osp2 3`")
            return build_root_system("osp2", dims[0])
        raise UsageError(f"unknown family {family!r} (expected sl or osp2)")
    except RootDataError as exc:
        raise UsageError(str(exc)) from exc


def parse_algebra_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    """Compact algebra specs: sl21 -> sl(2|1), osp23 -> osp(2|6)."""
    m = re.fullmatch(r"sl(\d)(\d)", spec)
    if m:
        return "sl", (int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"osp2(\d+)", spec)
    if m:
        return "osp2", (int(m.group(1)),)
    raise UsageError(f"cannot parse algebra spec {spec!r} (expected e.g. sl21 or osp21)")


def _emit_rows(rows: list[dict], headers: list[str], fmt: str, out) -> None:
    if fmt == "json":
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
        return
    table = [[str(row.get(h, "")) for h in headers] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in table)) if table else len(h)
              for i, h in enumerate(headers)]
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for r in table:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def cmd_root_data(args, rs: RootSystem, out) -> int:
    if args.format == "json":
        out.write(rs.to_json() + "\n")
        return 0
    dims = args.dims
    label = f"sl({dims[0]}|{dims[1]})" if args.family == "sl" else f"osp(2|{2 * dims[0]})"
    out.write(f"{label}: rank {rs.rank}, odd simple root index {rs.s + 1}\n")
    out.write("Cartan matrix rows: " + "; ".join(str(list(r)) for r in rs.cartan.a) + "\n")
    out.write("symmetrizers d: " + str(list(rs.cartan.d)) + "\n")
    rows = []
    for root in rs.pos_even:
        rows.append({"root": str(list(root.coeffs)), "parity": "even"})
    for root in rs.pos_odd:
        rows.append({"root": str(list(root.coeffs)), "parity": "odd"})
    _emit_rows(rows, ["root", "parity"], "table", out)
    for label, vec in (("rho0", rs.rho0), ("rho1", rs.rho1), ("rho", rs.rho)):
        out.write(f"{label} = [" + ", ".join(rat_str(x) for x in vec) + "]\n")
    return 0


def cmd_mdim(args, rs: RootSystem, out) -> int:
    rows = []
    for w in [_parse_weight(text, rs.rank) for text in args.weight]:
        typical = rs.is_typical(w)
        rows.append({
            "weight": str(w),
            "typical": typical,
            "mdim": rat_str(rs.mod_sdim(w)) if typical else "atypical",
        })
    _emit_rows(rows, ["weight", "typical", "mdim"], args.format, out)
    return 0


def cmd_qdim(args, rs: RootSystem, out) -> int:
    weights = [_parse_weight(text, rs.rank) for text in args.weight]
    if args.order < 0:
        raise UsageError(f"--order must be non-negative, got {args.order}")
    rows = []
    for w in weights:
        typical = rs.is_typical(w)
        if typical:
            series = rs.qmod_sdim(w, args.order)
            coeffs = [rat_str(c) for c in series.coeffs]
        else:
            coeffs = "atypical"
        rows.append({"weight": str(w), "typical": typical, "coefficients": coeffs})
    _emit_rows(rows, ["weight", "typical", "coefficients"], args.format, out)
    return 0


def cmd_scan_typical(args, rs: RootSystem, out) -> int:
    others = [p for p in args.fixed.replace(" ", "").split(",") if p] if args.fixed else []
    if len(others) != rs.rank - 1:
        raise UsageError(
            f"--fixed needs the {rs.rank - 1} coordinates other than a_s, got {args.fixed!r}"
        )
    fixed_vals = [_parse_rational(p) for p in others]
    lo, hi, inc = (_parse_rational(x) for x in (args.start, args.stop, args.step))
    if inc <= 0 or hi < lo:
        raise UsageError("need step > 0 and stop >= start")
    if (points := (hi - lo) // inc + 1) > MAX_SCAN_POINTS:  # a_s = lo, lo + inc, ... <= hi
        raise UsageError(f"the grid has {points} points, more than {MAX_SCAN_POINTS}")
    rows = []
    atypical = []
    a_s = lo
    while a_s <= hi:
        coords = list(fixed_vals)
        coords.insert(rs.s, a_s)
        w = Weight(tuple(coords))
        typical = rs.is_typical(w)
        pole = any(v == 0 for v in rs.atypicality_factors(w))
        if not typical:
            atypical.append(a_s)
        rows.append({
            "a_s": rat_str(a_s),
            "typical": typical,
            "mdim": rat_str(rs.mod_sdim(w)) if typical else "atypical",
            "odd_factor_vanishes": pole,
        })
        a_s += inc
    _emit_rows(rows, ["a_s", "typical", "mdim", "odd_factor_vanishes"], args.format, out)
    summary = {
        "atypical_points": [rat_str(x) for x in atypical],
        "all_integers": all(x.denominator == 1 for x in atypical),
        "matches_pole_set": all(
            row["typical"] != row["odd_factor_vanishes"] for row in rows
        ),
    }
    out.write(json.dumps({"record": "summary", **summary}, sort_keys=True) + "\n")
    return 0


def cmd_verify(args, out) -> int:
    from .report import render_lines, to_json_lines
    from .suites import run_verification

    rs = _build_system(*parse_algebra_spec(args.algebra))  # sl11, sl10 or osp20 is a usage error
    if not 2 <= args.max_degree <= MAX_DEGREE:
        raise UsageError(
            f"--max-degree must be between 2 and {MAX_DEGREE}, got {args.max_degree}"
        )
    if (rs.family, rs.m, rs.n) != ("sl", 2, 1) and args.suite in ("trace", "tensors", "all"):
        raise UsageError(
            "the trace and tensors suites run on the sl(2|1) roster; use --algebra sl21"
        )
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    report = run_verification(
        [args.suite], algebra=args.algebra, max_degree=args.max_degree,
        cache_dir=cache_dir, seed=args.seed,
    )
    if args.format == "json":
        out.write(to_json_lines(report) + "\n")
    else:
        for line in render_lines(report["checks"]):
            out.write(line + "\n")
        out.write(f"{report['total']} checks, {report['failed']} failed\n")
    if args.report:
        try:
            with open(args.report, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
        except OSError as exc:
            raise UsageError(f"cannot write --report {args.report!r}: {exc.strerror}") from exc
    return 0 if report["pass"] else 1


def _add_algebra_positionals(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=["sl", "osp2"], help="algebra family")
    p.add_argument("dims", type=int, nargs="+", help="sl: m n;  osp2: n (for osp(2|2n))")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supertrace",
        description="Exact modified superdimensions, supertraces and invariant-tensor forms "
        "for Lie superalgebras of type I.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("root-data", help="print Cartan data, positive roots and rho vectors")
    _add_algebra_positionals(p)
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("mdim", help="modified superdimension table")
    _add_algebra_positionals(p)
    p.add_argument("--weight", action="append", required=True,
                   help="comma-separated a_i coordinates; repeatable")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("qdim", help="deformed dimension series table")
    _add_algebra_positionals(p)
    p.add_argument("--weight", action="append", required=True)
    p.add_argument("--order", type=int, default=8, help="series truncation order")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("scan-typical", help="scan a_s over a grid, marking atypical points")
    _add_algebra_positionals(p)
    p.add_argument("--fixed", default="", help="comma-separated values of the a_i with i != s")
    p.add_argument("--start", required=True, help="first a_s value (rational)")
    p.add_argument("--stop", required=True, help="last a_s value (rational)")
    p.add_argument("--step", default="1", help="grid step (positive rational)")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("verify", help="run the exact verification suites")
    p.add_argument("--suite", choices=["superlin", "trace", "tensors", "all"], default="all")
    p.add_argument("--algebra", default="sl21", help="compact spec, e.g. sl21")
    p.add_argument("--max-degree", type=int, default=3, help="tensor degree cap")
    p.add_argument("--cache-dir", default=None,
                   help=f"module cache directory (default ${CACHE_ENV})")
    p.add_argument("--report", default=None, help="write the JSON report to this path")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--format", choices=["table", "json"], default="table")
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args, out)
        # The parser accepts only the commands it declares.
        command = {"root-data": cmd_root_data, "mdim": cmd_mdim, "qdim": cmd_qdim,
                   "scan-typical": cmd_scan_typical}[args.command]
        return command(args, _build_system(args.family, args.dims), out)
    except (UsageError, AtypicalWeightError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
