"""Structured results for the verification suites."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import rat_str


@dataclass
class CheckResult:
    """One verified equality: what was compared, on which inputs, and whether it held."""

    check_id: str
    passed: bool
    expected: str
    actual: str
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "pass": self.passed,
            "expected": self.expected,
            "actual": self.actual,
            "inputs": self.inputs,
        }


def render(value) -> str:
    """Canonical text of a value: rationals as 'p' or 'p/q', tuples elementwise."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(render(v) for v in value) + ")"
    return str(value)


def check(check_id: str, expected, actual, **inputs) -> CheckResult:
    """Record an exact comparison; expected/actual are rendered canonically."""
    return CheckResult(
        check_id, expected == actual, render(expected), render(actual),
        {k: render(v) for k, v in inputs.items()},
    )


def check_true(check_id: str, condition: bool, detail: str = "", **inputs) -> CheckResult:
    return CheckResult(
        check_id, bool(condition), "true", detail or str(bool(condition)),
        {k: render(v) for k, v in inputs.items()},
    )


def info(check_id: str, detail: str, **inputs) -> CheckResult:
    """A recorded observation that carries data but cannot fail."""
    return CheckResult(check_id, True, "(recorded)", detail, {k: render(v) for k, v in inputs.items()})


def report_dict(
    suite: str, algebra: str, results: list[CheckResult], timings: dict, run: dict
) -> dict:
    """The report; ``timings`` maps a phase to its wall seconds (rounded to 1 ms).

    ``run`` records how the report was made (see ``suites.run_verification``).
    """
    failed = [r.check_id for r in results if not r.passed]
    return {
        "suite": suite,
        "algebra": algebra,
        "checks": [r.to_dict() for r in results],
        "total": len(results),
        "failed": len(failed),
        "failed_checks": failed,
        "pass": not failed,
        "timings": {k: round(v, 3) for k, v in timings.items()},
        "run": run,
    }


def render_lines(checks: list[dict]) -> list[str]:
    """One line per row of a report's ``checks`` (``CheckResult.to_dict``)."""
    return [f"[{'PASS' if c['pass'] else 'FAIL'}] {c['check']}: "
            f"expected {c['expected']}, got {c['actual']}" for c in checks]


def to_json_lines(report: dict) -> str:
    header = {k: v for k, v in report.items() if k != "checks"}
    lines = [json.dumps({"record": "report", **header}, sort_keys=True)]
    for c in report["checks"]:
        lines.append(json.dumps({"record": "check", **c}, sort_keys=True))
    return "\n".join(lines)
