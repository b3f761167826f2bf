"""Check records, verification reports and canonical JSON emission.

A report is a pure function of (configuration, seed): the canonical JSON
serialization sorts every object key, prints floats with 17 significant
digits and excludes wall-clock timing, so identical runs yield identical
bytes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_REPORTED = "reported"

_STATUSES = (STATUS_PASS, STATUS_FAIL, STATUS_REPORTED)


@dataclass(frozen=True)
class CheckRecord:
    """One verified (or measured) quantity inside a report.

    ``status`` is "pass"/"fail" for asserted checks and "reported" for
    quantities that are measured and published without being asserted.
    """

    name: str
    claim: str
    measured: float | None = None
    expected: float | None = None
    residual: float | None = None
    tolerance: float | None = None
    status: str = STATUS_PASS
    notes: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("check record needs a name")
        if not self.claim:
            raise ValueError("check record needs a nonempty claim")
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


def residual_record(name, claim, residual, tolerance, notes=""):
    """Pass/fail record for a residual measured against a tolerance."""
    residual = float(residual)
    status = STATUS_PASS if residual <= tolerance else STATUS_FAIL
    return CheckRecord(
        name=name,
        claim=claim,
        residual=residual,
        tolerance=float(tolerance),
        status=status,
        notes=notes,
    )


def reported_record(name, claim, measured, expected=None, residual=None, notes=""):
    """Record for a measured-but-unasserted quantity."""
    return CheckRecord(
        name=name,
        claim=claim,
        measured=None if measured is None else float(measured),
        expected=None if expected is None else float(expected),
        residual=None if residual is None else float(residual),
        status=STATUS_REPORTED,
        notes=notes,
    )


@dataclass
class VerificationReport:
    """Configuration echo plus an ordered list of check records."""

    config: dict
    checks: list[CheckRecord] = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    def extend(self, records):
        self.checks.extend(records)

    def finalize(self):
        """Sort records by name so assembly order never leaks into output."""
        self.checks.sort(key=lambda r: r.name)
        return self

    @property
    def summary(self):
        counts = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_REPORTED: 0}
        for rec in self.checks:
            counts[rec.status] += 1
        return {
            "checks": len(self.checks),
            "passed": counts[STATUS_PASS],
            "failed": counts[STATUS_FAIL],
            "reported": counts[STATUS_REPORTED],
        }

    @property
    def exit_code(self):
        return 1 if self.summary["failed"] else 0

    def to_dict(self):
        """Canonical content: excludes wall-clock timing by design."""
        return {
            "config": self.config,
            "checks": [
                {
                    "name": r.name,
                    "claim": r.claim,
                    "measured": r.measured,
                    "expected": r.expected,
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                    "status": r.status,
                    "notes": r.notes,
                }
                for r in self.checks
            ],
            "summary": self.summary,
        }

    def to_canonical_json(self):
        return canonical_json(self.to_dict())


def _canonical_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in canonical report")
    return format(float(x), ".17g")


def _write_canonical(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_canonical_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("canonical JSON object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    out = []
    _write_canonical(obj, out)
    return "".join(out)


def emit_report(report: VerificationReport, output: str) -> str:
    """Write the canonical JSON to ``output`` ('-' means stdout)."""
    text = report.to_canonical_json() + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
