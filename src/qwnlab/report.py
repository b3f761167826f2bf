"""Check records, verification reports and canonical JSON emission.

A report is a pure function of (configuration, seed): the canonical JSON
serialization sorts every object key, prints floats with 17 significant
digits and excludes wall-clock timing, so identical runs yield identical
bytes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field

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


def _finite(name, value, notes):
    """``value`` as a float, and the notes.

    The canonical report holds finite floats only, so a non-finite value
    becomes None and is named in the notes instead.
    """
    if value is None:
        return None, notes
    value = float(value)
    if math.isfinite(value):
        return value, notes
    return None, "%s%snon-finite %s %r" % (notes, "; " if notes else "", name, value)


def residual_record(name, claim, residual, tolerance, notes=""):
    """Pass/fail record for a residual measured against a tolerance.

    A non-finite residual fails, and is stored as None with a note.
    """
    residual = float(residual)
    passed = math.isfinite(residual) and residual <= tolerance
    residual, notes = _finite("residual", residual, notes)
    return CheckRecord(
        name=name,
        claim=claim,
        residual=residual,
        tolerance=float(tolerance),
        status=STATUS_PASS if passed else STATUS_FAIL,
        notes=notes,
    )


def reported_record(name, claim, measured, expected=None, residual=None, notes=""):
    """Record for a measured-but-unasserted quantity.

    Non-finite values are stored as None, each with a note.
    """
    measured, notes = _finite("measured", measured, notes)
    expected, notes = _finite("expected", expected, notes)
    residual, notes = _finite("residual", residual, notes)
    return CheckRecord(
        name=name,
        claim=claim,
        measured=measured,
        expected=expected,
        residual=residual,
        status=STATUS_REPORTED,
        notes=notes,
    )


@dataclass
class VerificationReport:
    """Configuration echo plus an ordered list of check records."""

    config: dict
    checks: list[CheckRecord] = field(default_factory=list)

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
        return dict(asdict(self), summary=self.summary)

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


def write_output(text: str, output: str) -> None:
    """Write ``text`` to ``output`` ('-' means stdout)."""
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def emit_report(report: VerificationReport, output: str) -> str:
    """Write the canonical JSON to ``output`` ('-' means stdout)."""
    text = report.to_canonical_json() + "\n"
    write_output(text, output)
    return text
