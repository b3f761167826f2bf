"""Golden canonical reports: `verify all` output must not change by a byte.

Each golden file under ``tests/golden/`` is the report of one `verify all`
configuration.  The bytes depend on the BLAS thread count (a threaded
reduction sums in another order), so each run is a fresh interpreter with
``OPENBLAS_NUM_THREADS=1``: the pytest process may already have started
OpenBLAS with more threads.  A change that moves a record must say which
records change and why, and regenerate the file with the command below.
A failure lists each moved (record, field, old, new), so those are the
fields to name.

    env -u QWN_SEED OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m qwnlab.cli \
        verify all <args> > tests/golden/<name>.json
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

CONFIGS = {
    "verify_all_default": ["--trials", "3"],
    "verify_all_matrices": ["--kind", "matrices", "--trials", "3"],
    # Non-dyadic parameters: the free relations and the mixed bosonic
    # commutator leave rounding-level residuals, so reordered products show.
    "verify_all_nondyadic": [
        "--gamma0", "0.7", "--gamma", "0.7", "--q", "-0.3", "--trials", "3"
    ],
    "verify_all_q1": ["--q", "1", "--truncation", "3", "--trials", "3"],
}


def _report_bytes(args):
    env = {k: v for k, v in os.environ.items() if k != "QWN_SEED"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    paths = [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    result = subprocess.run(
        [sys.executable, "-m", "qwnlab.cli", "verify", "all", *args],
        env=env,
        capture_output=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def _moved_fields(expected, actual):
    """One line per (record, field, old, new) that differs between two
    reports, records keyed by name and the config and summary by their
    section; a report that does not parse is one line."""
    try:
        old, new = json.loads(expected), json.loads(actual)
    except ValueError as error:
        return ["report does not parse: %s" % error]
    sections = [("config", old["config"], new["config"])]
    sections.append(("summary", old["summary"], new["summary"]))
    records = {r["name"]: r for r in old["checks"]}
    for record in new["checks"]:
        sections.append((record["name"], records.pop(record["name"], {}), record))
    sections += [(name, record, {}) for name, record in records.items()]
    lines = []
    for section, before, after in sections:
        for field in sorted(set(before) | set(after)):
            pair = before.get(field, "<absent>"), after.get(field, "<absent>")
            if pair[0] != pair[1]:
                lines.append("%s  %s: %r -> %r" % (section, field, *pair))
    return lines or ["same records and fields, other bytes"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_report_is_byte_identical(name):
    expected = (GOLDEN / (name + ".json")).read_bytes()
    actual = _report_bytes(CONFIGS[name])
    if actual != expected:
        moved = "\n".join(_moved_fields(expected, actual))
        pytest.fail("%s moved (record, field: old -> new):\n%s" % (name, moved))


def test_a_mismatch_names_each_moved_field():
    expected = (GOLDEN / "verify_all_q1.json").read_bytes()
    report = json.loads(expected)
    first, last = report["checks"][0], report["checks"][-1]
    moved = [
        "%s  residual: %r -> 1.0" % (first["name"], first["residual"]),
        "%s  status: %r -> 'fail'" % (last["name"], last["status"]),
    ]
    first["residual"], last["status"] = 1.0, "fail"
    assert _moved_fields(expected, json.dumps(report).encode()) == moved
    assert _moved_fields(expected, expected + b"\n") == [
        "same records and fields, other bytes"
    ]
