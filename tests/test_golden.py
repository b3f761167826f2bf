"""Golden canonical reports: `verify all` output must not change by a byte.

Each golden file under ``tests/golden/`` is the report of one `verify all`
configuration.  The bytes depend on the BLAS thread count (a threaded
reduction sums in another order), so each run is a fresh interpreter with
``OPENBLAS_NUM_THREADS=1``: the pytest process may already have started
OpenBLAS with more threads.  A change that moves a record must say which
records change and why, and regenerate the file with the command below.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m qwnlab.cli \
        verify all <args> > tests/golden/<name>.json
"""

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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_report_is_byte_identical(name):
    expected = (GOLDEN / (name + ".json")).read_bytes()
    assert _report_bytes(CONFIGS[name]) == expected
