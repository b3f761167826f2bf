"""Record construction, canonical serialization, exit codes."""

import math

import pytest

from qwnlab.report import (
    CheckRecord,
    VerificationReport,
    canonical_json,
    emit_report,
    reported_record,
    residual_record,
)


def test_residual_record_boundary():
    ok = residual_record("x", "loc", 1e-10, 1e-10)
    assert ok.status == "pass"
    bad = residual_record("x", "loc", 1.0000001e-10, 1e-10)
    assert bad.status == "fail"


def test_reported_record_never_pass_or_fail():
    rec = reported_record("x", "loc", measured=3.5, expected=2.0)
    assert rec.status == "reported"
    assert rec.tolerance is None


def test_record_validation():
    with pytest.raises(ValueError):
        CheckRecord(name="", claim="loc")
    with pytest.raises(ValueError):
        CheckRecord(name="x", claim="")
    with pytest.raises(ValueError):
        CheckRecord(name="x", claim="loc", status="maybe")


def test_canonical_json_is_sorted_and_stable():
    text = canonical_json({"b": 1, "a": [1.5, None, True]})
    assert text == '{"a":[1.5,null,true],"b":1}'
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json(0.0) == "0"


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonical_json(math.inf)
    with pytest.raises(ValueError):
        canonical_json(math.nan)
    with pytest.raises(TypeError):
        canonical_json({1: "nonstring key"})


def test_report_sorts_and_excludes_wall_clock():
    report = VerificationReport(config={"seed": 1})
    report.extend(
        [
            residual_record("z.second", "loc", 0.0, 1.0),
            residual_record("a.first", "loc", 2.0, 1.0),
        ]
    )
    report.wall_clock_seconds = 123.0
    report.finalize()
    assert [r.name for r in report.checks] == ["a.first", "z.second"]
    assert "123" not in report.to_canonical_json()
    assert "wall" not in report.to_canonical_json()
    assert report.summary == {
        "checks": 2,
        "passed": 1,
        "failed": 1,
        "reported": 0,
    }
    assert report.exit_code == 1


def test_emit_report_writes_file_and_stdout(tmp_path, capsys):
    report = VerificationReport(config={})
    report.extend([residual_record("a", "loc", 0.0, 1.0)])
    path = tmp_path / "out.json"
    text = emit_report(report, str(path))
    assert path.read_text() == text
    assert text.endswith("\n")
    emit_report(report, "-")
    assert capsys.readouterr().out == text
