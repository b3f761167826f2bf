"""Record construction, canonical serialization, exit codes."""

import json
import math
import random

import numpy as np
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
    bad = residual_record("x", "loc", 1.0000001e-10, 1e-10, notes="n")
    assert bad.status == "fail"
    assert (bad.residual, bad.notes) == (1.0000001e-10, "n")


def test_reported_record_never_pass_or_fail():
    rec = reported_record("x", "loc", measured=3.5, expected=2, residual=0.5)
    assert rec.status == "reported"
    assert rec.tolerance is None
    assert (rec.measured, rec.expected, rec.residual, rec.notes) == (3.5, 2.0, 0.5, "")


def test_nonfinite_residual_fails_without_breaking_the_report():
    for value, name in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        rec = residual_record("x", "loc", value, 1e-9, notes="trial 3")
        assert rec.status == "fail"
        assert rec.residual is None
        assert rec.notes == "trial 3; non-finite residual " + name
        report = VerificationReport(config={})
        report.extend([rec])
        assert '"residual":null' in report.to_canonical_json()
    assert residual_record("x", "loc", math.nan, 1e-9).notes == (
        "non-finite residual nan"
    )


def test_nonfinite_reported_values_become_null_with_notes():
    rec = reported_record(
        "x", "loc", measured=math.inf, expected=2.0, residual=math.nan, notes="n"
    )
    assert rec.status == "reported"
    assert (rec.measured, rec.expected, rec.residual) == (None, 2.0, None)
    assert rec.notes == "n; non-finite measured inf; non-finite residual nan"
    rec = reported_record("x", "loc", measured=1.5, expected=-math.inf)
    assert rec.expected is None
    assert rec.notes == "non-finite expected -inf"
    report = VerificationReport(config={})
    report.extend([rec])
    report.to_canonical_json()


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


def test_canonical_floats_are_shortest_17_significant_digits():
    # The float format is contract: format(x, ".17g").  A whole float gets
    # no decimal point, so 1.0 is written 1 and parses back as an int.
    cases = [
        (1.0, "1"),
        (0.0, "0"),
        (-0.0, "-0"),
        (0.1, "0.10000000000000001"),
        (1e-300, "1e-300"),
        (2.220446049250313e-16, "2.2204460492503131e-16"),
        (1e16, "10000000000000000"),
        (1e17, "1e+17"),
    ]
    for value, text in cases:
        assert canonical_json(value) == text
        assert canonical_json(np.float64(value)) == text
        assert json.loads(text) == value
    assert type(json.loads(canonical_json(1.0))) is int


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


_ALPHABET = 'ab "\\/\n\t\x00\x7fé ☃\U0001f600'


def _random_string(rnd):
    return "".join(rnd.choice(_ALPHABET) for _ in range(rnd.randrange(6)))


def _random_json_value(rnd, depth):
    """A random nested value of dicts, lists, strings and finite floats."""
    choice = rnd.randrange(5 if depth else 3)
    if choice == 0:
        exponent = rnd.choice((-300, -20, -1, 0, 3, 15, 300))
        return rnd.uniform(-1.0, 1.0) * 10.0**exponent
    if choice == 1:
        return rnd.choice((0.0, -0.0, 1.0, 0.1, 5e-324, 1.7976931348623157e308))
    if choice == 2:
        return _random_string(rnd)
    if choice == 3:
        return [_random_json_value(rnd, depth - 1) for _ in range(rnd.randrange(4))]
    return {
        _random_string(rnd): _random_json_value(rnd, depth - 1)
        for _ in range(rnd.randrange(4))
    }


def test_canonical_json_round_trips_random_values():
    rnd = random.Random(2026)
    for _ in range(500):
        value = _random_json_value(rnd, depth=3)
        text = canonical_json(value)
        assert json.loads(text) == value, text
