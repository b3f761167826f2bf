"""Command line behavior: exit codes, config merging, report determinism."""

import json
import math

import numpy as np
import pytest

from qwnlab.cli import main
from qwnlab.suites import SUITE_IDS, VERIFY_SUITES, RunConfig, run_suite, suite_rng


def run_cli(argv):
    return main(argv)


def test_verify_nogo_writes_canonical_report(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "nogo", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["failed"] == 0
    assert payload["config"]["suite"] == "nogo"
    assert "output" not in payload["config"]
    assert "wall_clock" not in json.dumps(payload)
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)


def test_reports_are_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert run_cli(["verify", "diagonal", "--seed", "7", "--output", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()
    third = tmp_path / "c.json"
    assert run_cli(["verify", "diagonal", "--seed", "8", "--output", str(third)]) == 0
    assert first.read_bytes() != third.read_bytes()


def test_unreachable_tolerance_fails_the_suite(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "free", "--tolerance", "1e-30", "--output", str(out)]
    )
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["summary"]["failed"] > 0


def _refuse_to_run(monkeypatch):
    import qwnlab.cli

    def no_run(config):
        raise AssertionError("a suite ran for a rejected configuration")

    monkeypatch.setattr(qwnlab.cli, "run_suite", no_run)


def _exits_two_with_one_error_line(capsys, argv):
    capsys.readouterr()
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_inputs_exit_two(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "nonsense"])
    assert err.value.code == 2
    assert run_cli(["verify", "bosonic", "--dim", "9"]) == 2
    assert "error:" in capsys.readouterr().err
    config = tmp_path / "bad.json"
    config.write_text('{"mystery": 1}')
    assert run_cli(["verify", "nogo", "--config", str(config)]) == 2
    config.write_text("[1, 2]")
    assert run_cli(["verify", "nogo", "--config", str(config)]) == 2
    assert run_cli(["verify", "nogo", "--config", str(tmp_path / "absent.json")]) == 2
    _refuse_to_run(monkeypatch)
    for flags in (
        ["--tolerance", "nan"],
        ["--tolerance", "inf"],
        ["--gamma0", "nan"],
        ["--seed", "-1"],
    ):
        _exits_two_with_one_error_line(capsys, ["verify", "nogo", *flags])
    for text in (
        '{"dim": "abc"}',
        '{"dim": 2.7, "trials": true}',
        '{"trials": true}',
        '{"gamma0": true}',
        '{"seed": [1]}',
        '{"tolerance": 1e400}',
    ):
        config.write_text(text)
        _exits_two_with_one_error_line(
            capsys, ["verify", "nogo", "--config", str(config)]
        )


def test_unwritable_output_exits_two_before_running(tmp_path, capsys, monkeypatch):
    _refuse_to_run(monkeypatch)
    missing = str(tmp_path / "absent" / "x.json")
    _exits_two_with_one_error_line(capsys, ["verify", "nogo", "--output", missing])
    assert run_cli(["verify", "nogo", "--output", str(tmp_path)]) == 2
    assert run_cli(["combinatorics", "selftest", "--output", missing]) == 2


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"q": 0.25, "seed": 5, "trials": 10}))
    out = tmp_path / "report.json"
    code = run_cli(
        [
            "verify",
            "qdeform",
            "--config",
            str(config),
            "--q",
            "0.75",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    echo = json.loads(out.read_text())["config"]
    assert echo["q"] == 0.75
    assert echo["seed"] == 5
    assert echo["trials"] == 10


def test_seed_environment_fallback(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    monkeypatch.setenv("QWN_SEED", "99")
    assert run_cli(["verify", "nogo", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 99
    monkeypatch.setenv("QWN_SEED", "banana")
    assert run_cli(["verify", "nogo", "--output", str(out)]) == 2
    monkeypatch.delenv("QWN_SEED")
    assert run_cli(["verify", "nogo", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 2026
    monkeypatch.setenv("QWN_SEED", "7")
    assert run_cli(["combinatorics", "selftest", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 7
    _refuse_to_run(monkeypatch)
    for seed in ("-1", "abc"):
        monkeypatch.setenv("QWN_SEED", seed)
        for argv in (["verify", "nogo"], ["combinatorics", "selftest"]):
            _exits_two_with_one_error_line(capsys, argv)


def test_rewrite_subcommand_payload(tmp_path):
    word = json.dumps(
        [
            {"kind": "b", "symbol": "one"},
            {"kind": "b*", "symbol": "one"},
        ]
    )
    out = tmp_path / "rewrite.json"
    assert run_cli(["rewrite", "--word", word, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["input_length"] == 2
    assert payload["steps"] == 1
    assert payload["vacuum_moment"] == [2.0, 0]
    assert payload["table"] == {"gamma0": 1.0, "number_shift": 2.0}
    assert [len(t["word"]) for t in payload["terms"]] == [0, 1, 2]
    scalar, number, swapped = payload["terms"]
    assert scalar["coefficient"] == [2.0, 0]
    assert number["coefficient"] == [4.0, 0]
    assert number["word"][0]["kind"] == "n"
    assert swapped["coefficient"] == [1.0, 0]
    assert [w["kind"] for w in swapped["word"]] == ["b*", "b"]

    assert run_cli(["rewrite", "--word", word, "--measured", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["table"]["number_shift"] == 1.0


def test_rewrite_subcommand_rejects_bad_words(capsys):
    assert run_cli(["rewrite", "--word", "not json"]) == 2
    assert run_cli(["rewrite", "--word", "[]"]) == 2
    assert run_cli(["rewrite", "--word", '[{"kind": "b"}]']) == 2
    assert run_cli(["rewrite", "--word", '[{"kind": "z", "symbol": "one"}]']) == 2
    assert run_cli(["rewrite", "--word", '[{"kind": "b", "symbol": "e9"}]']) == 2
    bad_pair = json.dumps(
        [{"kind": "a", "symbol": "one"}, {"kind": "n", "symbol": "one"}]
    )
    assert run_cli(["rewrite", "--word", bad_pair]) == 2
    assert "no relation for the pair (a, n)" in capsys.readouterr().err
    word = json.dumps([{"kind": "b", "symbol": "one"}])
    assert run_cli(["rewrite", "--word", word, "--dim", "5"]) == 2
    for gamma0 in ("-1", "nan", "inf"):
        assert run_cli(["rewrite", "--word", word, "--gamma0", gamma0]) == 2


def test_combinatorics_selftest(tmp_path):
    out = tmp_path / "comb.json"
    assert run_cli(["combinatorics", "selftest", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["suite"] == "combinatorics"
    assert payload["summary"]["failed"] == 0


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(suite="mystery")
    with pytest.raises(ValueError):
        RunConfig(kind="quaternions")
    with pytest.raises(ValueError):
        RunConfig(dim=4)
    with pytest.raises(ValueError):
        RunConfig(truncation=0)
    with pytest.raises(ValueError):
        RunConfig(gamma0=0.0)
    with pytest.raises(ValueError):
        RunConfig(q=1.5)
    with pytest.raises(ValueError):
        RunConfig(l=-1.0)
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(tolerance=0.0)
    for bad in ({"tolerance": math.nan}, {"gamma0": math.inf}, {"seed": -1}):
        with pytest.raises(ValueError):
            RunConfig(**bad)


def test_suite_rng_streams_are_independent_and_reproducible():
    config = RunConfig(seed=4)
    a = suite_rng(config, "bosonic").standard_normal(4)
    b = suite_rng(config, "bosonic").standard_normal(4)
    c = suite_rng(config, "free").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_suite_all_covers_the_verify_suites():
    config = RunConfig(suite="all", trials=2, truncation=3)
    report = run_suite(config)
    prefixes = {record.name.split(".")[0] for record in report.checks}
    assert prefixes == set(VERIFY_SUITES)
    assert report.summary["failed"] == 0
    assert "combinatorics" not in prefixes
    assert set(SUITE_IDS) == set(VERIFY_SUITES) | {"combinatorics"}
