"""Command line behavior: exit codes, config merging, report determinism."""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import random
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from qwnlab.cli import UsageError, _check_output, _load_config, main
from qwnlab.suites import (
    MAX_DENSE_BYTES,
    MAX_TRIALS,
    MIN_TRUNCATION,
    SUITE_IDS,
    VERIFY_SUITES,
    RunConfig,
    largest_dense_bytes,
    run_suite,
    suite_rng,
)


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
    for argv in (
        ["verify", "bosonic", "--gamma0", "1e308"],
        ["verify", "free", "--gamma", "1e308"],
    ):
        _exits_two_with_one_error_line(capsys, argv)
    for text in (
        '{"dim": "abc"}',
        '{"dim": 2.7, "trials": true}',
        '{"trials": true}',
        '{"gamma0": true}',
        '{"seed": [1]}',
        '{"tolerance": 1e400}',
        '{"output": 5}',
        '{"output": null}',
        '{"output": ["a"]}',
        '{"output": true}',
    ):
        config.write_text(text)
        _exits_two_with_one_error_line(
            capsys, ["verify", "nogo", "--config", str(config)]
        )


def test_cell_measure_outside_the_gamma_range_exits_two(capsys, monkeypatch):
    # the no-go certificate squares l and 1 / l, which overflows a double
    # from about 1.4e154
    for l in ("1e155", "1e-155"):
        with pytest.raises(ValueError, match="cell measure"):
            RunConfig(l=float(l))
    _refuse_to_run(monkeypatch)
    for suite in ("nogo", "all"):
        for l in ("1e155", "1e-155"):
            _exits_two_with_one_error_line(capsys, ["verify", suite, "--l", l])


@pytest.mark.parametrize("l", ["1e-30", "1e30"])
def test_cell_measure_at_the_ends_of_its_range_passes_nogo(tmp_path, l):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "nogo", "--l", l, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["failed"] == 0


def _random_json(rng, keys, depth=0):
    """A random JSON value: strings, bools, null, nested containers,
    negative, huge and non-finite numbers."""
    pick = rng.random()
    if depth < 2 and pick < 0.1:
        return [_random_json(rng, keys, depth + 1) for _ in range(2)]
    if depth < 2 and pick < 0.2:
        return {rng.choice(keys): _random_json(rng, keys, depth + 1)}
    return rng.choice(
        [
            "",
            "functions",
            "nan",
            "2",
            True,
            False,
            None,
            0,
            1,
            2,
            0.5,
            -rng.randrange(1, 10**6),
            -rng.uniform(0.0, 1e3),
            10**400,
            math.nan,
            math.inf,
        ]
        + sorted(SUITE_IDS)
    )


def test_random_config_files_give_a_config_or_a_usage_error(tmp_path, monkeypatch):
    """500 random JSON objects through the config loader and the output
    check: each is a RunConfig with an openable report path, or a
    UsageError; no suite runs.  Half the values are well typed for their
    key, so the later checks are reached too."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QWN_SEED", raising=False)
    rng = random.Random(20260)
    defaults = {f.name: f.default for f in fields(RunConfig)}
    keys = sorted(defaults) + ["mystery", "Seed", ""]
    outputs = [
        "-",
        "",
        "report.json",
        "absent/report.json",
        str(tmp_path),
        "nul\u0000byte.json",
    ]
    path = tmp_path / "config.json"
    accepted = 0
    for _ in range(500):
        obj = {}
        for key in rng.sample(keys, rng.randrange(4)):
            if rng.random() < 0.5:
                obj[key] = _random_json(rng, keys)
            elif key == "output":
                obj[key] = rng.choice(outputs)
            else:
                obj[key] = defaults.get(key, 1)
        path.write_text(json.dumps(obj))
        # the Python API takes the same values and validates them alike
        api = {key: value for key, value in obj.items() if key in defaults}
        try:
            direct = RunConfig(**api)
        except (ValueError, TypeError):
            direct = None
        else:
            assert isinstance(direct, RunConfig)
        try:
            config = _load_config(argparse.Namespace(config=str(path)))
        except UsageError:
            assert direct is None or api != obj, obj
            continue
        assert config == direct, obj
        try:
            _check_output(config.output)
        except UsageError:
            continue
        assert isinstance(config, RunConfig)
        if config.output != "-":
            open(config.output, "a").close()
        accepted += 1
    assert 0 < accepted < 500


class _Accepted(Exception):
    """Raised in place of running a suite, carrying the accepted config."""


def test_random_verify_flags_give_a_config_or_a_usage_error(
    tmp_path, capsys, monkeypatch
):
    """500 random `verify` argument lists through the parser, the config
    loader and the output check: each reaches the suite runner with a
    RunConfig, or exits 2 with one `error:` line and no traceback.  No
    suite runs.  Every flag draws good and bad values, some flags lose
    their value, and unknown or ambiguous flags are mixed in."""
    import qwnlab.cli

    def accept(config):
        raise _Accepted(config)

    monkeypatch.setattr(qwnlab.cli, "run_suite", accept)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QWN_SEED", raising=False)
    # one flag per RunConfig field but the positional suite, in field order
    with pytest.raises(SystemExit):
        run_cli(["verify", "--help"])
    listed = re.findall(r"^  (--\w+)", capsys.readouterr().out, re.M)
    assert listed == ["--config"] + [
        "--" + f.name for f in fields(RunConfig) if f.name != "suite"
    ]
    (tmp_path / "good.json").write_text(json.dumps({"trials": 3, "q": 0.25}))
    (tmp_path / "bad.json").write_text('{"truncation": 9}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "broken.json").write_text("{")
    ints = ["1", "2", "3", "4", "6", "25", "0", "-3", "7", "x", "1.5", "", "1e3"]
    floats = ["0.5", "1", "-0.3", "1e-3", "1e30", "0", "-1", "2", "1e31"]
    floats += ["nan", "inf", "-inf", "abc", "", "1e400", "0x1p-2"]
    values = {
        "--config": [
            "good.json",
            "bad.json",
            "list.json",
            "broken.json",
            "absent.json",
        ],
        "--kind": ["functions", "matrices", "tensor", "", "Functions"],
        "--output": [
            "-",
            "report.json",
            "absent/report.json",
            str(tmp_path),
            "",
            "report.json/",
            "nul\u0000byte.json",
            "new\nline/report.json",
        ],
        **{flag: ints + [str(10**400)] for flag in ("--dim", "--truncation", "--seed")},
        "--trials": ints + [str(10**400), str(MAX_TRIALS), str(MAX_TRIALS + 1)],
        **{
            flag: floats
            for flag in ("--gamma0", "--gamma", "--q", "--s", "--l", "--tolerance")
        },
    }
    unknown = ["--mystery", "--Seed", "-x", "--gamma00", "--tr", "--gam", "--"]
    suites = sorted(SUITE_IDS) + ["all", "nonsense", "", "ALL"]
    rng = random.Random(20261)
    accepted = 0
    for _ in range(500):
        argv = ["verify", rng.choice(suites)]
        for flag in rng.sample(sorted(values), rng.randrange(5)):
            argv.append(flag)
            if rng.random() < 0.95:
                argv.append(rng.choice(values[flag]))
        if rng.random() < 0.15:
            argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(unknown))
        capsys.readouterr()
        try:
            code = run_cli(argv)
        except _Accepted as done:
            assert isinstance(done.args[0], RunConfig), argv
            accepted += 1
            continue
        except SystemExit as exc:
            # argparse: usage lines, then one "prog: error: ..." line
            code = exc.code
            err = capsys.readouterr().err
            assert sum("error:" in line for line in err.splitlines()) == 1, argv
        else:
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        assert code == 2, argv
        assert "Traceback" not in err, argv
    assert 0 < accepted < 500


def test_unwritable_output_exits_two_before_running(tmp_path, capsys, monkeypatch):
    _refuse_to_run(monkeypatch)
    missing = str(tmp_path / "absent" / "x.json")
    _exits_two_with_one_error_line(capsys, ["verify", "nogo", "--output", missing])
    assert run_cli(["verify", "nogo", "--output", str(tmp_path)]) == 2
    assert run_cli(["combinatorics", "selftest", "--output", missing]) == 2
    for name in ("", "report.json/", "report.json/."):
        _exits_two_with_one_error_line(capsys, ["verify", "nogo", "--output", name])


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


# The first 16 hex digits of the sha256 of the rewrite payload bytes, per
# word (letters "kind:symbol") and flags.  The measured payloads are those
# of the shift-1 rules (``MeasuredEngine`` in test_rewrite.py), which the
# map from the table at 2 gamma0 reproduces byte for byte.
REWRITE_PAYLOAD_SHA256 = {
    ("b:one b*:one", ""): "b53e0c6197f6f664",
    ("b:one b*:one", "--measured"): "b2cdfc823a0db32f",
    ("b:one b*:one", "--gamma0 0.3 --measured"): "502f3ddbdcd0afcc",
    ("b:e0 n:one b*:e1", ""): "5ccd59d8a190d9d6",
    ("b:e0 n:one b*:e1", "--measured"): "59c92a1a912dd22c",
    ("b:e0 n:one b*:e1", "--gamma0 0.3 --measured"): "9a25d43caf3bef0e",
    ("n:e0 b*:e0", ""): "dfb9948d52cbc12e",
    ("n:e0 b*:e0", "--measured"): "d1fe3d9158893f56",
    ("n:e0 b*:e0", "--gamma0 0.3 --measured"): "e7ca9e5cf4076e81",
    ("b:e0 n:one b:e1 b*:one n:e1 b*:e0", ""): "f65ddff571f96435",
    ("b:e0 n:one b:e1 b*:one n:e1 b*:e0", "--measured"): "ce61b40e378de62a",
    ("b:e0 n:one b:e1 b*:one n:e1 b*:e0", "--gamma0 0.3 --measured"): "e1ca5810a4c6877e",
}


def _rewrite_word(letters):
    return json.dumps(
        [
            {"kind": kind, "symbol": symbol}
            for kind, symbol in (letter.split(":") for letter in letters.split())
        ]
    )


@pytest.mark.parametrize("letters, flags", list(REWRITE_PAYLOAD_SHA256))
def test_rewrite_payload_bytes_are_pinned(tmp_path, letters, flags):
    out = tmp_path / "rewrite.json"
    argv = ["rewrite", "--word", _rewrite_word(letters), "--output", str(out)]
    assert run_cli(argv + flags.split()) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
    assert digest == REWRITE_PAYLOAD_SHA256[letters, flags], out.read_text()


def test_measured_rewrite_takes_quadratic_kinds_only(tmp_path, capsys):
    out = tmp_path / "rewrite.json"
    for letters in ("a:one a*:one", "b:e0 a*:one", "a:e1 n:one b*:e0"):
        argv = ["rewrite", "--word", _rewrite_word(letters), "--measured"]
        _exits_two_with_one_error_line(capsys, argv + ["--output", str(out)])
        assert not out.exists()
    assert run_cli(["rewrite", "--word", _rewrite_word("a:one a*:one")]) == 0


def test_measured_rewrite_overflows_at_half_the_gamma0(tmp_path, capsys):
    # the measured route reads the table at 2 gamma0, whose scalar
    # 2 * (2 gamma0) leaves the floats above gamma0 = 4.49e307; the shift-1
    # rules at gamma0 carry 2 gamma0, finite up to 8.99e307
    out = tmp_path / "rewrite.json"
    word = _rewrite_word("b:one b*:one")
    assert run_cli(["rewrite", "--word", word, "--gamma0", "6e307"]) == 0
    capsys.readouterr()
    for gamma0 in ("6e307", "1e308"):
        argv = ["rewrite", "--word", word, "--measured", "--gamma0", gamma0]
        assert run_cli(argv + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the normal form has a non-finite coefficient")
        assert err.count("\n") == 1
        assert not out.exists()


def test_rewrite_subcommand_rejects_bad_words(tmp_path, capsys):
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
    capsys.readouterr()
    # one letter past the engine's word cap, and unwritable report paths
    too_long = json.dumps([{"kind": "b", "symbol": "one"}] * 15)
    for argv in (
        ["--word", too_long],
        ["--word", word, "--output", str(tmp_path / "missing" / "x.json")],
        ["--word", word, "--output", str(tmp_path)],
    ):
        assert run_cli(["rewrite", *argv]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_rewrite_subcommand_refuses_nonfinite_coefficients(tmp_path, capsys):
    word = json.dumps(
        [
            {"kind": "b", "symbol": "e0"},
            {"kind": "b", "symbol": "e0"},
            {"kind": "b*", "symbol": "one"},
            {"kind": "b*", "symbol": "e1"},
        ]
    )
    out = tmp_path / "rewrite.json"
    assert run_cli(["rewrite", "--word", word, "--gamma0", "1e200"]) == 0
    capsys.readouterr()
    argv = ["rewrite", "--word", word, "--gamma0", "1e308", "--output", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_combinatorics_selftest(tmp_path, capsys):
    out = tmp_path / "comb.json"
    assert run_cli(["combinatorics", "selftest", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["suite"] == "combinatorics"
    assert payload["summary"]["failed"] == 0
    # the same stderr summary line as verify
    summary = payload["summary"]
    assert capsys.readouterr().err == (
        "suite combinatorics: %d checks, %d passed, 0 failed, %d reported\n"
        % (summary["checks"], summary["passed"], summary["reported"])
    )


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


def test_run_config_checks_types_at_construction():
    # the Python API refuses what the CLI refuses, before any suite runs
    for bad, message in (
        ({"dim": 2.5}, "dim must be an integer, got 2.5"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"tolerance": True}, "tolerance must be a finite number, got true"),
        ({"dim": True}, "dim must be an integer, got true"),
        ({"gamma0": 10**400}, "gamma0 must be a finite number, got 1000"),
        ({"kind": 5}, "kind must be a string, got 5"),
        ({"output": None}, "output must be a string, got null"),
    ):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            RunConfig(**bad)
    # whole floats become ints and ints floats, so the echo keeps its bytes
    config = RunConfig(gamma0=1, dim=2.0, seed=7.0)
    assert [type(v) for v in (config.gamma0, config.dim, config.seed)] == [
        float,
        int,
        int,
    ]
    assert repr(asdict(config)) == repr(asdict(RunConfig(gamma0=1.0, dim=2, seed=7)))


def test_benchmark_workloads_construct(monkeypatch):
    # the harness pins OPENBLAS_NUM_THREADS on import; monkeypatch restores it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("_perfbench_run", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    for name in harness.WORKLOADS:
        for options in harness.invocations(name, 5):
            assert isinstance(RunConfig(**options), RunConfig), options


def test_trials_above_the_bound_exit_two(tmp_path, capsys, monkeypatch):
    import qwnlab.cli

    assert RunConfig(trials=MAX_TRIALS).trials == MAX_TRIALS == 100_000
    for trials in (MAX_TRIALS + 1, 10**8):
        with pytest.raises(ValueError, match="trials must be at most 100000"):
            RunConfig(trials=trials)

    def accept(config):
        raise _Accepted(config)

    monkeypatch.setattr(qwnlab.cli, "run_suite", accept)
    with pytest.raises(_Accepted):
        run_cli(["verify", "all", "--trials", str(MAX_TRIALS)])
    _refuse_to_run(monkeypatch)
    for trials in (MAX_TRIALS + 1, 10**8):
        _exits_two_with_one_error_line(
            capsys, ["verify", "all", "--trials", str(trials)]
        )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": MAX_TRIALS + 1}))
    _exits_two_with_one_error_line(capsys, ["verify", "nogo", "--config", str(config)])


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


# Configurations the resource guard must accept: the defaults, the golden
# reports', the benchmark workloads' (perfbench/run.py) and bosonic and
# free over M_2 at truncation 6.
GUARD_ACCEPTS = [
    {},
    {"kind": "matrices"},
    {"q": 1.0, "truncation": 3},
    {"suite": "bosonic", "kind": "matrices", "dim": 2, "truncation": 5},
    {"suite": "bosonic", "kind": "matrices", "dim": 2, "truncation": 4},
    {"suite": "free", "kind": "matrices", "dim": 2, "truncation": 4},
    {"suite": "bosonic", "kind": "matrices", "dim": 2, "truncation": 6},
    {"suite": "free", "kind": "matrices", "dim": 2, "truncation": 6},
    {"suite": "all", "kind": "matrices", "dim": 2, "truncation": 6},
    {"suite": "bosonic", "kind": "matrices", "dim": 3, "truncation": 4},
]
# Configurations it must refuse: over M_3 one top-grade matrix at
# truncation 5 is 55.8 GB, and the free stack at truncation 4 is 6.2 GB.
GUARD_REFUSES = [
    {"suite": suite, "kind": "matrices", "dim": 3, "truncation": t}
    for suite in ("bosonic", "free", "all")
    for t in (5, 6)
] + [
    {"suite": suite, "kind": "matrices", "dim": 3, "truncation": 4}
    for suite in ("free", "all")
]


def _argv(options):
    argv = ["verify", options.get("suite", "all")]
    for key, value in options.items():
        if key != "suite":
            argv += ["--" + key, str(value)]
    return argv


def test_dense_size_model():
    # the free M_2 truncation-6 stack: 4 blocks of 4096^2 complex entries
    assert largest_dense_bytes("free", "matrices", 2, 6) == 4 * 16 * 4096**2
    assert largest_dense_bytes("bosonic", "matrices", 2, 6) == 16 * 4096**2
    assert largest_dense_bytes("all", "functions", 3, 6) == 3 * 16 * 729**2
    assert round(largest_dense_bytes("bosonic", "matrices", 3, 5) / 1e9, 1) == 55.8
    assert round(largest_dense_bytes("free", "matrices", 3, 4) / 1e9, 1) == 6.2
    for suite in ("qdeform", "diagonal", "classical", "nogo", "combinatorics"):
        assert largest_dense_bytes(suite, "matrices", 3, 6) == 0


def test_resource_guard_accepts_the_known_configurations():
    functions = [
        {"suite": suite, "dim": dim, "truncation": t}
        for suite in sorted(SUITE_IDS) + ["all"]
        for dim in (1, 2, 3)
        for t in range(MIN_TRUNCATION.get(suite, 1), 7)
    ]
    for options in GUARD_ACCEPTS + functions:
        c = RunConfig(**options)
        size = largest_dense_bytes(c.suite, c.kind, c.dim, c.truncation)
        assert size <= MAX_DENSE_BYTES, options


# Truncations below a suite's floor: the bosonic closed forms read the
# grade-2 Gram, and the free moment checks walk words of length 6.
FLOOR_REFUSES = [
    ("bosonic", 1),
    ("free", 1),
    ("free", 2),
    ("all", 1),
    ("all", 2),
]


def test_truncation_below_a_suites_floor_exits_two(capsys, monkeypatch):
    for suite, truncation in FLOOR_REFUSES:
        with pytest.raises(ValueError, match="needs truncation at least"):
            RunConfig(suite=suite, truncation=truncation)
    _refuse_to_run(monkeypatch)
    for suite, truncation in FLOOR_REFUSES:
        argv = ["verify", suite, "--truncation", str(truncation)]
        _exits_two_with_one_error_line(capsys, argv)
        for kind in ("functions", "matrices"):
            _exits_two_with_one_error_line(capsys, argv + ["--kind", kind])


def test_suites_without_a_floor_run_at_truncation_one(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "qdeform", "--truncation", "1", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["truncation"] == 1
    assert payload["summary"]["failed"] == 0
    for suite in ("qdeform", "diagonal", "classical", "nogo", "combinatorics"):
        assert RunConfig(suite=suite, truncation=1).truncation == 1


def test_resource_guard_refuses_before_running(capsys, monkeypatch):
    for options in GUARD_REFUSES:
        with pytest.raises(ValueError, match="GB limit"):
            RunConfig(**options)
    _refuse_to_run(monkeypatch)
    for options in GUARD_REFUSES:
        _exits_two_with_one_error_line(capsys, _argv(options))


def test_resource_guard_lets_the_cli_reach_the_suites(monkeypatch):
    import qwnlab.cli

    def accept(config):
        raise _Accepted(config)

    monkeypatch.setattr(qwnlab.cli, "run_suite", accept)
    for options in GUARD_ACCEPTS:
        with pytest.raises(_Accepted):
            run_cli(_argv(options))
