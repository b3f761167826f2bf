"""Command line front end.

Three subcommands:

* ``qwnlab verify <suite>`` runs a verification suite (or ``all``) and
  writes the canonical JSON report to ``--output`` ('-' for stdout).
* ``qwnlab rewrite --word <json>`` normal-orders one word over a small
  named palette of function-algebra symbols and prints the result.
* ``qwnlab combinatorics selftest`` checks the enumeration layer.

Exit codes: 0 when every asserted check passes, 1 when any check fails,
2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .report import canonical_json, emit_report
from .rewrite import (
    KINDS,
    RelationTable,
    RewriteBudgetError,
    UnsupportedRelationError,
    make_function_engine,
)
from .suites import SUITE_IDS, RunConfig, run_suite

DEFAULT_SEED = 2026

_CONFIG_FLOATS = ("gamma0", "gamma", "q", "s", "l", "tolerance")
_CONFIG_INTS = ("dim", "truncation", "trials", "seed")


class UsageError(Exception):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qwnlab",
        description="verification laboratory for quadratic and linear white-noise algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument(
        "suite",
        choices=sorted(SUITE_IDS) + ["all"],
        help="suite to run ('all' runs every operator suite)",
    )
    verify.add_argument("--config", help="JSON file with configuration values")
    verify.add_argument("--kind", choices=("functions", "matrices"))
    verify.add_argument("--dim", type=int)
    verify.add_argument("--truncation", type=int)
    verify.add_argument("--gamma0", type=float)
    verify.add_argument("--gamma", type=float)
    verify.add_argument("--q", type=float)
    verify.add_argument("--s", type=float)
    verify.add_argument("--l", type=float)
    verify.add_argument("--trials", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--tolerance", type=float)
    verify.add_argument("--output", help="report path, '-' for stdout (default)")

    rw = sub.add_parser("rewrite", help="normal-order one word of generators")
    rw.add_argument(
        "--word",
        required=True,
        help=(
            'JSON list of {"kind": k, "symbol": name}; kinds are '
            "b*, a*, n, a, b and symbols come from the palette "
            "e0..e<dim-1>, one"
        ),
    )
    rw.add_argument("--dim", type=int, default=2)
    rw.add_argument("--gamma0", type=float, default=1.0)
    rw.add_argument(
        "--measured",
        action="store_true",
        help="use the measured concrete-operator relation table",
    )
    rw.add_argument("--output", default="-")

    comb = sub.add_parser("combinatorics", help="enumeration layer commands")
    comb_sub = comb.add_subparsers(dest="subcommand", required=True)
    selftest = comb_sub.add_parser("selftest", help="frozen-count self test")
    selftest.add_argument("--seed", type=int)
    selftest.add_argument("--output")
    selftest.set_defaults(suite="combinatorics")
    return parser


def _number(name, value, kind):
    """Config value ``name`` as ``kind``: a JSON number, whole for an int."""
    whole = not isinstance(value, float) or value.is_integer()
    if type(value) in (int, float) and (whole or kind is float):
        try:
            return kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise UsageError(
        "%s must be %s, got %s"
        % (name, "an integer" if kind is int else "a finite number", json.dumps(value))
    )


def _load_config(args):
    values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError("cannot read config file: %s" % exc)
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        for key, value in loaded.items():
            if key not in known:
                raise UsageError("unknown config key %r" % key)
            values[key] = value
    for name in _CONFIG_FLOATS + _CONFIG_INTS + ("kind", "output", "suite"):
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if "seed" not in values:
        env = os.environ.get("QWN_SEED")
        if env is not None:
            try:
                values["seed"] = int(env)
            except ValueError:
                raise UsageError("QWN_SEED must be an integer")
        else:
            values["seed"] = DEFAULT_SEED
    values.setdefault("output", "-")
    for name in _CONFIG_FLOATS + _CONFIG_INTS:
        if name in values:
            values[name] = _number(
                name, values[name], int if name in _CONFIG_INTS else float
            )
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))


def _check_output(path):
    """Refuse a report path that cannot be written, before any suite runs."""
    if path == "-":
        return
    if os.path.isdir(path):
        raise UsageError("output %s is a directory" % path)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError("output directory %s does not exist" % parent)
    if not os.access(parent, os.W_OK):
        raise UsageError("output directory %s is not writable" % parent)


def _cmd_verify(args):
    config = _load_config(args)
    _check_output(config.output)
    report = run_suite(config)
    emit_report(report, config.output)
    summary = report.summary
    print(
        "suite %s: %d checks, %d passed, %d failed, %d reported"
        % (
            config.suite,
            summary["checks"],
            summary["passed"],
            summary["failed"],
            summary["reported"],
        ),
        file=sys.stderr,
    )
    return report.exit_code


def _cmd_combinatorics(args):
    config = _load_config(args)
    _check_output(config.output)
    report = run_suite(config)
    emit_report(report, config.output)
    return report.exit_code


def _palette(engine, dim):
    names = {}
    for i in range(dim):
        basis = np.zeros(dim)
        basis[i] = 1.0
        names["e%d" % i] = engine.symbols.intern(basis)
    names["one"] = engine.symbols.intern(np.ones(dim))
    return names


def _cmd_rewrite(args):
    if not 1 <= args.dim <= 4:
        raise UsageError("dimension must be between 1 and 4")
    if not 0 < args.gamma0 < math.inf:
        raise UsageError("gamma0 must be positive and finite")
    table = (
        RelationTable.from_measured(args.gamma0)
        if args.measured
        else RelationTable(gamma0=args.gamma0)
    )
    engine = make_function_engine([0.5] * args.dim, table)
    palette = _palette(engine, args.dim)
    try:
        letters = json.loads(args.word)
    except json.JSONDecodeError as exc:
        raise UsageError("--word must be valid JSON: %s" % exc)
    if not isinstance(letters, list) or not letters:
        raise UsageError("--word must be a nonempty JSON list")
    word = []
    for entry in letters:
        if not isinstance(entry, dict) or set(entry) != {"kind", "symbol"}:
            raise UsageError('each letter needs exactly "kind" and "symbol"')
        kind = entry["kind"]
        symbol = entry["symbol"]
        if kind not in KINDS:
            raise UsageError("unknown kind %r, expected one of %s" % (kind, KINDS))
        if symbol not in palette:
            raise UsageError(
                "unknown symbol %r, palette is %s" % (symbol, sorted(palette))
            )
        word.append((kind, palette[symbol]))
    try:
        form = engine.normal_order(tuple(word))
        moment = engine.vacuum_moment(tuple(word))
    except UnsupportedRelationError as exc:
        raise UsageError(str(exc))
    symbols = engine.symbols

    def term_payload(w, coeff):
        return {
            "coefficient": [coeff.real, coeff.imag],
            "word": [
                {
                    "kind": kind,
                    "symbol": [[v.real, v.imag] for v in symbols.element(sid)],
                }
                for kind, sid in w
            ],
        }

    ordered = sorted(
        form.terms.items(),
        key=lambda item: (
            len(item[0]),
            tuple((kind, symbols.sort_key(sid)) for kind, sid in item[0]),
        ),
    )
    payload = {
        "input_length": len(word),
        "steps": form.steps,
        "terms": [term_payload(w, c) for w, c in ordered],
        "vacuum_moment": [moment.real, moment.imag],
        "table": {
            "gamma0": table.gamma0,
            "number_shift": table.number_shift,
        },
    }
    text = canonical_json(payload) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "rewrite":
            return _cmd_rewrite(args)
        return _cmd_combinatorics(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RewriteBudgetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
