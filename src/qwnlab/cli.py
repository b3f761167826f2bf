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
import cmath
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .report import canonical_json, emit_report, write_output
from .rewrite import (
    KINDS,
    LINEAR_ANNIHILATION,
    LINEAR_CREATION,
    MAX_WORD_LENGTH,
    NUMBER_SHIFT,
    RewriteBudgetError,
    UnsupportedRelationError,
    make_function_engine,
    measured_coefficient,
)
from .suites import ALGEBRA_KINDS, SUITE_IDS, RunConfig, run_suite

# Help texts of the verify flags that have one; RunConfig declares the rest.
_VERIFY_HELP = {
    "trials": (
        "random draws of the sampled checks (norm bounds, closed forms,"
        " moments, traciality, the q-deformed squared relation); adjointness,"
        " commutators, the number/creation fit and the canonical and free"
        " relations run on the basis (default %d)" % RunConfig.trials
    ),
    "output": "report path, '-' for stdout (default)",
}


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
    # one flag per RunConfig field, typed by its annotation
    for f in fields(RunConfig):
        if f.name == "suite":  # the positional argument
            continue
        verify.add_argument(
            "--" + f.name,
            type=f.type,
            choices=ALGEBRA_KINDS if f.name == "kind" else None,
            help=_VERIFY_HELP.get(f.name),
        )

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
        help="use the measured concrete-operator relations (quadratic kinds only)",
    )
    rw.add_argument("--output", default="-")

    comb = sub.add_parser("combinatorics", help="enumeration layer commands")
    comb_sub = comb.add_subparsers(dest="subcommand", required=True)
    selftest = comb_sub.add_parser("selftest", help="frozen-count self test")
    selftest.add_argument("--seed", type=int)
    selftest.add_argument("--output")
    selftest.set_defaults(suite="combinatorics")
    return parser


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
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    if "seed" not in values and "QWN_SEED" in os.environ:
        try:
            values["seed"] = int(os.environ["QWN_SEED"])
        except ValueError:
            raise UsageError("QWN_SEED must be an integer")
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))


def _check_output(path):
    """Refuse a report path that cannot be written, before any suite runs."""
    if path == "-":
        return
    parent, name = os.path.split(path)
    if "\0" in path or name in ("", os.curdir, os.pardir):
        raise UsageError("output %r is not a file name" % path)
    if os.path.isdir(path):
        raise UsageError("output %r is a directory" % path)
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise UsageError("output %r is not writable" % path)
    parent = parent or os.curdir
    if not os.path.isdir(parent):
        raise UsageError("output directory %r does not exist" % parent)
    if not os.access(parent, os.W_OK):
        raise UsageError("output directory %r is not writable" % parent)


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
    _check_output(args.output)
    # the measured operators at gamma0 are the abstract table at 2 gamma0
    scale = 2.0 if args.measured else 1.0
    engine = make_function_engine([0.5] * args.dim, scale * args.gamma0)
    palette = _palette(engine, args.dim)
    try:
        letters = json.loads(args.word)
    except json.JSONDecodeError as exc:
        raise UsageError("--word must be valid JSON: %s" % exc)
    if not isinstance(letters, list) or not letters:
        raise UsageError("--word must be a nonempty JSON list")
    if len(letters) > MAX_WORD_LENGTH:
        raise UsageError(
            "--word has %d letters, at most %d are allowed"
            % (len(letters), MAX_WORD_LENGTH)
        )
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
    if args.measured and any(
        kind in (LINEAR_CREATION, LINEAR_ANNIHILATION) for kind, _ in word
    ):
        raise UsageError("--measured takes the quadratic kinds b*, n and b only")
    try:
        form = engine.normal_order(tuple(word))
    except UnsupportedRelationError as exc:
        raise UsageError(str(exc))
    if args.measured:
        form.terms = {
            w: measured_coefficient(c, word, w) for w, c in form.terms.items()
        }
    moment = form.coefficient(())
    # The vacuum moment is one of the terms, or zero.
    if not all(cmath.isfinite(coeff) for coeff in form.terms.values()):
        print(
            "error: the normal form has a non-finite coefficient at gamma0=%g"
            % args.gamma0,
            file=sys.stderr,
        )
        return 1
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
        "table": {"gamma0": args.gamma0, "number_shift": NUMBER_SHIFT / scale},
    }
    write_output(canonical_json(payload) + "\n", args.output)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rewrite":
            return _cmd_rewrite(args)
        # verify and combinatorics selftest differ only in their parsers
        return _cmd_verify(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RewriteBudgetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
