"""Span tracing of qwnlab from outside the package.

`Tracer.installed()` wraps a fixed list of public functions and methods of
each qwnlab module (the layers), records one span per call in memory, and
restores every original on exit.  Nothing under ``src/`` is changed.

A name bound with ``from .linalg import gram_operator_norm`` is a separate
reference inside the importing module, so a module-level function is
replaced in every qwnlab module namespace that holds it: that is where the
caller looks it up.  Methods are replaced on their class.  The suites are
traced by wrapping the entries of ``qwnlab.suites._RUNNERS``, which is the
table ``run_suite`` dispatches through.

Generators (the combinatorics enumerators) get one span per item drawn,
so the time spent producing partitions is separated from the consumer's
work on them, and items are counted per consuming module.
"""

from __future__ import annotations

import math
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

# What is wrapped, per layer.  A span is named <module>.<attribute>, with
# __init__ spelled "init".  `graded` has no entry: its cost lands in the
# self time of the bosonic and free spans that call it.  Small helpers
# called per rewrite step (algebra products, symbol interning) are left
# out so that tracing does not swamp the work it measures.
FUNCTIONS = {
    "algebra": ["pair_product_state_tensors", "basis_word_products", "random_element"],
    "combinatorics": [
        "inversions",
        "cumulant_weight",
        "free_cumulants_to_moments",
        "moments_to_free_cumulants",
    ],
    "linalg": [
        "hermitize",
        "axis_permutation_matrix",
        "symmetrizer_matrix",
        "orthonormal_range",
        "gram_whitener",
        "gram_operator_norm",
    ],
    "qdeform": ["check_inversion_count", "check_bosonic_coefficient_match"],
    "rewrite": [
        "make_function_engine",
        "gamma_moment_check",
        "nogo_certificate",
        "check_nogo",
        "check_nogo_grid",
        "check_termination",
        "check_strategy_independence",
        "check_engine_vs_operators",
    ],
    "report": ["canonical_json", "emit_report"],
}

GENERATORS = {
    "combinatorics": [
        "set_partitions",
        "ordered_partitions",
        "interval_compositions",
        "noncrossing_partitions",
    ],
}

METHODS = {
    ("bosonic", "BosonicSpace"): [
        "__init__",
        "gram_matrix",
        "gram",
        "symmetrizer",
        "symmetric_basis",
        "operator_matrix",
        "apply",
        "vacuum_expectation",
        "check_gram_closed_forms",
        "check_gram_paths",
        "check_adjointness",
        "check_commutators",
        "check_norm_estimates",
        "check_positivity",
    ],
    ("free", "FreeSpace"): [
        "__init__",
        "gram",
        "operator_matrix",
        "apply",
        "vacuum_expectation",
        "moment_operator",
        "moment_formula",
        "cumulant_closed_form",
        "centered_product_expectation",
        "check_relations",
        "check_adjointness",
        "check_positivity",
        "check_norm_estimates",
        "check_moments",
        "check_cumulants",
        "check_traciality",
        "check_freeness",
    ],
    ("qdeform", "QFockSpace"): [
        "q_gram",
        "create_matrix",
        "annihilate_matrix",
        "number_matrix",
        "check_canonical_relation",
        "check_squared_relation",
        "check_adjointness",
        "check_positivity",
    ],
    ("qdeform", "DiscretizedQuadratic"): ["check_discretized_relation"],
    ("diagonal", "DiagonalRepresentation"): [
        "measure",
        "inner_product",
        "apply_creation",
        "apply_annihilation",
        "apply_number",
        "check_measure_is_gram_diagonal",
        "check_inner_products",
        "check_operators",
    ],
    ("rewrite", "RewriteEngine"): [
        "normal_order",
        "field_moment",
        "check_commuting_family",
        "check_factorization",
    ],
    ("report", "VerificationReport"): ["finalize", "to_canonical_json"],
}

LAYERS = (
    "suites",
    "rewrite",
    "bosonic",
    "combinatorics",
    "linalg",
    "free",
    "qdeform",
    "diagonal",
    "algebra",
    "report",
)


def _span_name(module, attr):
    return "%s.%s" % (module, "init" if attr == "__init__" else attr)


class Tracer:
    """In-memory spans (name, start, end, parent index) plus exact counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []
        # (space, k, method) seen by BosonicSpace.gram_matrix; weak so the
        # tracer never keeps a space and its Gram matrices alive.
        self._grams_seen = weakref.WeakKeyDictionary()
        self._before = {"bosonic.gram_matrix": self._count_gram_assembly}
        self._after = {"rewrite.normal_order": self._count_steps}

    # A span's slot is reserved when it opens, so children can name their
    # parent, and filled with a tuple when it closes: tuples of numbers and
    # strings are untracked by the garbage collector, which keeps tens of
    # thousands of spans from slowing the collections of the traced code.
    def _open(self, name):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return (index, name, time.perf_counter(), self._stack[-2] if len(self._stack) > 1 else -1)

    def _close(self, record):
        index, name, start, parent = record
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def _wrap(self, name, fn):
        before = self._before.get(name)
        after = self._after.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn, consumer):
        counter = "%s.items@%s" % (name, consumer)

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                record = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(record)
                self.counts[counter] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _count_steps(self, form):
        self.counts["rewrite.steps"] += form.steps

    def _count_gram_assembly(self, space, k, method=None):
        if method is None:
            method = "setpartition" if space.algebra.commutative else "ordered"
        seen = self._grams_seen.setdefault(space, set())
        if (k, method) not in seen:
            seen.add((k, method))
            self.counts["bosonic.gram_assemblies"] += 1

    def _patch_everywhere(self, original, make_wrapper):
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "qwnlab" or n.startswith("qwnlab."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    consumer = module.__name__.rpartition(".")[2]
                    self._restore.append((setattr, module, attr, original))
                    setattr(module, attr, make_wrapper(consumer))

    @contextmanager
    def installed(self):
        """Install every wrapper; restore all originals on exit."""
        import qwnlab.suites as suites

        try:
            for module_name, attrs in FUNCTIONS.items():
                module = sys.modules["qwnlab." + module_name]
                for attr in attrs:
                    original = getattr(module, attr)
                    wrapper = self._wrap(_span_name(module_name, attr), original)
                    self._patch_everywhere(original, lambda consumer, w=wrapper: w)
            for module_name, attrs in GENERATORS.items():
                module = sys.modules["qwnlab." + module_name]
                for attr in attrs:
                    original = getattr(module, attr)
                    name = _span_name(module_name, attr)
                    self._patch_everywhere(
                        original,
                        lambda consumer, n=name, o=original: self._wrap_generator(
                            n, o, consumer
                        ),
                    )
            for (module_name, class_name), attrs in METHODS.items():
                cls = getattr(sys.modules["qwnlab." + module_name], class_name)
                for attr in attrs:
                    original = cls.__dict__[attr]
                    self._restore.append((setattr, cls, attr, original))
                    setattr(cls, attr, self._wrap(_span_name(module_name, attr), original))
            runners = suites._RUNNERS
            for suite, original in list(runners.items()):
                self._restore.append((dict.__setitem__, runners, suite, original))
                runners[suite] = self._wrap("suites." + suite, original)
            yield self
        finally:
            while self._restore:
                setter, owner, attr, original = self._restore.pop()
                setter(owner, attr, original)

    def summary(self, since=-math.inf, until=math.inf):
        """Flat metrics of the spans that start in [since, until].

        For each span name: ``.calls``; ``.s``, inclusive seconds not
        counting spans nested inside a span of the same name; ``.self_s``,
        duration minus the time covered by child spans.  Per layer:
        ``<layer>.self_s``.  The counters of the whole pass are copied as
        they are.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(int)
        for index, (name, start, end, parent) in enumerate(spans):
            if not since <= start <= until:
                continue
            duration = end - start
            self_time = duration - child_time[index]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += self_time
            out[name.partition(".")[0] + ".self_s"] += self_time
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out[name + ".s"] += duration
        out.update(self.counts)
        return dict(out)
