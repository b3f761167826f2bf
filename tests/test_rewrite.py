"""Normal-ordering engine, classical limits, and the obstruction certificate.

Hand-computed anchors used below, all over a single point of weight t with
the abstract relation table at its defaults (gamma0 = 1, scalar 2, number 4,
number shift 2):

- one swap of (annihilation, creation) produces the reversed word, the
  scalar 2 * gamma0 * <phi, psi>, and 4 times a number operator, in one step;
- the second field moment is 2 * gamma0 * t (only the scalar from one swap
  survives at the vacuum);
- the third field moment is s * shift * 2 * gamma0 * mu(chi^3): at s = 2
  this is 8 * gamma0 * t abstractly and 4 * gamma0 * t on the concrete
  operators, whose number shift measures 1;
- the concrete operators at gamma0 are the abstract table at 2 gamma0 with
  b = B/sqrt2 and n = N/2, so their words are read there and mapped by
  ``measured_coefficient``; ``MeasuredEngine`` keeps the rules with shift 1
  as the oracle of that map;
- the obstruction quadratic form at (gamma0, l, c) = (1, 0.5, -2) evaluates
  to -1 with minimizer -2 and minimum -1.
"""

import concurrent.futures
import inspect
import itertools
import multiprocessing
import os
import re
import sys
from collections import deque

import numpy as np
import pytest

import qwnlab.rewrite as rewrite
from qwnlab.rewrite import (
    ANNIHILATION,
    CREATION,
    LINEAR_ANNIHILATION,
    LINEAR_CREATION,
    NUMBER,
    MAX_WORD_LENGTH,
    NUMBER_SHIFT,
    NormalForm,
    RewriteBudgetError,
    RewriteEngine,
    SymbolTable,
    UnsupportedRelationError,
    check_engine_vs_operators,
    check_measured_table_map,
    check_nogo,
    check_nogo_grid,
    check_strategy_independence,
    check_termination,
    gamma_moment_check,
    make_function_engine,
    measured_coefficient,
    nogo_certificate,
)
from qwnlab.algebra import FunctionAlgebra, random_element


WEIGHTS = [0.5, 0.25]


def make_engine():
    return make_function_engine(WEIGHTS)


class MeasuredEngine(RewriteEngine):
    """The rules the concrete operators satisfy at gamma0: the abstract ones
    with the number/creation coefficient 1 in place of NUMBER_SHIFT."""

    def _build_replacements(self, left, right):
        terms = super()._build_replacements(left, right)
        if (left[0], right[0]) in ((NUMBER, CREATION), (ANNIHILATION, NUMBER)):
            swapped, (shift, middle) = terms
            assert shift == NUMBER_SHIFT
            terms = [swapped, (1.0 + 0j, middle)]
        return terms


def mapped_normal_order(engine, word):
    """Normal form of the concrete operators' ``word``, read from ``engine``
    at twice their gamma0."""
    form = engine.normal_order(word)
    form.terms = {w: measured_coefficient(c, word, w) for w, c in form.terms.items()}
    return form


def test_single_swap_terms_and_step_count():
    engine = make_engine()
    syms = engine.symbols
    phi = syms.intern(np.array([1.0, 2.0]))
    psi = syms.intern(np.array([0.5, -1.0]))
    form = engine.normal_order(((ANNIHILATION, phi), (CREATION, psi)))
    assert form.steps == 1
    pairing = 0.5 * 1.0 * 0.5 + 0.25 * 2.0 * (-1.0)
    number_symbol = syms.mul(syms.star(phi), psi)
    expected = {
        ((CREATION, psi), (ANNIHILATION, phi)): 1.0 + 0j,
        (): 2.0 * pairing + 0j,
        ((NUMBER, number_symbol),): 4.0 + 0j,
    }
    assert form.terms == expected


def test_normal_word_is_untouched():
    engine = make_engine()
    sid = engine.symbols.intern(np.array([1.0, 1.0]))
    word = ((CREATION, sid), (NUMBER, sid), (ANNIHILATION, sid))
    form = engine.normal_order(word)
    assert form.steps == 0
    assert form.terms == {word: 1.0 + 0j}


def test_number_operators_commute():
    engine = make_engine()
    x = engine.symbols.intern(np.array([1.0, 0.0]))
    y = engine.symbols.intern(np.array([0.0, 1.0]))
    one_way = engine.normal_order(((NUMBER, x), (NUMBER, y)))
    other = engine.normal_order(((NUMBER, y), (NUMBER, x)))
    assert one_way.terms == other.terms


def test_zero_inputs_short_circuit():
    engine = make_engine()
    zero = engine.symbols.intern(np.zeros(2))
    live = engine.symbols.intern(np.ones(2))
    form = engine.normal_order(((ANNIHILATION, zero), (CREATION, live)))
    assert form.terms == {} and form.steps == 0
    form = engine.normal_order(((ANNIHILATION, live), (CREATION, zero)))
    assert form.terms == {} and form.steps == 0


def test_word_validation():
    engine = make_engine()
    sid = engine.symbols.intern(np.ones(2))
    with pytest.raises(ValueError):
        engine.normal_order((("q", sid),))
    long_word = ((NUMBER, sid),) * (MAX_WORD_LENGTH + 1)
    with pytest.raises(ValueError):
        engine.normal_order(long_word)
    with pytest.raises(ValueError):
        engine.normal_order(((NUMBER, sid), (NUMBER, sid)), strategy="random")


def test_unknown_strategy_is_rejected_before_rewriting():
    engine = make_engine()
    sid = engine.symbols.intern(np.ones(2))
    normal = ((CREATION, sid), (ANNIHILATION, sid))
    for word in (normal, normal[::-1]):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            engine.normal_order(word, strategy="bogus")


def test_budget_error():
    engine = make_engine()
    sid = engine.symbols.intern(np.ones(2))
    word = ((ANNIHILATION, sid), (CREATION, sid))
    with pytest.raises(RewriteBudgetError):
        engine.normal_order(word, max_steps=0)


def test_unsupported_pairs():
    engine = make_engine()
    sid = engine.symbols.intern(np.ones(2))
    with pytest.raises(UnsupportedRelationError, match=r"\(a, n\)"):
        engine.normal_order(((LINEAR_ANNIHILATION, sid), (NUMBER, sid)))
    with pytest.raises(UnsupportedRelationError, match=r"\(n, a\*\)"):
        engine.normal_order(((NUMBER, sid), (LINEAR_CREATION, sid)))


def test_engine_requires_commutative_backing():
    from qwnlab.algebra import MatrixAlgebra

    with pytest.raises(ValueError):
        SymbolTable(MatrixAlgebra(2))


def test_symbol_interning_flushes_negative_zero():
    syms = SymbolTable(FunctionAlgebra([1.0]))
    plain = syms.intern(np.array([0.0]))
    signed = syms.intern(np.array([-0.0]))
    assert plain == signed


def test_product_interning_is_order_independent():
    # elementwise complex products may differ by an ulp between x*y and y*x
    # under fused multiply-adds; the table must intern both orders to the
    # same id or normal forms stop cancelling
    syms = SymbolTable(FunctionAlgebra([0.5, 0.25, 0.125]))
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = syms.intern(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        b = syms.intern(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert syms.mul(a, b) == syms.mul(b, a)


def test_field_moment_anchors():
    t = 0.5
    engine = make_function_engine([t])
    chi = engine.symbols.intern(np.ones(1))
    assert engine.field_moment((chi,)) == pytest.approx(0.0)
    assert engine.field_moment((chi, chi)) == pytest.approx(2.0 * t)
    assert engine.field_moment((chi,) * 3) == pytest.approx(8.0 * t)
    # the concrete operators at gamma0 = 1, through the table at 2
    doubled = make_function_engine([t], 2.0)
    field = doubled.quadratic_field(doubled.symbols.intern(np.ones(1)))
    third = 0j
    for (c1, w1), (c2, w2), (c3, w3) in itertools.product(field, repeat=3):
        word = w1 + w2 + w3
        third += c1 * c2 * c3 * measured_coefficient(doubled.vacuum_moment(word), word)
    assert third == pytest.approx(4.0 * t)


def test_commuting_family_with_full_precision_inputs():
    # regression: these inputs are not dyadic, so exact cancellation leans
    # on the order-independent product interning above
    engine = make_engine()
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    records = engine.check_commuting_family(2.0, phi, psi)
    assert [r.name for r in records] == [
        "classical.commuting_family",
        "classical.field_normality",
    ]
    for record in records:
        assert record.status == "pass", record
        assert record.residual == 0.0


def test_factorization_check_and_validation():
    engine = make_engine()
    f1 = np.array([1.5, 0.0])
    f2 = np.array([0.0, -0.75])
    records = engine.check_factorization(2.0, f1, f2, (2, 2))
    assert all(r.status == "pass" for r in records)
    with pytest.raises(ValueError):
        engine.check_factorization(2.0, f1, np.array([1.0, 1.0]), (2, 2))
    with pytest.raises(ValueError):
        engine.check_factorization(2.0, f1, f2, (5, 4))


def test_strategy_independence_and_termination():
    rng = np.random.default_rng(9)
    for record in check_strategy_independence(rng, trials=4, max_len=5):
        assert record.status == "pass", record
    for record in check_termination(rng, words=200, max_len=8):
        assert record.status == "pass", record


def test_engine_matches_operator_matrices():
    rng = np.random.default_rng(13)
    for record in check_engine_vs_operators(rng, trials=6, max_len=5):
        assert record.status == "pass", record


def _weighs_n_like_b(coeff, word, term=()):
    """``measured_coefficient`` with n weighed 2**(-1/2), like b and b*."""
    twice = len(term) - len(word)
    return complex(coeff) * 2.0 ** (twice / 2)


@pytest.mark.parametrize("gamma0", [1.0, 0.7, 3.0])
def test_measured_table_map_record_passes_and_draws_nothing(gamma0):
    (record,) = check_measured_table_map(gamma0)
    assert record.name == "classical.measured_table_map"
    assert record.status == "pass" and record.residual <= 1e-15
    # 1 empty word, then 2 * 6**(m - 2) * 2 words of each length m = 2..4
    assert record.notes.startswith("173 live quadratic words")


def test_measured_table_map_record_fails_a_map_that_weighs_n_like_b(monkeypatch):
    # the random words of engine_vs_operators mostly have vacuum moment 0,
    # so this mutant passes them; every live word with an n shows it here
    monkeypatch.setattr(rewrite, "measured_coefficient", _weighs_n_like_b)
    (record,) = check_measured_table_map(1.0)
    assert record.status == "fail", record.residual


def test_gamma_moments_abstract_table():
    records = gamma_moment_check(1.0, 1.0)
    by_name = {record.name: record for record in records}
    assert len(by_name) == len(records)
    assert by_name["classical.gamma_moments[gamma0=1,t=1]"].status == "pass"
    assert by_name["classical.gamma_literal_scaling[gamma0=1,t=1]"].status == "reported"
    anchor = by_name["classical.chi_squared_third_moment"]
    assert anchor.status == "pass"
    assert anchor.residual == 0.0
    # the unit chi-squared anchor only applies at gamma0 = t = 1
    names = [r.name for r in gamma_moment_check(2.0, 1.5)]
    assert "classical.chi_squared_third_moment" not in names
    assert "classical.gamma_moments[gamma0=2,t=1.5]" in names


def test_gamma_moments_at_other_parameters():
    for gamma0, t in ((2.0, 1.5), (1.0, 3.0)):
        records = gamma_moment_check(gamma0, t)
        name = "classical.gamma_moments[gamma0=%g,t=%g]" % (gamma0, t)
        matched = [r for r in records if r.name == name]
        assert len(matched) == 1 and matched[0].status == "pass"
    with pytest.raises(ValueError):
        gamma_moment_check(1.0, 1.0, m_max=7)


def test_nogo_certificate_anchor():
    value, minimizer, minimum = nogo_certificate(1.0, 0.5, -2.0)
    assert (value, minimizer, minimum) == (-1.0, -2.0, -1.0)
    with pytest.raises(ValueError):
        nogo_certificate(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        nogo_certificate(-1.0, 0.5, 1.0)


def test_nogo_checks_pass():
    for record in check_nogo(1.0, 0.5, -2.0):
        assert record.status == "pass", record
    # positive side of the threshold: minimum is nonnegative
    _, _, minimum = nogo_certificate(0.5, 4.0, 0.0)
    assert minimum > 0
    rng = np.random.default_rng(5)
    for record in check_nogo_grid(rng, pairs=12):
        assert record.status == "pass", record


def test_normal_form_helpers():
    form = NormalForm()
    assert form.coefficient() == 0j
    form = NormalForm(terms={(): 2.0 + 0j, (("n", 0),): -3.0 + 0j})
    assert form.coefficient() == 2.0 + 0j


def test_vacuum_moment_of_quadratic_square():
    engine = RewriteEngine(SymbolTable(FunctionAlgebra([0.25, 0.75])))
    sid = engine.symbols.intern(np.array([1.0, 1.0]))
    word = (
        (ANNIHILATION, sid),
        (CREATION, sid),
    )
    assert engine.vacuum_moment(word) == pytest.approx(2.0)
    assert engine.vacuum_moment(((CREATION, sid), (ANNIHILATION, sid))) == 0j


def _serial_worst_ratio(rng, words, max_len, dim=2):
    """The draw-and-rewrite loop that the termination sweep replaced: the
    reference for its worst step ratio and for the draws it takes."""
    engine = make_function_engine((1.0 + rng.integers(0, 4, size=dim)) / 4.0)
    pool = [
        engine.symbols.intern(
            random_element(engine.symbols.algebra, rng, dyadic=True)
        )
        for _ in range(4)
    ]
    kinds = (CREATION, NUMBER, ANNIHILATION)
    worst = 0.0
    for _ in range(words):
        length = 1 + int(rng.integers(max_len))
        word = tuple(
            (kinds[int(rng.integers(3))], pool[int(rng.integers(len(pool)))])
            for _ in range(length)
        )
        worst = max(worst, engine.normal_order(word).steps / 4.0**length)
    return worst


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(
        rewrite, "_sweep_workers", lambda chunks: min(workers, chunks)
    )


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the sweep runs in-process without fork",
)


def test_termination_sweep_matches_the_serial_loop(monkeypatch):
    reference = np.random.default_rng(21)
    worst = _serial_worst_ratio(reference, words=300, max_len=8)
    next_draw = reference.integers(1 << 62)
    records = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        rng = np.random.default_rng(21)
        records.append(check_termination(rng, words=300, max_len=8))
        assert rng.integers(1 << 62) == next_draw
    assert records[0] == records[1]
    assert records[0][0].residual == worst


def test_sweep_takes_the_maximum_over_every_chunk(monkeypatch):
    class FirstLetterSteps:
        def count_steps(self, word):
            return word[0]

    size = 3 * rewrite._SWEEP_CHUNK + 7
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        for peak in (0, rewrite._SWEEP_CHUNK - 1, rewrite._SWEEP_CHUNK, size - 1):
            words = [(1,)] * size
            words[peak] = (2,)
            assert rewrite._sweep(FirstLetterSteps(), words) == 0.5
        assert rewrite._sweep(FirstLetterSteps(), []) == 0.0


@needs_fork
def test_termination_sweep_raises_worker_errors_as_their_type(monkeypatch):
    parent = os.getpid()

    def count_steps(self, word):
        if os.getpid() == parent:
            raise AssertionError("a word was rewritten in the parent process")
        raise RewriteBudgetError("raised in a worker")

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(RewriteEngine, "count_steps", count_steps)
    with pytest.raises(RewriteBudgetError, match="raised in a worker"):
        check_termination(np.random.default_rng(4), words=120, max_len=4)


@needs_fork
def test_sweep_workers_bounded_by_cpus_chunks_and_ceiling(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    for chunks in range(0, 20):
        workers = rewrite._sweep_workers(chunks)
        assert 1 <= workers <= max(1, min(cpus, chunks))
        assert workers <= rewrite._MAX_SWEEP_WORKERS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert rewrite._sweep_workers(1000) == 1
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(64)), raising=False
    )
    assert rewrite._sweep_workers(1000) == rewrite._MAX_SWEEP_WORKERS

    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    chunks = 3
    check_termination(
        np.random.default_rng(5), words=chunks * rewrite._SWEEP_CHUNK, max_len=4
    )
    assert started == [chunks]


def _reference_normal_order(
    engine, word, strategy="leftmost", rng=None, max_steps=None
):
    """The breadth-first rewrite on (kind, sid) letters that the engine's
    rewrite on integer letter codes replaced: the oracle for its step
    counts, its term order and the bits of its coefficients.  The rules
    come from the engine's relation table, rebuilt at every step."""
    rank = {kind: index for index, kind in enumerate(rewrite.KINDS)}
    syms = engine.symbols
    word = tuple(word)
    if max_steps is None:
        max_steps = 4 ** max(len(word), 1)
    if any(syms.is_zero(s) for _, s in word):
        return NormalForm(terms={}, steps=0)

    def find_position(current, hint):
        candidates = []
        for position in range(hint, len(current) - 1):
            kind_a, sym_a = current[position]
            kind_b, sym_b = current[position + 1]
            if rank[kind_a] > rank[kind_b] or (
                kind_a == kind_b and syms.sort_key(sym_a) > syms.sort_key(sym_b)
            ):
                if strategy == "leftmost":
                    return position
                candidates.append(position)
        if not candidates:
            return None
        if strategy == "rightmost":
            return candidates[-1]
        return candidates[int(rng.integers(len(candidates)))]

    terms = {}
    steps = 0
    pending = {word: (1 + 0j, 0)}
    queue = deque((word,))
    while queue:
        current = queue.popleft()
        entry = pending.pop(current, None)
        if entry is None:
            continue
        coeff, hint = entry
        if coeff == 0:
            continue
        position = find_position(current, hint)
        if position is None:
            terms[current] = terms.get(current, 0j) + coeff
            continue
        steps += 1
        if steps > max_steps:
            raise RewriteBudgetError("exceeded %d rewrite steps" % max_steps)
        prefix = current[:position]
        suffix = current[position + 2 :]
        new_hint = position - 1 if strategy == "leftmost" and position > 0 else 0
        for factor, middle in engine._build_replacements(
            current[position], current[position + 1]
        ):
            if factor == 0 or any(syms.is_zero(s) for _, s in middle):
                continue
            new_word = prefix + middle + suffix
            previous = pending.get(new_word)
            if previous is None:
                pending[new_word] = (coeff * factor, new_hint)
                queue.append(new_word)
            else:
                pending[new_word] = (
                    previous[0] + coeff * factor,
                    min(new_hint, previous[1]),
                )
    return NormalForm(terms={w: c for w, c in terms.items() if c != 0}, steps=steps)


def _assert_same_form(engine, word, reference_rng=None, **kwargs):
    form = engine.normal_order(word, **kwargs)
    expected = _reference_normal_order(
        engine, word, **dict(kwargs, rng=reference_rng)
    )
    assert form.steps == expected.steps, word
    # repr keeps the term order and every bit of each coefficient,
    # signed zeros included
    assert repr(list(form.terms.items())) == repr(list(expected.terms.items())), word
    return form


def _random_words(seed, count, max_len, min_len=1):
    """An engine over two weighted points, and ``count`` random words over
    the quadratic kinds and a pool of four dyadic symbols."""
    rng = np.random.default_rng(seed)
    engine = make_engine()
    pool = [
        engine.symbols.intern(random_element(engine.symbols.algebra, rng, dyadic=True))
        for _ in range(4)
    ]
    kinds = (CREATION, NUMBER, ANNIHILATION)
    words = [
        tuple(
            (kinds[int(rng.integers(3))], pool[int(rng.integers(4))])
            for _ in range(min_len + int(rng.integers(max_len - min_len + 1)))
        )
        for _ in range(count)
    ]
    return engine, words


def test_coded_engine_matches_the_letter_engine_on_every_short_word():
    engine = make_engine()
    # disjoint supports: the pairing and the products of the two symbols
    # vanish, so the rules of mixed pairs lose their shorter terms
    pool = [
        engine.symbols.intern(np.array([0.3 + 0.1j, 0.0])),
        engine.symbols.intern(np.array([0.0, -1.7 + 0.2j])),
    ]
    letters = [(kind, sid) for kind in (CREATION, NUMBER, ANNIHILATION) for sid in pool]
    words = 0
    for length in range(6):
        for word in itertools.product(letters, repeat=length):
            _assert_same_form(engine, word)
            words += 1
    assert words == sum(6**length for length in range(6))


def test_coded_engine_matches_the_letter_engine_on_random_words():
    engine, words = _random_words(17, 300, 10)
    for word in words:
        _assert_same_form(engine, word)


def test_coded_engine_matches_the_letter_engine_under_other_strategies():
    engine, words = _random_words(19, 100, 7, min_len=2)
    for seed, word in enumerate(words):
        _assert_same_form(engine, word, strategy="rightmost")
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        _assert_same_form(
            engine, word, strategy="random", rng=rng, reference_rng=reference_rng
        )
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def _five_kind_words(engine, max_len=3):
    sid = engine.symbols.intern(np.array([1.0, -0.5]))
    letters = [(kind, sid) for kind in rewrite.KINDS]
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


def test_coded_engine_matches_the_letter_engine_on_linear_letters():
    engine = make_engine()
    unsupported = supported_mixed = 0
    for word in _five_kind_words(engine):
        try:
            expected = _reference_normal_order(engine, word)
        except UnsupportedRelationError as error:
            with pytest.raises(UnsupportedRelationError, match=re.escape(str(error))):
                engine.normal_order(word)
            unsupported += 1
            continue
        _assert_same_form(engine, word)
        kinds = {kind for kind, _ in word}
        if kinds & {LINEAR_CREATION, LINEAR_ANNIHILATION} and kinds - {
            LINEAR_CREATION,
            LINEAR_ANNIHILATION,
        }:
            supported_mixed += bool(expected.steps)
    assert unsupported and supported_mixed


def test_every_cached_rule_lowers_length_or_inversions():
    # Each rule either swaps the out-of-order pair, one inversion fewer at
    # the same length, or yields a shorter word: (length, inversions) falls
    # lexicographically at every step, so rewriting terminates on all words
    engine, words = _random_words(23, 300, 10)
    for word in words:
        engine.normal_order(word)
    for word in _five_kind_words(engine):
        try:
            engine.normal_order(word)
        except UnsupportedRelationError:
            pass
    rules = 0
    for a, row in enumerate(engine._rules):
        for b, rule in row.items():
            assert engine._order[a] > engine._order[b]
            (factor, swap), *lower = rule
            assert swap == (b, a) and factor == 1
            assert all(len(middle) < 2 for _, middle in lower)
            rules += 1
    kinds = {
        (engine._letters[a][0], engine._letters[b][0])
        for a, row in enumerate(engine._rules)
        for b in row
    }
    assert (ANNIHILATION, CREATION) in kinds and (LINEAR_ANNIHILATION, CREATION) in kinds
    assert rules > 50


def _count_matches_normal_order(engine, word):
    steps = engine.count_steps(word)
    assert steps == engine.normal_order(word).steps, word
    return steps


def test_counted_steps_match_the_normal_form_on_every_short_word():
    engine = make_engine()
    pool = [
        engine.symbols.intern(np.array([0.3 + 0.1j, 0.0])),
        engine.symbols.intern(np.array([0.5, -1.7 + 0.2j])),
    ]
    letters = [(kind, sid) for kind in (CREATION, NUMBER, ANNIHILATION) for sid in pool]
    total = 0
    for length in range(6):
        for word in itertools.product(letters, repeat=length):
            total += _count_matches_normal_order(engine, word)
    assert total > 0


def test_counted_steps_match_the_normal_form_on_random_words():
    engine, words = _random_words(29, 300, 10)
    assert sum(_count_matches_normal_order(engine, word) for word in words) > 0


def test_counted_steps_of_the_empty_word_and_a_zero_symbol():
    engine = make_engine()
    live = engine.symbols.intern(np.ones(2))
    zero = engine.symbols.intern(np.zeros(2))
    assert _count_matches_normal_order(engine, ()) == 0
    word = ((ANNIHILATION, live), (ANNIHILATION, zero), (CREATION, live))
    assert _count_matches_normal_order(engine, word) == 0
    with pytest.raises(ValueError):
        engine.count_steps((("q", live),))
    with pytest.raises(ValueError):
        engine.count_steps(((NUMBER, live),) * (MAX_WORD_LENGTH + 1))


def test_counted_steps_skip_words_whose_coefficients_cancel():
    # Signed symbols: two paths reach one intermediate word with opposite
    # coefficients, and the skipped zero entry saves steps (107 and 413
    # steps without the skip)
    engine = make_engine()
    x = [
        engine.symbols.intern(np.array(v, dtype=float))
        for v in ([0, 1], [2, 1], [1, -2], [-1, 2], [2, -1])
    ]
    words = [
        ((ANNIHILATION, x[0]), (ANNIHILATION, x[1]), (CREATION, x[2]))
        + ((NUMBER, x[0]),) * 2
        + ((CREATION, x[1]),),
        ((NUMBER, x[1]), (ANNIHILATION, x[4]), (NUMBER, x[3]), (ANNIHILATION, x[2]))
        + ((NUMBER, x[0]),)
        + ((CREATION, x[4]),) * 2,
    ]
    assert [_count_matches_normal_order(engine, word) for word in words] == [103, 410]


def test_every_rewrite_mode_hits_the_budget_at_its_last_step():
    # the form and step modes take the same steps; the vacuum mode takes
    # the steps on live words, and the budget counts those alone
    engine, words = _random_words(31, 40, 8, min_len=4)
    budgets = vacuum_budgets = 0
    for word in words:
        steps = engine.normal_order(word).steps
        if steps == 0:
            continue
        budgets += 1
        start = tuple(engine._code(letter) for letter in word)
        for reads in (rewrite._READS_FORM, rewrite._READS_STEPS):
            assert engine._rewrite(start, reads, max_steps=steps)[0] == steps
            with pytest.raises(RewriteBudgetError):
                engine._rewrite(start, reads, max_steps=steps - 1)
        live = engine._rewrite(start, rewrite._READS_VACUUM)[0]
        assert live <= steps
        if live:
            vacuum_budgets += 1
            live_steps, terms = engine._rewrite(
                start, rewrite._READS_VACUUM, max_steps=live
            )
            assert live_steps == live and set(terms) <= {()}
            with pytest.raises(RewriteBudgetError):
                engine._rewrite(start, rewrite._READS_VACUUM, max_steps=live - 1)
    assert budgets > 30 and vacuum_budgets >= 4


def _made_live(word):
    """The word with its first letter made an annihilator and its last a
    creator, on the first letter's symbol: a word the vacuum mode rewrites."""
    sid = word[0][1]
    return ((ANNIHILATION, sid),) + word[1:-1] + ((CREATION, sid),)


def test_every_popped_word_carries_its_leftmost_descent():
    # Watch the rewrite loop right after each pop: under leftmost, the
    # position stored when the word first entered the queue (and kept
    # through merges) equals a fresh scan of the word from its start;
    # when counting, no normal word but the start is ever queued; for a
    # vacuum moment, every popped word is live: empty, or an annihilator
    # first and a creator last
    engine, words = _random_words(37, 60, 9)
    code = RewriteEngine._rewrite.__code__
    source, first = inspect.getsourcelines(RewriteEngine._rewrite)
    (after_pop,) = [
        first + index + 1
        for index, line in enumerate(source)
        if "= take(w)" in line
    ]
    seen = {"words": 0, "normal": 0, "live": 0, "empty": 0}

    def check(frame, event, arg):
        if event == "line" and frame.f_lineno == after_pop:
            w, position = frame.f_locals["w"], frame.f_locals["position"]
            order = engine._order
            fresh = 0
            while fresh < len(w) - 1 and order[w[fresh]] <= order[w[fresh + 1]]:
                fresh += 1
            assert position == fresh, w
            seen["words"] += 1
            if frame.f_locals["counting"] and fresh >= len(w) - 1:
                assert w == frame.f_locals["start"]
                seen["normal"] += 1
            if frame.f_locals["vacuum"]:
                letters = [engine._letters[c] for c in w]
                if letters:
                    assert letters[0][0] == ANNIHILATION, letters
                    assert letters[-1][0] == CREATION, letters
                    seen["live"] += 1
                else:
                    seen["empty"] += 1
        return check

    def trace(frame, event, arg):
        return check if frame.f_code is code else None

    sys.settrace(trace)
    try:
        for word in words:
            engine.normal_order(word)
            engine.count_steps(word)
            engine.vacuum_moment(word)
            engine.vacuum_moment(_made_live(word))
    finally:
        sys.settrace(None)
    assert seen["words"] > 1000 and seen["normal"] > 0
    assert seen["live"] > 100 and seen["empty"] > 0


def _same_scalar(got, expected):
    # == alone would let a signed zero through
    return (
        got == expected
        and np.signbit(got.real) == np.signbit(expected.real)
        and np.signbit(got.imag) == np.signbit(expected.imag)
    )


# The two symbols of the short-word sweeps: with disjoint supports the
# pairing and the products of the two symbols vanish, so mixed pairs lose
# their shorter terms.
SECOND_SYMBOLS = pytest.mark.parametrize(
    "second", [[0.0, -1.7 + 0.2j], [0.5, -1.7 + 0.2j]], ids=["disjoint", "overlapping"]
)


def _short_quadratic_words(symbols, second):
    """Every quadratic word of length <= 5 over two symbols."""
    pool = [
        symbols.intern(np.array([0.3 + 0.1j, 0.0])),
        symbols.intern(np.array(second)),
    ]
    letters = [(kind, sid) for kind in (CREATION, NUMBER, ANNIHILATION) for sid in pool]
    for length in range(6):
        yield from itertools.product(letters, repeat=length)


@pytest.mark.parametrize("measured", [False, True], ids=["abstract", "measured-0.5"])
@SECOND_SYMBOLS
def test_vacuum_moment_matches_the_normal_form_on_every_short_word(measured, second):
    # the measured case reads the concrete operators at gamma0 = 0.5 through
    # the abstract table at 1
    engine = make_engine()
    words = nonzero = 0
    for word in _short_quadratic_words(engine.symbols, second):
        got = engine.vacuum_moment(word)
        expected = engine.normal_order(word).coefficient(())
        if measured:
            got = measured_coefficient(got, word)
            expected = mapped_normal_order(engine, word).coefficient(())
        assert _same_scalar(got, expected), (word, got, expected)
        words += 1
        nonzero += got != 0
    assert words == sum(6**length for length in range(6))
    assert nonzero > 40


@pytest.mark.parametrize("gamma0", [1.0, 0.5, 0.3])
@SECOND_SYMBOLS
def test_measured_map_matches_the_shift_one_rules_bit_for_bit(gamma0, second):
    symbols = SymbolTable(FunctionAlgebra(WEIGHTS))
    doubled = RewriteEngine(symbols, 2.0 * gamma0)
    oracle = MeasuredEngine(symbols, gamma0)
    words = 0
    for word in _short_quadratic_words(symbols, second):
        got = mapped_normal_order(doubled, word)
        expected = oracle.normal_order(word)
        assert got.steps == expected.steps, word
        assert list(got.terms) == list(expected.terms), word
        for w, c in got.terms.items():
            assert _same_scalar(c, expected.terms[w]), (word, w)
        moment = measured_coefficient(doubled.vacuum_moment(word), word)
        assert _same_scalar(moment, oracle.vacuum_moment(word)), word
        words += 1
    assert words == sum(6**length for length in range(6))


def test_measured_coefficient_scales_each_part_by_a_power_of_two():
    b, b_star, n = (ANNIHILATION, 0), (CREATION, 0), (NUMBER, 0)
    assert measured_coefficient(3 + 1j, (b, b_star)) == 1.5 + 0.5j
    assert measured_coefficient(3 + 1j, (b, n, b_star), (n,)) == 1.5 + 0.5j
    assert measured_coefficient(3 + 1j, (n, b_star), (b_star,)) == 1.5 + 0.5j
    assert measured_coefficient(3 + 1j, (b, b_star), (b_star, b)) == 3 + 1j
    # each part on its own: a complex product would turn -0.0 into 0.0
    got = measured_coefficient(complex(3.0, -0.0), (b, b_star))
    assert _same_scalar(got, complex(1.5, -0.0))


def test_vacuum_moment_matches_the_normal_form_on_random_words():
    engine, words = _random_words(41, 200, 9)
    for word in words:
        for candidate in (word, _made_live(word)):
            expected = engine.normal_order(candidate).coefficient(())
            assert _same_scalar(engine.vacuum_moment(candidate), expected), candidate


def test_every_cached_rule_term_keeps_dead_words_dead(monkeypatch):
    # The live-word lemma on the rules a termination sweep builds: a rule
    # whose left letter is not an annihilator yields only middles that
    # start with a non-annihilator, one whose right letter is not a creator
    # only middles that end with a non-creator, and only (b, b*) yields a
    # scalar
    engines = []
    sweep = rewrite._sweep

    def keep_engine(engine, words):
        engines.append(engine)
        return sweep(engine, words)

    _force_workers(monkeypatch, 1)
    monkeypatch.setattr(rewrite, "_sweep", keep_engine)
    check_termination(np.random.default_rng(4), words=300, max_len=10)
    (engine,) = engines
    kinds = [kind for kind, _ in engine._letters]
    terms = scalars = 0
    for a, row in enumerate(engine._rules):
        for b, rule in row.items():
            for _, middle in rule:
                terms += 1
                if not middle:
                    assert (kinds[a], kinds[b]) == (ANNIHILATION, CREATION)
                    scalars += 1
                    continue
                if kinds[a] != ANNIHILATION:
                    assert kinds[middle[0]] != ANNIHILATION
                if kinds[b] != CREATION:
                    assert kinds[middle[-1]] != CREATION
    assert terms > 1000 and scalars > 10


def test_vacuum_moment_of_linear_words_takes_the_full_rewrite():
    engine = make_engine()
    x = engine.symbols.intern(np.array([1.0, -0.5]))
    y = engine.symbols.intern(np.array([0.5, 2.0]))
    # dead by the live-word rule, but the pair has no relation
    with pytest.raises(UnsupportedRelationError, match=r"\(n, a\*\)"):
        engine.vacuum_moment(((NUMBER, x), (LINEAR_CREATION, y)))
    with pytest.raises(UnsupportedRelationError, match=r"\(a, n\)"):
        engine.vacuum_moment(((LINEAR_ANNIHILATION, x), (NUMBER, y)))
    for word in _five_kind_words(engine):
        try:
            expected = engine.normal_order(word).coefficient(())
        except UnsupportedRelationError:
            continue
        assert _same_scalar(engine.vacuum_moment(word), expected), word


def test_vacuum_moment_of_a_zero_symbol_or_the_empty_word():
    engine = make_engine()
    sid = engine.symbols.intern(np.array([1.0, 1.0]))
    zero = engine.symbols.intern(np.zeros(2))
    assert engine.vacuum_moment(((ANNIHILATION, zero), (CREATION, sid))) == 0j
    assert engine.vacuum_moment(()) == 1.0 + 0j


def test_vacuum_steps_never_exceed_the_full_steps():
    engine, words = _random_words(43, 200, 9)
    pruned = 0
    for word in words:
        for candidate in (word, _made_live(word)):
            start = tuple(engine._code(letter) for letter in candidate)
            full = engine._rewrite(start, rewrite._READS_FORM)[0]
            live = engine._rewrite(start, rewrite._READS_VACUUM)[0]
            assert live <= full, candidate
            pruned += live < full
    assert pruned > 100


def test_quadratic_vacuum_moments_build_no_normal_form(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a quadratic vacuum moment built a normal form")

    monkeypatch.setattr(RewriteEngine, "normal_order", refuse)
    for record in gamma_moment_check(1.0, 1.0):
        assert record.status in ("pass", "reported"), record
    engine = make_engine()
    f1 = np.array([1.5, 0.0])
    f2 = np.array([0.0, -0.75])
    for powers in ((1, 3), (2, 2), (3, 3)):
        for record in engine.check_factorization(2.0, f1, f2, powers):
            assert record.status == "pass", record


def test_sweep_ratio_does_not_depend_on_the_word_order(monkeypatch):
    engine, words = _random_words(47, 3 * rewrite._SWEEP_CHUNK + 11, 8)
    worst = max(engine.count_steps(w) / 4.0 ** len(w) for w in words)
    shuffled = list(words)
    np.random.default_rng(5).shuffle(shuffled)
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        assert rewrite._sweep(engine, words) == worst
        assert rewrite._sweep(engine, shuffled) == worst
        assert rewrite._sweep(engine, shuffled[::-1]) == worst
