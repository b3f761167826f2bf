"""Vacuum walks over trial rows against the per-symbol letter walk.

A walk carries one row per trial: each term of a letter builds the letters
of all its trials at once and runs one stacked kernel on the graded block,
each trial's letter on its own row, and it takes the trials in chunks of
bounded size.  The walk it replaced ran one trial at a time, a vector per
trial; it lives here as the oracle.  The batched checks draw
their trials in the order the per-trial checks drew them, so each leaves
its generator where a replay of that order does.
"""

import tracemalloc

import numpy as np
import pytest

import qwnlab.graded
from qwnlab.algebra import FunctionAlgebra, MatrixAlgebra, random_element
from qwnlab.bosonic import BosonicSpace
from qwnlab.free import FreeSpace
from qwnlab.graded import _SHIFTS, ANNIHILATION, CREATION, NUMBER

SPACES = {
    "free_m2": lambda: FreeSpace(MatrixAlgebra(2), 3, 0.7),
    "free_f3": lambda: FreeSpace(FunctionAlgebra([0.3, 0.7, 1.1]), 3, 0.7),
    "bosonic_f2": lambda: BosonicSpace(FunctionAlgebra([0.3, 0.9]), 3, 0.7),
}

COUPLINGS = (0.0, 1.0, 2.0, -0.5)


def letter_walk(space, letters):
    """The vacuum state of one trial's letters, each a list of (coeff,
    kind, coefficients) terms, the last letter acting first: each term
    builds its symbol's ``_letter`` and runs its kernel on the one vector
    of each grade that can still return to the vacuum."""
    vec, remaining = [np.ones(1, dtype=complex)], len(letters)
    for letter in reversed(letters):
        out = [None] * (space.max_grade + 1)
        for coeff, kind, coeffs in letter:
            data, shift = space._letter(kind, coeffs), _SHIFTS[kind]
            for k, part in enumerate(vec[: remaining - shift]):
                if part is None or (k == 0 and kind != CREATION):
                    continue
                image = space._kernel(kind, data, part.reshape(-1, 1), k).reshape(-1)
                image = coeff * image if coeff != 1.0 else image
                out[k + shift] = image if out[k + shift] is None else out[k + shift] + image
        vec, remaining = out, remaining - 1
    return 0j if vec[0] is None else complex(vec[0][0])


def field_letters(space, s, symbols):
    """One trial's field factors b*(x) + b(x*) + s n(x) as oracle letters."""
    alg = space.algebra
    letters = []
    for x in symbols:
        letter = [
            (1.0, CREATION, space._coefficients(CREATION, x)),
            (1.0, ANNIHILATION, space._coefficients(ANNIHILATION, alg.star(x))),
        ]
        if s != 0.0:
            letter.append((s, NUMBER, space._coefficients(NUMBER, x)))
        letters.append(letter)
    return letters


def _draw(space, rng, trials, length):
    s = np.array([COUPLINGS[t % len(COUPLINGS)] for t in range(trials)])
    words = [[random_element(space.algebra, rng) for _ in range(length)] for _ in range(trials)]
    stacks = [np.array([word[j] for word in words]) for j in range(length)]
    return s, words, stacks


def _batched(space, s, stacks):
    """The trials' moments from one walk: ``moment_operator`` where the
    space has it, else the same field letters walked directly."""
    if isinstance(space, FreeSpace):
        return space.moment_operator(s, stacks)
    letters = []
    for x in stacks:
        letter = [
            (CREATION, space._coefficients(CREATION, x), None),
            (ANNIHILATION, space._coefficients(ANNIHILATION, space.algebra.star(x)), None),
        ]
        if s.any():
            letter.append((NUMBER, space._coefficients(NUMBER, x), s))
        letters.append(letter)
    return space._vacuum_walk(letters, len(s))


@pytest.mark.parametrize("trials", [1, 7, 100])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_batched_moments_match_the_letter_walk(name, trials):
    space = SPACES[name]()
    rng = np.random.default_rng(41)
    for length in range(1, 2 * space.max_grade + 1):
        s, words, stacks = _draw(space, rng, trials, length)
        moments = _batched(space, s, stacks)
        assert moments.shape == (trials,)
        for t, word in enumerate(words):
            expected = letter_walk(space, field_letters(space, s[t], word))
            gap = abs(moments[t] - expected)
            assert gap <= 1e-14 * max(abs(expected), 1.0), (length, t, gap)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_a_trial_does_not_depend_on_its_batch(name):
    # each trial alone, and inside batches of 7 and 100 of which it is a
    # column at another position
    space = SPACES[name]()
    rng = np.random.default_rng(42)
    for length in range(1, 2 * space.max_grade + 1):
        s, _, stacks = _draw(space, rng, 100, length)
        whole = _batched(space, s, stacks)
        for start in (0, 50, 93):
            part = _batched(space, s[start : start + 7], [x[start : start + 7] for x in stacks])
            alone = _batched(space, s[start : start + 1], [x[start : start + 1] for x in stacks])
            for moments in (part, alone):
                n = len(moments)
                gap = np.abs(moments - whole[start : start + n])
                assert (gap <= 1e-15 * np.maximum(np.abs(moments), 1.0)).all(), length


def test_single_trial_moments_keep_their_scalar_form():
    space = SPACES["free_m2"]()
    x, y = (random_element(space.algebra, np.random.default_rng(43)) for _ in range(2))
    single = space.moment_operator(1.0, [x, y, x])
    stacked = space.moment_operator(np.array([1.0]), [x[None], y[None], x[None]])
    assert isinstance(single, complex) and stacked.shape == (1,)
    assert single == stacked[0]
    assert isinstance(space.moment_formula(1.0, [x, y]), complex)
    assert space.moment_formula(np.zeros(3), []).tolist() == [1.0, 1.0, 1.0]


def test_traciality_runs_one_walk_per_word_length(monkeypatch):
    # 100 trials of words of 2 to 6 letters: one walk per length, each
    # letter's three terms running one stacked kernel on at most every
    # grade
    space = FreeSpace(FunctionAlgebra([0.3, 0.7, 1.1]), 4, 0.7)
    kernel, calls = space._stacked_kernel, []

    def counting(kind, data, block, k):
        calls.append(len(block))
        return kernel(kind, data, block, k)

    monkeypatch.setattr(space, "_stacked_kernel", counting)
    (record,) = space.check_traciality(np.random.default_rng(44), trials=100)
    assert record.status == "pass"
    assert len(calls) <= 5 * 6 * 3 * (space.max_grade + 1), len(calls)


def test_a_walk_holds_a_bounded_chunk_of_trials(monkeypatch):
    # words of six letters over M_3 reach grade 3, 729 coordinates, and
    # each annihilation letter holds as many entries: from 100 trials to
    # 2000 the peak grows by what the trials' coefficients take, less than
    # twice their symbols, where one walk of all trials would hold several
    # grade-3 blocks of 23 MB
    space = FreeSpace(MatrixAlgebra(3), 3, 0.7)
    rng = np.random.default_rng(46)

    def growth():
        peaks = []
        for trials in (100, 2000):
            s = np.resize([0.0, 1.0, -0.5], trials)
            shape = (trials, 3, 3)
            stacks = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(6)]
            tracemalloc.start()
            space.moment_operator(s, stacks)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return peaks[1] - peaks[0], sum(x.nbytes for x in stacks)

    space.moment_operator(np.zeros(1), [np.eye(3)[None]] * 6)
    grown, symbols = growth()
    assert grown <= 2 * symbols, (grown, symbols)
    monkeypatch.setattr(qwnlab.graded, "_WALK_BLOCK", 2**40)
    grown, symbols = growth()
    assert grown > 10 * symbols, (grown, symbols)


# Replays of the per-trial draw order of each batched check.


def _replay_traciality(alg, rng, trials):
    for _ in range(trials):
        p, q = 1 + int(rng.integers(3)), 1 + int(rng.integers(3))
        for _ in range(p + q):
            random_element(alg, rng)


def _replay_moments(alg, rng, trials):
    for _ in range(trials):
        for _ in range(1 + int(rng.integers(6))):
            random_element(alg, rng)


def _replay_cumulants(alg, rng, trials):
    for _ in range(trials):
        random_element(alg, rng, real=True)


def _replay_freeness(alg, rng, trials, max_grade):
    half = alg.dim // 2
    supports = (range(half), range(half, alg.dim))
    for _ in range(trials):
        count = 2 + int(rng.integers(5))
        sizes = []
        for j in range(count):
            size = 1 + int(rng.integers(2))
            size = min(size, max(1, (2 * max_grade - sum(sizes)) // max(1, count - j)))
            sizes.append(size)
            for _ in range(size):
                random_element(alg, rng, support=supports[j % 2])


def _replay_elements(alg, rng, count):
    for _ in range(count):
        random_element(alg, rng)


STREAMS = {
    "free.traciality": (
        lambda space, rng: space.check_traciality(rng, trials=30),
        lambda space, rng: _replay_traciality(space.algebra, rng, 30),
    ),
    "free.moments": (
        lambda space, rng: space.check_moments(rng, trials=20),
        lambda space, rng: _replay_moments(space.algebra, rng, 20),
    ),
    "free.cumulants": (
        lambda space, rng: space.check_cumulants(rng, trials=10),
        lambda space, rng: _replay_cumulants(space.algebra, rng, 10),
    ),
    "free.freeness": (
        lambda space, rng: space.check_freeness(rng, trials=15),
        lambda space, rng: _replay_freeness(space.algebra, rng, 15, space.max_grade),
    ),
    "free.norms": (
        lambda space, rng: space.check_norm_estimates(rng, trials=9),
        lambda space, rng: _replay_elements(space.algebra, rng, 9),
    ),
    "bosonic.closed_forms": (
        lambda space, rng: space.check_gram_closed_forms(rng, trials=11),
        lambda space, rng: _replay_elements(space.algebra, rng, 22),
    ),
    "bosonic.norms": (
        lambda space, rng: space.check_norm_estimates(rng, trials=9),
        lambda space, rng: _replay_elements(space.algebra, rng, 9),
    ),
}


@pytest.mark.parametrize("check", sorted(STREAMS))
def test_a_batched_check_draws_in_the_per_trial_order(check):
    run, replay = STREAMS[check]
    space_type = FreeSpace if check.startswith("free") else BosonicSpace
    algebra = FunctionAlgebra([0.25, 0.5, 0.75, 1.0])
    if check != "free.freeness":
        algebra = MatrixAlgebra(2)
    space = space_type(algebra, 3)
    rng, replayed = np.random.default_rng(45), np.random.default_rng(45)
    records = run(space, rng)
    replay(space, replayed)
    assert all(r.status == "pass" for r in records), check
    assert rng.bit_generator.state == replayed.bit_generator.state
