"""The graded scaffold (GradedFockSpace): operator words run as kernels on
column blocks and checked against the dense chained product of operator
matrices, letters summed from per-basis symbol tensors, operator norms by
Krylov runs on per-grade stacks of the basis operators' leading factors
(against the SVD of the compressed operator) and the adjointness check on
their slices, and the symmetric subspace built from index orbits."""

import gc
import itertools
import math
import tracemalloc
import weakref
from collections import Counter
from functools import reduce

import numpy as np
import pytest

import qwnlab.graded
from qwnlab.algebra import FunctionAlgebra, MatrixAlgebra, random_element
from qwnlab.bosonic import BosonicSpace
from qwnlab.free import FreeSpace
from qwnlab.graded import _SHIFTS, ANNIHILATION, CREATION, NUMBER, GradeOverflowError
from qwnlab.linalg import KRYLOV_TOL, RANGE_CUTOFF, symmetrizer_matrix
from qwnlab.qdeform import QFockSpace
from test_basis_checks import adjoint_residuals, compress, whole_grade_operators
from test_linalg import whitened_operator_norm


class RotatedMatrixAlgebra(MatrixAlgebra):
    """M_n in the basis of matrix units rotated by a fixed complex unitary
    U: basis element j is sum_i U[i, j] E_i.  Its structure constants,
    state vectors and Grams are complex, unlike those of every carrier in
    the package, so a dropped conjugation changes operators and norms."""

    def __init__(self, n):
        super().__init__(n)
        rng = np.random.default_rng(2003)
        raw = rng.standard_normal((self.dim, self.dim))
        self.rotation, _ = np.linalg.qr(raw + 1j * rng.standard_normal(raw.shape))

    def basis(self):
        return np.tensordot(self.rotation.T, super().basis(), axes=1)

    def coords(self, x):
        return super().coords(x) @ self.rotation.conj()

    def left_mult_matrix(self, x):
        u = self.rotation
        return u.conj().T @ super().left_mult_matrix(x) @ u


SPACES = {
    "bosonic": lambda: BosonicSpace(MatrixAlgebra(2), 4, 0.7),
    "free": lambda: FreeSpace(FunctionAlgebra([0.5, 0.75, 1.0]), 4, 0.7),
    "qdeform": lambda: QFockSpace(2, 0.5, 4),
}


@pytest.fixture(params=sorted(SPACES))
def space(request):
    return SPACES[request.param]()


def _symbols(space, count):
    rng = np.random.default_rng(11)
    return [random_element(space.algebra, rng) for _ in range(count)]


def _dense_chain(space, word, k):
    """The operator word as the chained product of its dense operator
    matrices, each built at the grade the letters to its right reach: the
    route before kernels on column blocks, kept as the reference."""
    grades = [k]
    for kind, _ in reversed(word):
        grades.append(grades[-1] + _SHIFTS[kind])
    factors = [
        space.operator_matrix(kind, symbol, grade)
        for (kind, symbol), grade in zip(word, reversed(grades[:-1]))
    ]
    return reduce(np.matmul, factors)


def test_word_matches_the_hand_written_product(space):
    # complex symbols: the kernels and the chained product sum in another
    # order, so they agree to rounding
    a, b, c, d = _symbols(space, 4)
    word = [(ANNIHILATION, a), (ANNIHILATION, b), (CREATION, c), (CREATION, d)]
    om = space.operator_matrix
    expected = (
        om(ANNIHILATION, a, 2)
        @ om(ANNIHILATION, b, 3)
        @ om(CREATION, c, 2)
        @ om(CREATION, d, 1)
    )
    built = space.word_matrix(word, 1)
    assert built.shape == expected.shape
    assert np.abs(built - expected).max() <= 1e-15 * np.abs(expected).max()


def test_annihilating_the_vacuum_gives_zero(space):
    (x,) = _symbols(space, 1)
    mat = space.word_matrix([(CREATION, x), (ANNIHILATION, x)], 0)
    assert mat.shape == (1, 1) and not mat.any()


def test_a_vanishing_word_builds_no_factor(space, monkeypatch):
    x, y = _symbols(space, 2)
    built = []
    kernel = space._kernel

    def counting(kind, data, block, k):
        built.append((kind, k))
        return kernel(kind, data, block, k)

    monkeypatch.setattr(space, "_kernel", counting)
    word = [(CREATION, x), (CREATION, y), (ANNIHILATION, x), (ANNIHILATION, y)]
    mat = space.word_matrix(word, 1)
    dim = space.algebra.dim
    assert mat.shape == (dim, dim) and not mat.any()
    assert built == []


def test_creation_past_the_top_grade_raises(space):
    (x,) = _symbols(space, 1)
    with pytest.raises(GradeOverflowError):
        space.word_matrix([(CREATION, x), (CREATION, x)], 3)


def test_a_walk_to_the_top_grade_and_back_matches_the_word(space):
    # b^4 b*^4 from the vacuum climbs to the top grade and back, the
    # longest pure word a vacuum walk accepts at grade 4; the unpruned word
    # on the vacuum column is the reference
    symbols = _symbols(space, 2 * space.max_grade)
    kinds = [ANNIHILATION] * space.max_grade + [CREATION] * space.max_grade
    word = list(zip(kinds, symbols))
    expected = space.word_matrix(word, 0)[0, 0]
    assert space.vacuum_expectation(word) == pytest.approx(expected, rel=1e-14)


# Spaces up to grade 4 for the operator-matrix oracle.  The dyadic ones
# have dyadic weights, gamma and q, so at dyadic symbols both builders sum
# exact products and must agree bit for bit.
DYADIC_SPACES = {
    "bosonic_m2": lambda: BosonicSpace(MatrixAlgebra(2), 4, 0.5),
    "bosonic_f3": lambda: BosonicSpace(FunctionAlgebra([0.5, 0.75, 1.0]), 4, 0.5),
    "free_m2": lambda: FreeSpace(MatrixAlgebra(2), 4, 0.5),
    "free_f3": lambda: FreeSpace(FunctionAlgebra([0.5, 0.75, 1.0]), 4, 0.5),
    "qdeform_half": lambda: QFockSpace(3, 0.5, 4),
}
NONDYADIC_SPACES = {
    "bosonic_m2": lambda: BosonicSpace(MatrixAlgebra(2), 4, 0.7),
    "bosonic_f3": lambda: BosonicSpace(FunctionAlgebra([0.3, 0.7, 1.1]), 4, 0.7),
    "bosonic_rotated": lambda: BosonicSpace(RotatedMatrixAlgebra(2), 4, 0.7),
    "free_m2": lambda: FreeSpace(MatrixAlgebra(2), 4, 0.7),
    "free_f3": lambda: FreeSpace(FunctionAlgebra([0.3, 0.7, 1.1]), 4, 0.7),
    "free_rotated": lambda: FreeSpace(RotatedMatrixAlgebra(2), 4, 0.7),
    "qdeform_negative": lambda: QFockSpace(3, -0.3, 4),
}


def _kernel_on_identity(space, kind, symbol, k):
    """The operator matrix as the kernel applied to the grade-k identity
    with the symbol tensors of the symbol itself, not summed over the
    basis: the direct builder, kept as the reference."""
    if kind == NUMBER and k == 0:
        return np.zeros((1, 1), dtype=complex)
    data = space._symbol_tensors(kind, symbol)
    return space._kernel(kind, data, np.eye(space.algebra.dim**k), k)


def _cases(space):
    """Every (kind, grade) with an operator leaving that grade, up to 4."""
    kinds = [CREATION, ANNIHILATION]
    if not isinstance(space, QFockSpace):
        kinds.append(NUMBER)
    top = space.max_grade
    for kind in kinds:
        low = 1 if kind == ANNIHILATION else 0
        high = top - 1 if kind == CREATION else top
        for k in range(low, high + 1):
            yield kind, k


@pytest.mark.parametrize("name", sorted(DYADIC_SPACES))
def test_basis_sum_is_exact_at_dyadic_symbols(name):
    space = DYADIC_SPACES[name]()
    rng = np.random.default_rng(4)
    for kind, k in _cases(space):
        for _ in range(2):
            symbol = random_element(space.algebra, rng, dyadic=True)
            expected = _kernel_on_identity(space, kind, symbol, k)
            assert np.array_equal(space.operator_matrix(kind, symbol, k), expected)


@pytest.mark.parametrize("name", sorted(NONDYADIC_SPACES))
def test_basis_sum_matches_the_kernel_at_complex_symbols(name):
    # complex symbols: a dropped conjugation on annihilation shows here
    space = NONDYADIC_SPACES[name]()
    rng = np.random.default_rng(5)
    for kind, k in _cases(space):
        for _ in range(2):
            symbol = random_element(space.algebra, rng)
            expected = _kernel_on_identity(space, kind, symbol, k)
            built = space.operator_matrix(kind, symbol, k)
            assert built.shape == expected.shape
            assert np.abs(built - expected).max() <= 1e-15 * np.abs(expected).max()


@pytest.mark.parametrize("name", sorted(NONDYADIC_SPACES))
def test_kernel_runs_once_per_basis_element(name, monkeypatch):
    # The symbol tensors are built at the basis elements only, once per
    # kind; the leading factors of the basis run the kernel once per basis
    # element, and an operator matrix once.  The free factors run theirs
    # on the leading slots, so its whole-grade basis operators, the
    # oracle, stand in for them.
    space = NONDYADIC_SPACES[name]()
    calls = Counter()
    tensors = Counter()
    kernel = space._kernel
    symbol_tensors = space._symbol_tensors

    def counting(kind, data, block, k):
        calls[kind, k] += 1
        return kernel(kind, data, block, k)

    def counting_tensors(kind, symbol):
        tensors[kind] += 1
        return symbol_tensors(kind, symbol)

    monkeypatch.setattr(space, "_kernel", counting)
    monkeypatch.setattr(space, "_symbol_tensors", counting_tensors)
    rng = np.random.default_rng(6)
    cases = [case for case in _cases(space) if case != (NUMBER, 0)]
    dim = space.algebra.dim
    for kind, k in cases:
        if isinstance(space, FreeSpace):
            list(whole_grade_operators(space, kind, k))
        else:
            space._leading_stack(kind, k)
    for _ in range(dim + 2):
        symbol = random_element(space.algebra, rng)
        for kind, k in cases:
            space.operator_matrix(kind, symbol, k)
    assert calls == Counter({case: 2 * dim + 2 for case in cases})
    assert tensors == Counter({kind: dim for kind, _ in cases})


def _words(space):
    """Every word of one, two or three letters whose kinds the space has,
    at each grade it never leaves the truncation from (the vanishing words
    are tested on their own)."""
    kinds = [CREATION, ANNIHILATION]
    if not isinstance(space, QFockSpace):
        kinds.append(NUMBER)
    for length in (1, 2, 3):
        for word_kinds in itertools.product(kinds, repeat=length):
            for k in range(space.max_grade + 1):
                grades = [k]
                for kind in reversed(word_kinds):
                    grades.append(grades[-1] + _SHIFTS[kind])
                if 0 <= min(grades) and max(grades) <= space.max_grade:
                    yield word_kinds, k


def _check_words_against_the_chain(space, rng, dyadic):
    for word_kinds, k in _words(space):
        word = [
            (kind, random_element(space.algebra, rng, dyadic=dyadic))
            for kind in word_kinds
        ]
        expected = _dense_chain(space, word, k)
        columns = rng.standard_normal((expected.shape[1], 3))
        if dyadic:
            columns = np.round(4 * columns) / 4
        for built, oracle in (
            (space.word_matrix(word, k), expected),
            (space.word_matrix(word, k, columns), expected @ columns),
        ):
            assert built.shape == oracle.shape, (word_kinds, k)
            if dyadic:
                assert np.array_equal(built, oracle), (word_kinds, k)
            else:
                scale = np.abs(oracle).max()
                assert np.abs(built - oracle).max() <= 1e-15 * scale, (word_kinds, k)


@pytest.mark.parametrize("name", sorted(DYADIC_SPACES))
def test_words_are_exact_at_dyadic_symbols(name):
    # dyadic weights, gamma and q: both routes sum exact products
    space = DYADIC_SPACES[name]()
    _check_words_against_the_chain(space, np.random.default_rng(14), True)


@pytest.mark.parametrize("name", sorted(NONDYADIC_SPACES))
def test_words_match_the_dense_chain_at_complex_symbols(name):
    space = NONDYADIC_SPACES[name]()
    _check_words_against_the_chain(space, np.random.default_rng(15), False)


# the scaffold's norm and adjointness oracles, over a complex base algebra too
ORACLE_CASES = [
    "bosonic_m2",
    "bosonic_f3",
    "bosonic_rotated",
    "free_m2",
    "free_f3",
    "free_rotated",
]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_adjointness_on_right_compressed_grams_matches_compress(name):
    space = NONDYADIC_SPACES[name]()
    records = space.check_adjointness()
    oracle = adjoint_residuals(space, space.algebra.basis())
    for record, expected in zip(records, oracle):
        assert record.status == "pass"
        assert abs(record.residual - expected) <= 1e-15


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_operator_norms_match_the_whitened_compressed_matrix(name):
    # complex symbols at non-dyadic weights; each Krylov norm against the
    # whitened norm of the compressed operator matrix, one SVD, the route
    # before the stacks
    space = NONDYADIC_SPACES[name]()
    symbols = _symbols(space, 3)
    for kind, k in _cases(space):
        if kind == NUMBER and k == 0:
            continue
        k_out = k + _SHIFTS[kind]
        out, into = space._whitening(k_out), space._whitening(k)
        norms, residuals = space._operator_norms(kind, symbols, k)
        assert norms.shape == residuals.shape == (len(symbols),)
        assert (residuals <= KRYLOV_TOL).all(), (kind, k)
        for symbol, norm in zip(symbols, norms):
            mat = compress(space, space.operator_matrix(kind, symbol, k), k_out, k)
            expected = whitened_operator_norm(mat, out, into)
            assert abs(norm - expected) <= 1e-13 * expected, (kind, k)


def test_batched_norms_match_one_unbatched_run(monkeypatch):
    # above _NORM_BATCH symbols the Lanczos runs are split; each symbol's
    # norm is its own Ritz value, so the split moves it at rounding level
    space = FreeSpace(MatrixAlgebra(2), 4, 0.7)
    symbols = _symbols(space, 300)
    assert len(symbols) > 2 * qwnlab.graded._NORM_BATCH
    cases = [(kind, k) for kind, k in _cases(space) if kind != NUMBER or k]
    batched = {(kind, k): space._operator_norms(kind, symbols, k) for kind, k in cases}
    monkeypatch.setattr(qwnlab.graded, "_NORM_BATCH", len(symbols))
    for (kind, k), (norms, residuals) in batched.items():
        expected, _ = space._operator_norms(kind, symbols, k)
        assert norms.shape == residuals.shape == (len(symbols),)
        assert (residuals <= KRYLOV_TOL).all(), (kind, k)
        assert (np.abs(norms - expected) <= 1e-13 * expected).all(), (kind, k)


def _warm_norm_check_peak(space, trials):
    tracemalloc.start()
    try:
        space.check_norm_estimates(np.random.default_rng(1), trials=trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_norm_check_memory_is_flat_in_the_trials():
    # a Lanczos run holds a basis vector per step, side and symbol; the
    # batches keep four times the symbols at about one batch's memory
    space = FreeSpace(MatrixAlgebra(2), 4)
    space.check_norm_estimates(np.random.default_rng(1), trials=1)
    batch = qwnlab.graded._NORM_BATCH
    one = _warm_norm_check_peak(space, batch)
    four = _warm_norm_check_peak(space, 4 * batch)
    assert four <= 1.25 * one, (one, four)


def test_operator_norms_of_no_symbols_are_empty():
    space = FreeSpace(MatrixAlgebra(2), 2)
    norms, residuals = space._operator_norms(CREATION, [], 1)
    assert norms.shape == residuals.shape == (0,)


@pytest.mark.parametrize("name", ["bosonic_m2", "free_rotated"])
def test_norm_check_draws_only_the_trial_symbols(name):
    # the Krylov start vector has a generator of its own: after the check,
    # the suite's generator is where drawing the symbols alone leaves it
    space = NONDYADIC_SPACES[name]()
    rng = np.random.default_rng(13)
    space.check_norm_estimates(rng, trials=4)
    alone = np.random.default_rng(13)
    for _ in range(4):
        random_element(space.algebra, alone)
    assert rng.bit_generator.state == alone.bit_generator.state


def test_norm_records_fail_when_the_ritz_residual_is_above_the_slack(monkeypatch):
    # a Ritz value is a lower bound on the norm, so a norm whose residual
    # is not small enough must not let a bound pass
    krylov = qwnlab.graded.krylov_operator_norms

    def loose(*args):
        norms, residuals = krylov(*args)
        return norms, residuals + 1e-6

    for name in ("bosonic_f3", "free_f3"):
        space = NONDYADIC_SPACES[name]()
        rng = np.random.default_rng(3)
        assert all(r.status == "pass" for r in space.check_norm_estimates(rng, trials=2))
        monkeypatch.setattr(qwnlab.graded, "krylov_operator_norms", loose)
        records = space.check_norm_estimates(rng, trials=2)
        monkeypatch.undo()
        assert [r.status for r in records] == ["fail"] * len(records), name
        assert all("Ritz residual: 1.00e-06" in r.notes for r in records)


# The stacks each check builds, per (kind, grade): norms at every grade
# 1..top, adjointness of the pair below the top and of the number on 1..top.
def _norm_stacks(top):
    return [(CREATION, k - 1) for k in range(1, top + 1)] + [
        (kind, k) for k in range(1, top + 1) for kind in (ANNIHILATION, NUMBER)
    ]


def _adjoint_stacks(top, number=True):
    pairs = [(CREATION, k) for k in range(top)]
    pairs += [(ANNIHILATION, k + 1) for k in range(top)]
    return pairs + ([(NUMBER, k) for k in range(1, top + 1)] if number else [])


def _norms(space, trials):
    return space.check_norm_estimates(np.random.default_rng(8), trials=trials)


def _adjointness(space, trials):
    # the shared check runs on the basis elements and takes no trials
    return space.check_adjointness()


# Every space's adjointness and norms read its operators as stacks of
# basis leading factors, one stack per (kind, grade).
STACK_CHECKS = {
    "bosonic_norms": ("bosonic_m2", _norms, _norm_stacks),
    "bosonic_adjointness": ("bosonic_f3", _adjointness, _adjoint_stacks),
    "free_norms": ("free_f3", _norms, _norm_stacks),
    "free_adjointness": ("free_m2", _adjointness, _adjoint_stacks),
    "qdeform_adjointness": (
        "qdeform_negative",
        _adjointness,
        lambda top: _adjoint_stacks(top, number=False),
    ),
}


def _run_counting_stacks(space, check, trials, monkeypatch):
    """Run one check with operator_matrix refused; return the (kind, grade)
    count of the factor stacks it built and weak references to them, after
    checking that each stack took one ``_leading`` factor per basis
    element."""
    built, factors = Counter(), Counter()
    stacks = []
    leading, leading_stack = space._leading, space._leading_stack

    def counting_factors(kind, coeffs, k):
        factors[kind, k] += 1
        return leading(kind, coeffs, k)

    def counting(kind, k):
        built[kind, k] += 1
        stack = leading_stack(kind, k)
        stacks.append(weakref.ref(stack))
        return stack

    def refuse(kind, symbol, k):
        raise AssertionError("operator_matrix called")

    monkeypatch.setattr(space, "_leading", counting_factors)
    monkeypatch.setattr(space, "_leading_stack", counting)
    monkeypatch.setattr(space, "operator_matrix", refuse)
    records = check(space, trials)
    assert all(record.status == "pass" for record in records)
    dim = space.algebra.dim
    assert factors == Counter({case: dim * count for case, count in built.items()})
    return built, stacks


@pytest.mark.parametrize("case", sorted(STACK_CHECKS))
def test_checks_build_each_stack_once_whatever_the_trials(case, monkeypatch):
    name, check, expected = STACK_CHECKS[case]
    for trials in (1, 4):
        space = NONDYADIC_SPACES[name]()
        built, _ = _run_counting_stacks(space, check, trials, monkeypatch)
        assert built == Counter(expected(space.max_grade)), trials


@pytest.mark.parametrize("case", sorted(STACK_CHECKS))
def test_no_stack_outlives_its_check(case, monkeypatch):
    name, check, expected = STACK_CHECKS[case]
    space = NONDYADIC_SPACES[name]()
    _, stacks = _run_counting_stacks(space, check, 2, monkeypatch)
    gc.collect()
    assert len(stacks) == len(expected(space.max_grade))
    assert all(ref() is None for ref in stacks)


@pytest.mark.parametrize("case", sorted(STACK_CHECKS))
def test_checks_reach_operators_only_through_the_leading_factors(case, monkeypatch):
    # no space overrides the shared routes, and every kernel the check
    # runs, and every cached bosonic orbit matrix it reads, is reached
    # from inside ``_leading``; the free factors are read off the factor
    # table, so the free checks reach no kernel and no word at all
    name, check, _ = STACK_CHECKS[case]
    space = NONDYADIC_SPACES[name]()
    assert not {"_adjoint_gaps", "_whitened_products"} & set(vars(type(space)))
    depth, reached = [0], Counter()
    leading = space._leading

    def entered(kind, coeffs, k):
        depth[0] += 1
        try:
            return leading(kind, coeffs, k)
        finally:
            depth[0] -= 1

    def guarded(method):
        def run(*args):
            assert depth[0], (method.__name__, args[0])
            reached[method.__name__] += 1
            return method(*args)

        return run

    monkeypatch.setattr(space, "_leading", entered)
    for attr in ("_kernel", "_run", "_orbit_operators"):
        if hasattr(space, attr):
            monkeypatch.setattr(space, attr, guarded(getattr(space, attr)))
    records = check(space, 2)
    assert all(record.status == "pass" for record in records)
    if isinstance(space, FreeSpace):
        assert not reached, reached
    else:
        assert reached


@pytest.mark.parametrize("name", ["bosonic_m2", "bosonic_f3", "free_f3"])
def test_positivity_and_norms_share_one_whitening_per_grade(name, monkeypatch):
    # one eigvalsh per grade gives the positivity sweep's eigenvalues and
    # picks the whitening: Cholesky for a definite metric, and eigh, whose
    # eigenvalues it keeps, for the others, such as the bosonic metric over
    # M_2 from grade 2; the Krylov runs' batched Ritz problems are 3-D
    space = NONDYADIC_SPACES[name]()
    definite = 0
    for k in range(space.max_grade + 1):
        vals = np.linalg.eigvalsh(space._metric(k))
        definite += bool(vals[0] > RANGE_CUTOFF * vals[-1])
    solves = Counter()

    def counting(solver, label):
        def run(mat, *args, **kwargs):
            if np.ndim(mat) == 2:
                solves[label] += 1
            return solver(mat, *args, **kwargs)

        return run

    for label in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, label, counting(getattr(np.linalg, label), label))
    records = space.check_positivity()
    records += space.check_norm_estimates(np.random.default_rng(4), trials=3)
    assert all(r.status != "fail" for r in records)
    top = space.max_grade + 1
    assert solves == Counter(eigvalsh=top, cholesky=definite, eigh=top - definite)
    if name.startswith("free"):
        assert definite == top


def test_metric_hook_per_space():
    # the free space checks on the whole grade, so its metric is its Gram;
    # the bosonic one on the symmetric subspace, one row and column per
    # orbit, S^H G S with S the orthonormal orbit basis; the q-deformed
    # space restricts its flat matrices to the symmetric basis at q = 1 only
    free = FreeSpace(FunctionAlgebra([0.5, 1.0]), 3)
    assert free._metric(2) is free.gram(2)
    sym = BosonicSpace(FunctionAlgebra([0.5, 1.0]), 3)
    basis = sym.symmetric_basis(2)
    assert sym._metric(2).shape == (3, 3)
    expected = basis.conj().T @ sym.gram(2) @ basis
    assert np.abs(sym._metric(2) - expected).max() <= 1e-15 * np.abs(expected).max()
    q_one = QFockSpace(2, 1.0, 3)
    mat = np.arange(32.0).reshape(4, 8)
    assert np.array_equal(
        q_one._compress(mat, 2, 3),
        q_one.symmetric_basis(2).conj().T @ mat @ q_one.symmetric_basis(3),
    )
    q_half = QFockSpace(2, 0.5, 3)
    assert q_half._columns(2) is None
    assert q_half._compress(mat, 2, 3) is mat


# Base dimensions for the orbit tests: 4 is M_2 and 9 is M_3.
ORBIT_DIMS = (1, 2, 3, 4, 9)


def _orbit_grades(dim):
    """Grades up to 7 with at most 4096 flat coordinates.  The oracle loops
    over the k! permutations, and past grade 7 a diagonal entry of S^T S
    sums enough rounded squares to drift beyond 1e-15."""
    return [k for k in range(8) if dim**k <= 4096]


def _orbit_space(dim, top):
    return BosonicSpace(FunctionAlgebra(np.full(dim, 1.0 / dim)), max(top, 1))


@pytest.mark.parametrize("dim", ORBIT_DIMS)
def test_orbit_symmetrizer_is_bit_identical_to_the_permutation_sum(dim):
    grades = _orbit_grades(dim)
    space = _orbit_space(dim, grades[-1])
    for k in grades:
        assert np.array_equal(space.symmetrizer(k), symmetrizer_matrix(dim, k)), k


@pytest.mark.parametrize("dim", ORBIT_DIMS)
def test_orbit_basis_is_orthonormal_and_spans_the_symmetrizer(dim):
    grades = _orbit_grades(dim)
    space = _orbit_space(dim, grades[-1])
    for k in grades:
        basis = space.symmetric_basis(k)
        # complex as the kernels take it, with a zero imaginary part
        assert basis.dtype == np.complex128 and not basis.imag.any()
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(basis.shape[1])).max() <= 1e-15
        assert np.abs(basis @ basis.conj().T - space.symmetrizer(k)).max() <= 1e-15


def test_symmetric_basis_needs_no_eigendecomposition(monkeypatch):
    space = BosonicSpace(MatrixAlgebra(2), 5)

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    basis = space.symmetric_basis(5)
    # one column per multiset of 5 indices out of 4: C(8, 5)
    assert basis.shape == (4**5, 56)


def _permutation_sum(mat, dim, k):
    """Sum of the k! slot-permuted copies of the columns of mat: k! times
    the column symmetrization, the route before index orbits, kept as the
    reference."""
    arr = mat.reshape((mat.shape[0],) + (dim,) * k)
    total = np.zeros_like(arr)
    for perm in itertools.permutations(range(k)):
        total = total + arr.transpose((0,) + tuple(1 + p for p in perm))
    return total.reshape(mat.shape)


def _orbit_representatives(dim, k):
    """Flat index of the sorted tuple of each orbit, in the orbit order."""
    tuples = itertools.product(range(dim), repeat=k)
    return [i for i, t in enumerate(tuples) if list(t) == sorted(t)]


@pytest.mark.parametrize("dim", [2, 3, 4, 9])
def test_orbit_representatives_and_labels_read_the_indicator(dim):
    # each orbit's representative is its sorted tuple, the first index the
    # indicator marks in its column, and each index's label is its orbit
    space = BosonicSpace(FunctionAlgebra(np.ones(dim) / dim), 4, 1.0)
    for k in range(5):
        indicator, sizes, reps, orbit = space._orbits(k)
        assert reps.tolist() == _orbit_representatives(dim, k)
        assert np.array_equal(reps, indicator.argmax(axis=0))
        assert np.array_equal(orbit, indicator.argmax(axis=1))
        assert np.array_equal(sizes, indicator.sum(axis=0))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_right_symmetrized_matches_the_permutation_average(dim):
    # The symmetrized commutators run their words on the orbit indicators
    # and divide by the orbit sizes.  Against the dense chained product
    # averaged over the k! slot permutations: at real dyadic symbols over
    # the dyadic weights 1/2 and 1/4, the orbit sums are exact, so k!/size
    # times each is the permutation sum bit for bit; the means, divided by
    # different rounded reciprocals, agree to rounding.
    space = _orbit_space(dim, 5)
    rng = np.random.default_rng(12)
    dyadic = dim != 3
    for k in range(space.max_grade + 1):
        if dim**k > 1024:
            continue
        indicator, sizes = space._orbits(k)[:2]
        keep = _orbit_representatives(dim, k)
        words = [[ANNIHILATION, CREATION]] if k < space.max_grade else []
        words += [[ANNIHILATION, ANNIHILATION]] if k >= 2 else []
        for word_kinds in words:
            word = [
                (kind, random_element(space.algebra, rng, real=True, dyadic=True))
                for kind in word_kinds
            ]
            sums = space.word_matrix(word, k, indicator)
            total = _permutation_sum(_dense_chain(space, word, k), dim, k)[:, keep]
            if dyadic:
                assert np.array_equal(sums * (math.factorial(k) // sizes), total)
            if k == 5:
                # the oracle's running sum of 120 rounded copies drifts
                # past 1e-15
                continue
            means = total / math.factorial(k)
            assert np.abs(sums / sizes - means).max() <= 1e-15 * np.abs(means).max()


def test_right_symmetrized_keeps_exact_cancellation():
    # At dyadic symbols the annihilation-annihilation commutator is exactly
    # 0 on the orbit columns, although it is not on the whole grade.
    rng = np.random.default_rng(13)
    for algebra in (FunctionAlgebra([0.5, 0.75]), MatrixAlgebra(2)):
        space = BosonicSpace(algebra, 4, 0.5)
        for k in range(2, 5):
            indicator, sizes = space._orbits(k)[:2]
            for _ in range(3):
                left, right = (
                    [(ANNIHILATION, random_element(algebra, rng, dyadic=True))]
                    for _ in range(2)
                )
                assert space.commutator(left, right, k).any()
                sums = space.commutator(left, right, k, columns=indicator)
                assert not (sums / sizes).any()
