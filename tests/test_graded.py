"""The graded scaffold (GradedFockSpace): operator matrices summed from
cached basis operators, the adjointness check on right-compressed Grams,
and operator words (word_matrix)."""

import numpy as np
import pytest

from qwnlab.algebra import FunctionAlgebra, MatrixAlgebra, random_element
from qwnlab.bosonic import BosonicSpace
from qwnlab.free import FreeSpace
from qwnlab.graded import ANNIHILATION, CREATION, NUMBER, GradeOverflowError
from qwnlab.qdeform import QFockSpace

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


def test_word_matches_the_hand_written_product(space):
    a, b, c, d = _symbols(space, 4)
    word = [(ANNIHILATION, a), (ANNIHILATION, b), (CREATION, c), (CREATION, d)]
    om = space.operator_matrix
    expected = (
        om(ANNIHILATION, a, 2)
        @ om(ANNIHILATION, b, 3)
        @ om(CREATION, c, 2)
        @ om(CREATION, d, 1)
    )
    assert np.array_equal(space.word_matrix(word, 1), expected)


def test_annihilating_the_vacuum_gives_zero(space):
    (x,) = _symbols(space, 1)
    mat = space.word_matrix([(CREATION, x), (ANNIHILATION, x)], 0)
    assert mat.shape == (1, 1) and not mat.any()


def test_a_vanishing_word_builds_no_factor(space, monkeypatch):
    x, y = _symbols(space, 2)
    built = []

    def counting(kind, symbol, k):
        built.append((kind, k))
        return type(space).operator_matrix(space, kind, symbol, k)

    monkeypatch.setattr(space, "operator_matrix", counting)
    word = [(CREATION, x), (CREATION, y), (ANNIHILATION, x), (ANNIHILATION, y)]
    mat = space.word_matrix(word, 1)
    dim = space.algebra.dim
    assert mat.shape == (dim, dim) and not mat.any()
    assert built == []


def test_creation_past_the_top_grade_raises(space):
    (x,) = _symbols(space, 1)
    with pytest.raises(GradeOverflowError):
        space.word_matrix([(CREATION, x), (CREATION, x)], 3)


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
    "free_m2": lambda: FreeSpace(MatrixAlgebra(2), 4, 0.7),
    "free_f3": lambda: FreeSpace(FunctionAlgebra([0.3, 0.7, 1.1]), 4, 0.7),
    "qdeform_negative": lambda: QFockSpace(3, -0.3, 4),
}


def _kernel_on_identity(space, kind, symbol, k):
    """The operator matrix as the kernel applied to the grade-k identity:
    the direct builder, kept as the reference."""
    dim = space.algebra.dim
    size = dim**k
    if kind == NUMBER and k == 0:
        return np.zeros((1, 1), dtype=complex)
    arr = np.eye(size, dtype=complex).reshape((dim,) * k + (size,))
    res = space._kernel(kind, space._symbol_tensors(kind, symbol), arr, k)
    return np.asarray(res).reshape(-1, size)


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
    space = NONDYADIC_SPACES[name]()
    calls = {}
    kernel = space._kernel

    def counting(kind, data, arr, k):
        calls[kind, k] = calls.get((kind, k), 0) + 1
        return kernel(kind, data, arr, k)

    monkeypatch.setattr(space, "_kernel", counting)
    rng = np.random.default_rng(6)
    cases = list(_cases(space))
    for _ in range(space.algebra.dim + 2):
        symbol = random_element(space.algebra, rng)
        for kind, k in cases:
            space.operator_matrix(kind, symbol, k)
    built = {case for case in cases if not (case[0] == NUMBER and case[1] == 0)}
    assert set(calls) == built
    assert max(calls.values()) <= space.algebra.dim


def _adjoint_residuals_by_compress(space, rng, trials):
    """The adjointness residuals with both sides formed in full and then
    compressed: the form before the right-compressed Grams."""
    alg = space.algebra
    worst_pair = worst_number = 0.0

    def gap(lhs, rhs):
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
        return np.linalg.norm(lhs - rhs) / scale

    for _ in range(trials):
        zeta = random_element(alg, rng)
        for k in range(space.max_grade):
            create = space.operator_matrix(CREATION, zeta, k)
            annihilate = space.operator_matrix(ANNIHILATION, zeta, k + 1)
            lhs = space._compress(annihilate.conj().T @ space.gram(k), k + 1, k)
            rhs = space._compress(space.gram(k + 1) @ create, k + 1, k)
            worst_pair = max(worst_pair, gap(lhs, rhs))
        for k in range(1, space.max_grade + 1):
            num = space.operator_matrix(NUMBER, zeta, k)
            num_star = space.operator_matrix(NUMBER, alg.star(zeta), k)
            lhs = space._compress(num.conj().T @ space.gram(k), k, k)
            rhs = space._compress(space.gram(k) @ num_star, k, k)
            worst_number = max(worst_number, gap(lhs, rhs))
    return worst_pair, worst_number


@pytest.mark.parametrize("name", ["bosonic_m2", "bosonic_f3", "free_m2", "free_f3"])
def test_adjointness_on_right_compressed_grams_matches_compress(name):
    space = NONDYADIC_SPACES[name]()
    records = space.check_adjointness(np.random.default_rng(7), trials=3)
    oracle = _adjoint_residuals_by_compress(space, np.random.default_rng(7), 3)
    for record, expected in zip(records, oracle):
        assert record.status == "pass"
        assert abs(record.residual - expected) <= 1e-15


def test_compression_hook_per_space():
    sym = BosonicSpace(FunctionAlgebra([0.5, 1.0]), 3)
    assert sym._compression(2) is sym.symmetric_basis(2)
    assert FreeSpace(FunctionAlgebra([0.5, 1.0]), 3)._compression(2) is None
    assert QFockSpace(2, 0.5, 3)._compression(2) is None
    q_one = QFockSpace(2, 1.0, 3)
    basis = q_one.symmetric_basis(2)
    assert q_one._compression(2) is basis
    mat = np.arange(32.0).reshape(4, 8)
    assert np.array_equal(
        q_one._compress(mat, 2, 3), basis.conj().T @ mat @ q_one.symmetric_basis(3)
    )
    assert QFockSpace(2, 0.5, 3)._compress(mat, 2, 3) is mat
