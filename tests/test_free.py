"""Free quadratic space: anchors, exact relations, moment formulas."""

import itertools
import tracemalloc

import numpy as np
import pytest

import qwnlab.combinatorics
import qwnlab.free
from qwnlab.algebra import (
    FunctionAlgebra,
    MatrixAlgebra,
    basis_word_products,
    random_element,
)
from qwnlab.bosonic import ANNIHILATION, CREATION, NUMBER
from qwnlab.combinatorics import cumulant_weight, interval_compositions
from qwnlab.free import FreeSpace
from qwnlab.graded import GradeOverflowError
from qwnlab.linalg import gram_whitening, hermitize


def one_point_space(gamma=1.0, max_grade=4):
    return FreeSpace(FunctionAlgebra([1.0]), max_grade, gamma=gamma)


def test_one_point_gram_anchors():
    space = one_point_space()
    # grade 1: gamma * state(chi * chi) = 1
    assert space.gram(1)[0, 0] == pytest.approx(1.0)
    # grade 2: the two interval splittings contribute 1 each
    assert space.gram(2)[0, 0] == pytest.approx(2.0)


def test_one_point_annihilation_action():
    space = one_point_space()
    out = space.operator_matrix(ANNIHILATION, np.ones(1), 2) @ np.ones(1)
    assert out[0] == pytest.approx(2.0)


def test_exact_operator_relations():
    alg = FunctionAlgebra([0.5, 1.0])
    space = FreeSpace(alg, max_grade=3, gamma=0.75)
    rng = np.random.default_rng(6)
    phi = random_element(alg, rng, dyadic=True)
    psi = random_element(alg, rng, dyadic=True)
    zeta = random_element(alg, rng, dyadic=True)
    pairing = 0.75 * alg.state(alg.mul(alg.star(psi), phi))
    for k in range(3):
        size = alg.dim**k
        contract = space.operator_matrix(
            ANNIHILATION, psi, k + 1
        ) @ space.operator_matrix(CREATION, phi, k)
        expected = pairing * np.eye(size) + space.operator_matrix(
            NUMBER, alg.mul(alg.star(psi), phi), k
        )
        assert np.allclose(contract, expected, atol=1e-13)
        shift = space.operator_matrix(NUMBER, zeta, k + 1) @ space.operator_matrix(
            CREATION, phi, k
        )
        assert np.allclose(
            shift,
            space.operator_matrix(CREATION, alg.mul(zeta, phi), k),
            atol=1e-13,
        )


def test_number_of_unit_is_identity_above_vacuum():
    space = FreeSpace(FunctionAlgebra([0.5, 0.25]), max_grade=3)
    one = space.algebra.unit()
    for k in range(1, 4):
        assert np.allclose(
            space.operator_matrix(NUMBER, one, k), np.eye(2**k)
        )
    assert np.allclose(space.operator_matrix(NUMBER, one, 0), np.zeros((1, 1)))


def test_field_moment_anchors():
    space = one_point_space(gamma=0.5, max_grade=3)
    chi = np.ones(1)
    s = 1.5
    # second moment: gamma * state(chi^2); third: s * gamma * state(chi^3)
    assert space.moment_operator(s, [chi, chi]) == pytest.approx(0.5)
    assert space.moment_operator(s, [chi, chi, chi]) == pytest.approx(s * 0.5)


def test_moment_operator_equals_noncrossing_formula():
    alg = MatrixAlgebra(2)
    space = FreeSpace(alg, max_grade=3, gamma=0.5)
    rng = np.random.default_rng(13)
    symbols = [random_element(alg, rng) for _ in range(5)]
    op = space.moment_operator(2.0, symbols)
    formula = space.moment_formula(2.0, symbols)
    assert op == pytest.approx(formula, rel=1e-12)


def plain_moment_formula(space, s, symbols):
    """The noncrossing expansion with every block's weight computed afresh
    in each partition: the route before the per-call memo."""
    alg = space.algebra
    total = 0.0 + 0.0j
    for blocks in qwnlab.combinatorics.noncrossing_blocks(len(symbols)):
        term = 1.0 + 0.0j
        for block in blocks:
            prod = symbols[block[0] - 1]
            for pos in block[1:]:
                prod = alg.mul(prod, symbols[pos - 1])
            term *= space.gamma * alg.state(prod) * cumulant_weight(len(block), s)
        total += term
    return total


@pytest.mark.parametrize(
    "alg", [FunctionAlgebra([0.3, 0.7, 1.1]), MatrixAlgebra(2)], ids=repr
)
def test_memoized_block_weights_sum_bit_for_bit(alg):
    space = FreeSpace(alg, max_grade=4, gamma=0.7)
    rng = np.random.default_rng(17)
    for s in (0.0, 1.0, 2.0, -0.5):
        for length in range(1, 9):
            symbols = [random_element(alg, rng) for _ in range(length)]
            memoized = space.moment_formula(s, symbols)
            assert memoized == plain_moment_formula(space, s, symbols), (s, length)


def test_cumulant_closed_form_matches_weight():
    space = one_point_space(gamma=0.75)
    chi = np.ones(1)
    for n in range(2, 6):
        assert space.cumulant_closed_form(2.0, [chi] * n) == pytest.approx(
            0.75 * cumulant_weight(n, 2.0)
        )


def test_centered_products_of_disjoint_symbols_vanish():
    # freeness: alternating centered factors from disjointly supported
    # symbol families have vacuum moment zero
    alg = FunctionAlgebra([0.5, 0.5, 1.0])
    space = FreeSpace(alg, max_grade=3)
    rng = np.random.default_rng(17)
    a = random_element(alg, rng, support=[0])
    b = random_element(alg, rng, support=[1, 2])
    value = space.centered_product_expectation(1.0, [[a], [b], [a]])
    assert abs(value) < 1e-12


def _centered_by_inclusion_exclusion(space, s, groups):
    """The vacuum moment of the product of (X_g - c_g) over the groups,
    c_g the moment of X_g, expanded over the subsets of groups that keep
    their X_g: each subset contributes the moment of its groups' symbols in
    order, times -c_g for every group left out."""
    centers = [space.moment_operator(s, g) for g in groups]
    total = 0j
    for keep in itertools.product((False, True), repeat=len(groups)):
        symbols = [x for g, kept in zip(groups, keep) if kept for x in g]
        term = space.moment_operator(s, symbols)
        for c, kept in zip(centers, keep):
            if not kept:
                term *= -c
        total += term
    return total, max(1.0, max(abs(c) for c in centers) ** len(groups))


@pytest.mark.parametrize("count", [2, 3, 4])
def test_centered_product_matches_inclusion_exclusion(count):
    alg = FunctionAlgebra([0.5, 1.0, 0.75, 0.25])
    space = FreeSpace(alg, max_grade=6, gamma=0.75)
    rng = np.random.default_rng(40 + count)
    for s in (0.0, 1.0, -0.5):
        sizes = [1 + int(rng.integers(3)) for _ in range(count)]
        groups = [[random_element(alg, rng) for _ in range(n)] for n in sizes]
        expected, scale = _centered_by_inclusion_exclusion(space, s, groups)
        value = space.centered_product_expectation(s, groups)
        assert abs(value - expected) <= 1e-12 * max(scale, abs(expected))


def test_moments_at_twice_the_top_grade_stay_exact():
    # the longest word the walk accepts: grades that cannot return to the
    # vacuum are pruned, never truncated, so the moment is the formula's
    space = FreeSpace(MatrixAlgebra(2), max_grade=4, gamma=0.5)
    rng = np.random.default_rng(19)
    symbols = [random_element(space.algebra, rng) for _ in range(8)]
    for s in (0.0, 1.5):
        op = space.moment_operator(s, symbols)
        assert op == pytest.approx(space.moment_formula(s, symbols), rel=1e-12)
    with pytest.raises(GradeOverflowError):
        space.moment_operator(1.0, symbols + symbols[:1])


def test_gram_positive_for_matrix_algebra():
    space = FreeSpace(MatrixAlgebra(2), max_grade=3)
    for k in range(1, 4):
        gram = space.gram(k)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        assert eigs.min() > -1e-10


def test_vacuum_expectation_word_order():
    alg = FunctionAlgebra([0.5, 0.25])
    space = FreeSpace(alg, max_grade=2, gamma=2.0)
    rng = np.random.default_rng(3)
    phi = random_element(alg, rng)
    psi = random_element(alg, rng)
    measured = space.vacuum_expectation(((ANNIHILATION, phi), (CREATION, psi)))
    expected = 2.0 * alg.state(alg.mul(alg.star(phi), psi))
    assert measured == pytest.approx(expected)
    # creation alone has no vacuum component
    assert space.vacuum_expectation(((CREATION, phi),)) == 0.0


def test_norm_estimates_whiten_each_grade_once(monkeypatch):
    import qwnlab.graded

    calls = []
    original = qwnlab.graded.gram_whitening

    def counting(gram, *args):
        calls.append(gram.shape)
        return original(gram, *args)

    monkeypatch.setattr(qwnlab.graded, "gram_whitening", counting)
    space = FreeSpace(MatrixAlgebra(2), max_grade=3)
    records = space.check_norm_estimates(np.random.default_rng(3), trials=5)
    assert all(r.status == "pass" for r in records)
    assert sorted(calls) == [(4**k, 4**k) for k in range(space.max_grade + 1)]


def interval_composition_gram(alg, gamma, k):
    """The free Gram as the sum over interval compositions of Kronecker
    chains of interval factors, each factor from D**(2m) algebra products."""
    if k == 0:
        return np.ones((1, 1), dtype=complex)
    words = basis_word_products(alg, k)
    factors = {}
    for m in range(1, k + 1):
        prod = alg.mul(alg.star(words[m - 1])[:, None], words[m - 1][None, :])
        factors[m] = gamma * alg.state(prod)
    mat = np.zeros((alg.dim**k, alg.dim**k), dtype=complex)
    for blocks in interval_compositions(k):
        term = np.ones((1, 1), dtype=complex)
        for block in blocks:
            term = np.kron(term, factors[len(block)])
        mat += term
    return hermitize(mat)


@pytest.mark.parametrize(
    "alg",
    [
        FunctionAlgebra([0.5, 0.75]),
        FunctionAlgebra([0.25, 1.25, 0.5]),
        MatrixAlgebra(2),
    ],
    ids=repr,
)
@pytest.mark.parametrize("gamma", [1.0, 0.7])
def test_gram_recursion_matches_interval_composition_sum(alg, gamma):
    space = FreeSpace(alg, max_grade=5, gamma=gamma)
    for k in range(6):
        expected = interval_composition_gram(alg, gamma, k)
        if gamma == 1.0:
            # dyadic weights and entries: both routes are exact
            assert np.array_equal(space.gram(k), expected), k
        else:
            gap = np.abs(space.gram(k) - expected).max()
            assert gap <= 1e-15 * np.abs(expected).max(), k


def test_gram_does_not_enumerate_interval_compositions(monkeypatch):
    def refuse(k):
        raise AssertionError("interval compositions enumerated")

    monkeypatch.setattr(qwnlab.combinatorics, "interval_compositions", refuse)
    monkeypatch.setattr(qwnlab.free, "interval_compositions", refuse, raising=False)
    space = FreeSpace(MatrixAlgebra(2), max_grade=4)
    assert space.gram(4).shape == (256, 256)


def kron_gram(space, k, cache):
    """G_k as the sum of the ``np.kron`` products F_m (x) G_(k-m), the
    build before the rows of F_m were added in place, kept as the
    oracle."""
    if k not in cache:
        mat = space._factor(k) if k else np.ones((1, 1), dtype=complex)
        for m in range(1, k):
            mat += np.kron(space._factor(m), kron_gram(space, k - m, cache))
        cache[k] = 0.5 * (mat + mat.conj().T)
    return cache[k]


@pytest.mark.parametrize(
    "alg", [MatrixAlgebra(2), FunctionAlgebra([0.3, 0.7, 1.1])], ids=repr
)
@pytest.mark.parametrize("gamma", [1.0, 0.7])
def test_gram_adds_the_kronecker_rows_bit_for_bit(alg, gamma):
    space = FreeSpace(alg, max_grade=4, gamma=gamma)
    cache = {}
    for k in range(5):
        expected = kron_gram(space, k, cache)
        assert np.array_equal(space.gram(k).view(float), expected.view(float)), k


def _traced_peak(run):
    """Peak of the memory ``run`` allocates, above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


# Over M_2 at truncation 5 the grade-5 Gram is 1024 x 1024 complex, 16 MB.
def _m2_top_gram_bytes():
    return 16 * 4 ** (2 * 5)


def test_gram_build_holds_no_kronecker_product():
    # the grade's matrix, one row block of F_m (x) G_(k-m) and the
    # hermitized copy: about 2x the Gram's bytes (3.07x with np.kron)
    space = FreeSpace(MatrixAlgebra(2), max_grade=5)
    peak = _traced_peak(lambda: space.gram(5))
    assert peak <= 2.5 * _m2_top_gram_bytes(), peak / _m2_top_gram_bytes()


def test_adjointness_holds_row_blocks_not_whole_sides():
    # with the metrics cached, the sides are compared a row block at a
    # time: about 1x the Gram's bytes (4.01x with whole sides)
    space = FreeSpace(MatrixAlgebra(2), max_grade=5)
    for k in range(6):
        space._metric(k)
    records = []
    peak = _traced_peak(lambda: records.extend(space.check_adjointness()))
    assert all(record.status == "pass" for record in records)
    assert peak <= 1.5 * _m2_top_gram_bytes(), peak / _m2_top_gram_bytes()


def test_whitening_does_not_hermitize_again():
    # a real definite metric: its real copy, the Cholesky factor and its
    # inverse, about 1.1x the complex Gram's bytes (2.0x when the metric
    # was hermitized again and the factor inverted by np.linalg.inv)
    gram = FreeSpace(MatrixAlgebra(2), max_grade=5).gram(5)
    whitening = []
    peak = _traced_peak(lambda: whitening.append(gram_whitening(gram)))
    assert whitening[0].negative == 0 and np.isrealobj(whitening[0].whitener)
    assert peak <= 1.5 * gram.nbytes, peak / gram.nbytes
