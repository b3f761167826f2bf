"""The free space's leading factors against the routes they replaced.

Every free operator acts on the first one or two tensor slots only:
creation prepends a slot, the number operator multiplies the first, and
annihilation pairs or merges the first two.  So each is built as its
leading factor tensored with the identity on the remaining slots, and its
kernel is the one product of the factor with the leading axes of a block.
The hand-written kernels the factors replaced live here as the oracle of
the whole grades; the relations compare products of factors against the
sides run on the identity of the whole grade, the adjointness sides
contract the Gram's leading axes against the dense basis sides, and the
norms against Lanczos on the stack of whitened whole-grade basis operators.
"""

import numpy as np
import pytest

from qwnlab.algebra import FunctionAlgebra, MatrixAlgebra, random_element
from qwnlab.free import FreeSpace
from qwnlab.graded import _SHIFTS, ANNIHILATION, CREATION, NUMBER
from qwnlab.linalg import KRYLOV_TOL, krylov_operator_norms, scaled_gap
from test_basis_checks import ADJOINT_TOL, RELATION_TOL, _perturb, whole_grade_operators
from test_graded import RotatedMatrixAlgebra
from test_linalg import stack_products

# Up to grade 4 over M_2 and F_3.  The dyadic spaces have dyadic weights
# and gamma, so at dyadic symbols every route sums exact products.
SPACES = {
    "m2_dyadic": lambda: FreeSpace(MatrixAlgebra(2), 4, 0.5),
    "f3_dyadic": lambda: FreeSpace(FunctionAlgebra([0.5, 0.75, 1.0]), 4, 0.5),
    "m2": lambda: FreeSpace(MatrixAlgebra(2), 4, 0.7),
    "f3": lambda: FreeSpace(FunctionAlgebra([0.3, 0.7, 1.1]), 4, 0.7),
    "rotated": lambda: FreeSpace(RotatedMatrixAlgebra(2), 4, 0.7),
}

# The leading slots each kind reads: creation none, number the first one,
# annihilation the first two.
_SLOTS = {CREATION: 0, NUMBER: 1, ANNIHILATION: 2}


def _cases(space):
    """Every (kind, grade) with a free operator leaving that grade."""
    top = space.max_grade
    return (
        [(CREATION, k) for k in range(top)]
        + [(ANNIHILATION, k) for k in range(1, top + 1)]
        + [(NUMBER, k) for k in range(1, top + 1)]
    )


@pytest.mark.parametrize("name", sorted(SPACES))
def test_each_kernel_is_its_leading_factor_tensored_with_the_identity(name):
    space = SPACES[name]()
    dyadic = name.endswith("dyadic")
    dim = space.algebra.dim
    rng = np.random.default_rng(31)
    for kind, k in _cases(space):
        symbol = random_element(space.algebra, rng, dyadic=dyadic)
        weights = [*np.eye(dim), space._coefficients(kind, symbol)]
        for coeffs in weights:
            data = space._letter(kind, coeffs)
            whole = space._kernel(kind, data, np.eye(dim**k), k)
            tail = np.eye(dim ** (k - min(k, _SLOTS[kind])))
            expected = np.kron(space._leading(kind, coeffs, k), tail)
            assert whole.shape == expected.shape, (kind, k)
            if dyadic:
                assert np.array_equal(whole, expected), (kind, k)
            else:
                gap = np.abs(whole - expected).max()
                assert gap <= 1e-15 * np.abs(expected).max(), (kind, k)


def hand_written_kernel(space, kind, symbol, block, k):
    """The operator of ``kind`` at ``symbol`` on a block of grade-k columns,
    as the free kernels were written before the factor table: creation
    prepends the symbol's coordinates, the number operator multiplies the
    first slot from the left, and annihilation pairs the first slot against
    gamma times the state and, from grade 2, merges the first two slots."""
    alg = space.algebra
    dim = alg.dim
    width = block.shape[1]
    if kind == CREATION:
        return (alg.coords(symbol)[:, None, None] * block).reshape(-1, width)
    if kind == NUMBER:
        left = alg.left_mult_matrix(symbol)
        return (left @ block.reshape(dim, -1)).reshape(-1, width)
    starred = alg.star(symbol)
    basis = alg.basis()
    state = alg.state(alg.mul(starred, basis))
    out = (space.gamma * (state @ block.reshape(dim, -1))).reshape(-1, width)
    if k >= 2:
        merge = alg.coords(alg.mul(starred, alg.mul(basis[:, None], basis[None, :])))
        merged = merge.reshape(dim * dim, dim).T @ block.reshape(dim * dim, -1)
        out = out + merged.reshape(-1, width)
    return out


@pytest.mark.parametrize("name", sorted(SPACES))
def test_the_factor_kernels_match_the_hand_written_kernels(name):
    # whole grades up to 4, at the basis elements and at random symbols
    space = SPACES[name]()
    dyadic = name.endswith("dyadic")
    alg = space.algebra
    rng = np.random.default_rng(34)
    for kind, k in _cases(space):
        symbols = [*alg.basis()]
        symbols += [random_element(alg, rng, dyadic=dyadic) for _ in range(2)]
        for symbol in symbols:
            built = space.operator_matrix(kind, symbol, k)
            expected = hand_written_kernel(space, kind, symbol, np.eye(alg.dim**k), k)
            assert built.shape == expected.shape, (kind, k)
            gap = np.abs(built - expected).max()
            assert gap <= 1e-15 * np.abs(expected).max(), (kind, k, gap)


def test_a_perturbed_annihilation_factor_fails_the_moments():
    # the vacuum walks run the factors the checks read, so one perturbed
    # basis factor moves every walk off the noncrossing sum
    (clean,) = SPACES["f3"]().check_moments(np.random.default_rng(35))
    assert clean.status == "pass"
    for b in range(3):
        space = _perturb(SPACES["f3"](), ANNIHILATION, b)
        (record,) = space.check_moments(np.random.default_rng(35))
        assert record.name == "free.moments.operator_vs_noncrossing"
        assert record.status == "fail", (b, record.residual)


def whole_grade_relations(space):
    """The worst scaled gap of each free relation, every side run on the
    identity of the whole grade."""
    alg = space.algebra
    dim = alg.dim
    basis = alg.basis()
    pairs = alg.mul(alg.star(basis)[:, None], basis[None, :])
    pairing = space.gamma * alg.state(pairs)
    pair_coords = alg.coords(pairs)
    product_coords = alg.coords(alg.mul(basis[:, None], basis[None, :]))
    worst = dict.fromkeys(
        (
            "contract_creation",
            "number_creation",
            "annihilation_number",
            "number_multiplicative",
        ),
        0.0,
    )

    def run(kind, coeffs, k, block):
        return space._run([(kind, space._letter(kind, coeffs))], k, block)

    def relation(name, lhs, rhs):
        worst[name] = max(worst[name], scaled_gap(lhs, rhs))

    units = np.eye(dim)
    for k in range(space.max_grade):
        identity = np.eye(dim**k)
        for b in range(dim):
            image = run(CREATION, units[b], k, identity)
            for a in range(dim):
                rhs = pairing[a, b] * identity + run(NUMBER, pair_coords[a, b], k, identity)
                relation("contract_creation", run(ANNIHILATION, units[a], k + 1, image), rhs)
                rhs = run(CREATION, product_coords[a, b], k, identity)
                relation("number_creation", run(NUMBER, units[a], k + 1, image), rhs)
    for k in range(1, space.max_grade + 1):
        identity = np.eye(dim**k)
        for b in range(dim):
            image = run(NUMBER, units[b], k, identity)
            for a in range(dim):
                rhs = run(ANNIHILATION, pair_coords[b, a].conj(), k, identity)
                relation("annihilation_number", run(ANNIHILATION, units[a], k, image), rhs)
                rhs = run(NUMBER, product_coords[a, b], k, identity)
                relation("number_multiplicative", run(NUMBER, units[a], k, image), rhs)
    return worst


@pytest.mark.parametrize("name", sorted(SPACES))
def test_relations_on_the_leading_columns_match_the_whole_grade(name):
    space = SPACES[name]()
    records = space.check_relations(tol=RELATION_TOL)
    oracle = whole_grade_relations(SPACES[name]())
    assert [r.name for r in records] == ["free.relation." + n for n in oracle]
    for record, expected in zip(records, oracle.values()):
        assert record.status == "pass", record.name
        assert record.residual == expected, (record.name, record.residual, expected)


def dense_side_gaps(space):
    """The adjointness gaps from stacks of dense basis sides: each whole
    grade basis operator B_b multiplied into the Gram, the creation side
    as G_(k+1)^H C_b and the number pair through one stack per grade."""
    alg = space.algebra
    grams = [space.gram(k) for k in range(space.max_grade + 1)]

    def gap(lhs, rhs):
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
        return np.linalg.norm(lhs - rhs) / scale

    def stack(kind, k, transform):
        return np.array([transform(op) for op in whole_grade_operators(space, kind, k)])

    worst_pair = worst_number = 0.0
    for k in range(space.max_grade):
        left = stack(ANNIHILATION, k + 1, lambda mat: mat.conj().T @ grams[k])
        right = stack(CREATION, k, lambda mat: grams[k + 1].conj().T @ mat)
        for lhs, rhs in zip(left, right):
            worst_pair = max(worst_pair, gap(lhs, rhs))
    starred = [alg.coords(element).conj() for element in alg.star(alg.basis())]
    for k in range(1, space.max_grade + 1):
        left = stack(NUMBER, k, lambda mat: mat.conj().T @ grams[k])
        for lhs, coeffs in zip(left, starred):
            rhs = np.tensordot(coeffs, left, axes=1)
            worst_number = max(worst_number, gap(lhs, rhs.conj().T))
    return worst_pair, worst_number


@pytest.mark.parametrize("name", sorted(SPACES))
def test_contracted_sides_match_the_dense_basis_sides(name):
    space = SPACES[name]()
    records = space.check_adjointness(tol=ADJOINT_TOL)
    for record, expected in zip(records, dense_side_gaps(SPACES[name]())):
        assert record.status == "pass", record.name
        assert record.residual <= ADJOINT_TOL and expected <= ADJOINT_TOL
        assert abs(record.residual - expected) <= 1e-15, record.name


def stack_norms(space, kind, symbols, k):
    """Norms by Lanczos on the stack of the whitened whole-grade basis
    operators."""
    out, into = space._whitening(k + _SHIFTS[kind]), space._whitening(k)
    stack = np.array(
        [
            out.left @ (op @ into.whitener)
            for op in whole_grade_operators(space, kind, k)
        ]
    )
    coeffs = np.array([space._coefficients(kind, s) for s in symbols])
    return krylov_operator_norms(*stack_products(stack), coeffs)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_matrix_free_norms_match_lanczos_on_the_stack(name):
    space = SPACES[name]()
    rng = np.random.default_rng(32)
    symbols = [random_element(space.algebra, rng) for _ in range(5)]
    for kind, k in _cases(space):
        norms, residuals = space._operator_norms(kind, symbols, k)
        expected, _ = stack_norms(space, kind, symbols, k)
        assert (residuals <= KRYLOV_TOL).all(), (kind, k)
        assert (np.abs(norms - expected) <= 1e-13 * expected).all(), (kind, k)


@pytest.mark.parametrize("name", ["m2", "f3"])
def test_free_checks_run_no_kernel_on_a_whole_grade(name, monkeypatch):
    # the relations, adjointness, positivity and norms run no kernel and
    # no word at all: they read the factor table through ``_leading``, and
    # every factor the stacks of the adjointness and the norms hold is at
    # most dim**2 on a side
    space = SPACES[name]()
    dim = space.algebra.dim
    sides = []
    leading = space._leading

    def refuse(*args):
        raise AssertionError("a free check ran a kernel")

    def measured(kind, coeffs, k):
        factor = leading(kind, coeffs, k)
        sides.extend(factor.shape)
        return factor

    monkeypatch.setattr(space, "_kernel", refuse)
    monkeypatch.setattr(space, "_run", refuse)
    monkeypatch.setattr(space, "_leading", measured)
    records = space.check_relations() + space.check_adjointness()
    records += space.check_positivity()
    records += space.check_norm_estimates(np.random.default_rng(2), trials=3)
    assert all(record.status == "pass" for record in records)
    assert sides and max(sides) <= dim**2
