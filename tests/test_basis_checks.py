"""The linear claims checked on bases, against the random-trial checks.

Adjointness is linear in its symbol, and each commutator and free relation
is linear (annihilation conjugate-linear) in each of its two symbols, so
the package checks them at the basis elements and basis pairs of the
algebra, and the q-deformed canonical relation and adjointness at the
basis modes.  The random-trial versions the package ran before live here
as the oracle: over function algebras at non-dyadic weights, over M_2 and
over two and three modes at q in {-0.3, 0.5, 1} they must give the same
statuses, with every asserted residual inside its pinned tolerance.  A
kernel image perturbed at one basis element must fail every basis record,
whichever element it is, and a bosonic metric scaled the wrong way by the
orbit sizes must fail adjointness.
"""

import functools
import inspect
import itertools
import math
import textwrap
import types

import numpy as np
import pytest

import qwnlab.bosonic
from qwnlab.algebra import FunctionAlgebra, MatrixAlgebra, random_element
from qwnlab.bosonic import BosonicSpace, _is_dyadic
from qwnlab.free import FreeSpace
from qwnlab.graded import _SHIFTS, ANNIHILATION, CREATION, NUMBER
from qwnlab.linalg import scaled_gap
from qwnlab.qdeform import QFockSpace
from qwnlab.report import reported_record, residual_record

ADJOINT_TOL = 1e-9
AFFINE_TOL = 1e-10
RELATION_TOL = 1e-12
Q_RELATION_TOL = 1e-9
Q_ADJOINT_TOL = 1e-10

SPACES = {
    "f2": lambda cls: cls(FunctionAlgebra([0.3, 1.1]), 4, 0.7),
    "f3": lambda cls: cls(FunctionAlgebra([0.3, 0.7, 1.1]), 4, 0.7),
    "m2": lambda cls: cls(MatrixAlgebra(2), 3, 0.7),
}

Q_SPACES = {
    "q%d_%g" % (dim, q): functools.partial(QFockSpace, dim, q, 4)
    for dim in (2, 3)
    for q in (-0.3, 0.5, 1.0)
}


def _spaces(cls):
    """A fresh space of ``cls`` over each algebra of SPACES, by name."""
    return {name: functools.partial(make, cls) for name, make in SPACES.items()}


def compress(space, mat, k_out, k_in):
    """mat restricted to the subspaces the adjointness and norms of a space
    are checked on: S_out^H mat S_in with S the orthonormal symmetric basis
    of the bosonic space, and mat itself on the whole grades of the free
    one."""
    if isinstance(space, FreeSpace):
        return mat
    return space.symmetric_basis(k_out).conj().T @ mat @ space.symmetric_basis(k_in)


def whole_grade_operators(space, kind, k):
    """The basis operators of ``kind`` leaving grade k, each its kernel on
    the identity of the whole grade: the route the free norms and
    adjointness took before their leading factors, kept as the oracle."""
    block = np.eye(space.algebra.dim**k)
    for letter in space._basis_letters(kind):
        yield space._kernel(kind, letter, block, k)


def adjoint_residuals(space, symbols):
    """The adjointness residuals over ``symbols`` with both sides formed in
    full from operator matrices and then compressed."""
    alg = space.algebra
    worst_pair = worst_number = 0.0

    def gap(lhs, rhs):
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
        return np.linalg.norm(lhs - rhs) / scale

    for zeta in symbols:
        for k in range(space.max_grade):
            create = space.operator_matrix(CREATION, zeta, k)
            annihilate = space.operator_matrix(ANNIHILATION, zeta, k + 1)
            lhs = compress(space, annihilate.conj().T @ space.gram(k), k + 1, k)
            rhs = compress(space, space.gram(k + 1) @ create, k + 1, k)
            worst_pair = max(worst_pair, gap(lhs, rhs))
        for k in range(1, space.max_grade + 1):
            num = space.operator_matrix(NUMBER, zeta, k)
            num_star = space.operator_matrix(NUMBER, alg.star(zeta), k)
            lhs = compress(space, num.conj().T @ space.gram(k), k, k)
            rhs = compress(space, space.gram(k) @ num_star, k, k)
            worst_number = max(worst_number, gap(lhs, rhs))
    return worst_pair, worst_number


def trial_adjointness(space, rng, trials, tol=ADJOINT_TOL):
    """The adjointness records over random symbols."""
    symbols = [random_element(space.algebra, rng) for _ in range(trials)]
    pair, number = adjoint_residuals(space, symbols)
    prefix = space._prefix + ".adjoint."
    return [
        residual_record(prefix + "creation_annihilation", space._adjoint_claim, pair, tol),
        residual_record(prefix + "number", space._adjoint_claim, number, tol),
    ]


def random_fit_pairs(space, symbol_pairs):
    """[n(zeta), b*(xi)] and the template b*(zeta xi) on the identity
    columns of every grade, for each pair of symbols."""
    alg = space.algebra
    for zeta, xi in symbol_pairs:
        for k in range(space.max_grade):
            measured = space.commutator([(NUMBER, zeta)], [(CREATION, xi)], k)
            template = space.word_matrix([(CREATION, alg.mul(zeta, xi))], k)
            yield measured, template


def basis_fit_pairs(space):
    """[n(e_a), b*(e_b)] and the template b*(e_a e_b) on the symmetric
    basis columns of every grade, from operator words, for each basis
    pair (e_a, e_b)."""
    alg = space.algebra
    basis = alg.basis()
    for k in range(space.max_grade):
        columns = space.symmetric_basis(k)
        for a, b in itertools.product(range(alg.dim), repeat=2):
            measured = space.commutator(
                [(NUMBER, basis[a])], [(CREATION, basis[b])], k, columns=columns
            )
            product = alg.mul(basis[a], basis[b])
            yield measured, space.word_matrix([(CREATION, product)], k, columns)


def two_pass_fit(pairs):
    """The number-creation coefficient by least squares over the
    (measured, template) blocks that ``pairs()`` yields, and the relative
    misfit in a second pass."""
    num, den = 0.0 + 0.0j, 0.0
    for measured, template in pairs():
        num += np.vdot(template, measured)
        den += np.vdot(template, template).real
    kappa = num / den
    fit_num = fit_den = 0.0
    for measured, template in pairs():
        fit_num += np.linalg.norm(measured - kappa * template) ** 2
        fit_den += np.linalg.norm(template) ** 2
    return kappa, math.sqrt(fit_num / fit_den)


def trial_commutators(space, rng, trials, tol_affine=AFFINE_TOL):
    """The bosonic commutator records over random symbols: dyadic ones for
    the same-kind commutators, continuous ones for the mixed identity."""
    alg = space.algebra
    exact_tol = 0.0
    if not (
        _is_dyadic(space.gamma0)
        and getattr(alg, "weights", None) is not None
        and all(_is_dyadic(w) for w in np.atleast_1d(alg.weights))
    ):
        exact_tol = 1e-13
    worst = dict.fromkeys(("cc", "aa", "nn", "mixed"), 0.0)
    for _ in range(trials):
        phi = random_element(alg, rng, dyadic=True)
        psi = random_element(alg, rng, dyadic=True)
        for k in range(space.max_grade - 1):
            diff = space.commutator([(CREATION, phi)], [(CREATION, psi)], k)
            worst["cc"] = max(worst["cc"], np.abs(diff).max())
        for k in range(2, space.max_grade + 1):
            indicator, sizes = space._orbits(k)
            diff = space.commutator(
                [(ANNIHILATION, phi)], [(ANNIHILATION, psi)], k, columns=indicator
            )
            worst["aa"] = max(worst["aa"], np.abs(diff / sizes).max())
        if alg.commutative:
            for k in range(1, space.max_grade + 1):
                diff = space.commutator([(NUMBER, phi)], [(NUMBER, psi)], k)
                worst["nn"] = max(worst["nn"], np.abs(diff).max())
        phi = random_element(alg, rng)
        psi = random_element(alg, rng)
        product = alg.mul(alg.star(phi), psi)
        pairing = alg.state(product)
        for k in range(space.max_grade):
            indicator, sizes = space._orbits(k)
            expected = 2.0 * space.gamma0 * pairing * np.eye(alg.dim**k)
            expected = expected + 4.0 * space.operator_matrix(NUMBER, product, k)
            diff = space.commutator(
                [(ANNIHILATION, phi)], [(CREATION, psi)], k, columns=indicator
            )
            diff = (diff - expected @ indicator) / sizes
            scale = max(np.abs(expected).max(), 1.0)
            worst["mixed"] = max(worst["mixed"], np.abs(diff).max() / scale)
    symbols = [
        (random_element(alg, rng), random_element(alg, rng)) for _ in range(trials)
    ]
    kappa, fit = two_pass_fit(lambda: random_fit_pairs(space, symbols))
    claim = "quadratic commutation relations"
    prefix = "bosonic.commutator."
    records = [
        residual_record(prefix + "creation_creation", claim, worst["cc"], exact_tol),
        residual_record(prefix + "annihilation_annihilation", claim, worst["aa"], exact_tol),
        residual_record(prefix + "mixed_affine", claim, worst["mixed"], tol_affine)
        if alg.commutative
        else reported_record(prefix + "mixed_affine_gap", claim, measured=worst["mixed"]),
        reported_record(
            prefix + "number_creation_coefficient",
            claim,
            measured=kappa.real,
            expected=2.0,
            residual=abs(kappa.imag),
        ),
        residual_record(prefix + "number_creation_fit", claim, fit, tol_affine),
    ]
    if alg.commutative:
        records.insert(
            2, residual_record(prefix + "number_number", claim, worst["nn"], exact_tol)
        )
    return records


def trial_relations(space, rng, trials, tol=RELATION_TOL):
    """The four free relations over random symbols, each side a dense
    operator matrix."""
    alg = space.algebra
    worst = dict.fromkeys(
        (
            "contract_creation",
            "number_creation",
            "annihilation_number",
            "number_multiplicative",
        ),
        0.0,
    )
    for _ in range(trials):
        psi = random_element(alg, rng)
        phi = random_element(alg, rng)
        zeta = random_element(alg, rng)
        pairing = space.gamma * alg.state(alg.mul(alg.star(psi), phi))
        for k in range(space.max_grade):
            lhs = space.word_matrix([(ANNIHILATION, psi), (CREATION, phi)], k)
            rhs = pairing * np.eye(alg.dim**k) + space.operator_matrix(
                NUMBER, alg.mul(alg.star(psi), phi), k
            )
            worst["contract_creation"] = max(
                worst["contract_creation"], scaled_gap(lhs, rhs)
            )
            lhs = space.word_matrix([(NUMBER, zeta), (CREATION, phi)], k)
            rhs = space.operator_matrix(CREATION, alg.mul(zeta, phi), k)
            worst["number_creation"] = max(worst["number_creation"], scaled_gap(lhs, rhs))
        for k in range(1, space.max_grade + 1):
            lhs = space.word_matrix([(ANNIHILATION, psi), (NUMBER, zeta)], k)
            rhs = space.operator_matrix(ANNIHILATION, alg.mul(alg.star(zeta), psi), k)
            worst["annihilation_number"] = max(
                worst["annihilation_number"], scaled_gap(lhs, rhs)
            )
            lhs = space.word_matrix([(NUMBER, zeta), (NUMBER, phi)], k)
            rhs = space.operator_matrix(NUMBER, alg.mul(zeta, phi), k)
            worst["number_multiplicative"] = max(
                worst["number_multiplicative"], scaled_gap(lhs, rhs)
            )
    return [
        residual_record("free.relation." + name, "free operator relations", value, tol)
        for name, value in worst.items()
    ]


def trial_canonical_relation(space, rng, trials, tol=Q_RELATION_TOL):
    """The q-deformed canonical relation over random mode vectors, each
    side a dense matrix, compared after ``_compress``."""
    worst = 0.0
    for _ in range(trials):
        phi = random_element(space.algebra, rng)
        psi = random_element(space.algebra, rng)
        for n in range(space.max_grade):
            lhs = space.commutator([(ANNIHILATION, phi)], [(CREATION, psi)], n, space.q)
            rhs = np.vdot(phi, psi) * np.eye(space.dim**n)
            gap = scaled_gap(space._compress(lhs, n, n), space._compress(rhs, n, n))
            worst = max(worst, gap)
    claim = "deformed commutation relation"
    return [residual_record("qdeform.canonical_relation", claim, worst, tol)]


def trial_q_adjointness(space, rng, trials, tol=Q_ADJOINT_TOL):
    """Creation against annihilation as adjoints for the q-Gram over
    random mode vectors, both sides formed in full from operator matrices
    and then compressed."""
    worst = 0.0
    for _ in range(trials):
        zeta = random_element(space.algebra, rng)
        for n in range(space.max_grade):
            annihilate = space.annihilate_matrix(zeta, n + 1)
            create = space.create_matrix(zeta, n)
            lhs = space._compress(annihilate.conj().T @ space.q_gram(n), n + 1, n)
            rhs = space._compress(space.q_gram(n + 1) @ create, n + 1, n)
            worst = max(worst, scaled_gap(lhs, rhs))
    claim = "adjointness for the deformed scalar product"
    return [residual_record("qdeform.adjointness", claim, worst, tol)]


# (spaces by name, basis check, random-trial check)
CHECKS = {
    "bosonic_adjointness": (
        _spaces(BosonicSpace),
        lambda space: space.check_adjointness(tol=ADJOINT_TOL),
        lambda space, rng: trial_adjointness(space, rng, 25),
    ),
    "free_adjointness": (
        _spaces(FreeSpace),
        lambda space: space.check_adjointness(tol=ADJOINT_TOL),
        lambda space, rng: trial_adjointness(space, rng, 25),
    ),
    "bosonic_commutators": (
        _spaces(BosonicSpace),
        lambda space: space.check_commutators(tol_affine=AFFINE_TOL),
        lambda space, rng: trial_commutators(space, rng, 25),
    ),
    "free_relations": (
        _spaces(FreeSpace),
        lambda space: space.check_relations(tol=RELATION_TOL),
        lambda space, rng: trial_relations(space, rng, 25),
    ),
    "qdeform_canonical_relation": (
        Q_SPACES,
        lambda space: space.check_canonical_relation(tol=Q_RELATION_TOL),
        lambda space, rng: trial_canonical_relation(space, rng, 25),
    ),
    "qdeform_adjointness": (
        Q_SPACES,
        lambda space: space.check_adjointness(tol=Q_ADJOINT_TOL),
        lambda space, rng: trial_q_adjointness(space, rng, 25),
    ),
}


@pytest.mark.parametrize(
    "check, algebra",
    [(check, name) for check in sorted(CHECKS) for name in sorted(CHECKS[check][0])],
)
def test_basis_checks_agree_with_random_trials(check, algebra):
    spaces, on_basis, on_trials = CHECKS[check]
    basis_records = on_basis(spaces[algebra]())
    trial_records = on_trials(spaces[algebra](), np.random.default_rng(5))
    assert [r.name for r in basis_records] == [r.name for r in trial_records]
    for basis, trial in zip(basis_records, trial_records):
        assert basis.status == trial.status, basis.name
        assert basis.tolerance == trial.tolerance, basis.name
        if basis.tolerance is not None:
            assert basis.residual <= basis.tolerance, basis.name
            assert trial.residual <= trial.tolerance, basis.name


@pytest.mark.parametrize("algebra", sorted(SPACES))
def test_one_pass_fit_matches_the_two_pass_fit(algebra):
    # the one-pass basis fit against a two-pass fit on the same basis
    # pairs, from operator words, and its coefficient against a two-pass
    # fit on random symbol pairs over the whole grades
    space = SPACES[algebra](BosonicSpace)
    records = {r.name: r for r in space.check_commutators()}
    coefficient = records["bosonic.commutator.number_creation_coefficient"]
    kappa, fit = two_pass_fit(lambda: basis_fit_pairs(space))
    assert abs(coefficient.measured - kappa.real) <= 1e-15
    assert abs(coefficient.residual - abs(kappa.imag)) <= 1e-15
    fit_record = records["bosonic.commutator.number_creation_fit"]
    assert abs(fit_record.residual - fit) <= 1e-15
    rng = np.random.default_rng(9)
    symbols = [
        (random_element(space.algebra, rng), random_element(space.algebra, rng))
        for _ in range(4)
    ]
    kappa, _ = two_pass_fit(lambda: random_fit_pairs(space, symbols))
    assert abs(coefficient.measured - kappa.real) <= 1e-14
    assert abs(coefficient.residual - abs(kappa.imag)) <= 1e-14


def same_kind_commutators(space, kind, k, columns=None):
    """[X_a, X_b] of the basis operators of ``kind`` on ``columns`` of grade
    k (the identity when None), for the pairs a < b: the images X_b Y are
    also the images of the reverse order."""
    letters = space._basis_letters(kind)
    images = space._basis_images(kind, k, columns)
    reached = k + _SHIFTS[kind]
    for a, b in itertools.combinations(range(len(letters)), 2):
        forward = space._run([(kind, letters[a])], reached, images[b])
        yield forward - space._run([(kind, letters[b])], reached, images[a])


def tensor_route_commutators(space):
    """The bosonic commutator residuals, the fitted coefficient and the fit
    by the tensor route the orbit route replaced: creation-creation and
    number-number on the whole grade, annihilation-annihilation and the
    mixed identity on the orbit indicators, every right side and template
    a kernel run of its product symbol, and the fit on the flat symmetric
    basis columns."""
    alg = space.algebra
    top = space.max_grade
    worst = dict.fromkeys(("cc", "aa", "nn", "mixed"), 0.0)
    for k in range(top - 1):
        for diff in same_kind_commutators(space, CREATION, k):
            worst["cc"] = max(worst["cc"], np.abs(diff).max())
    for k in range(2, top + 1):
        indicator, sizes = space._orbits(k)
        for diff in same_kind_commutators(space, ANNIHILATION, k, indicator):
            worst["aa"] = max(worst["aa"], np.abs(diff / sizes).max())
    if alg.commutative:
        for k in range(1, top + 1):
            for diff in same_kind_commutators(space, NUMBER, k):
                worst["nn"] = max(worst["nn"], np.abs(diff).max())
    basis = alg.basis()
    products = alg.mul(alg.star(basis)[:, None], basis[None, :])
    pairings = alg.state(products).reshape(-1)
    numbers = [
        space._letter(NUMBER, c) for c in alg.coords(products).reshape(-1, alg.dim)
    ]
    for k in range(top):
        indicator, sizes = space._orbits(k)
        diffs = space._basis_commutators(ANNIHILATION, CREATION, k, indicator)
        for diff, pairing, number in zip(diffs, pairings, numbers):
            expected = 2.0 * space.gamma0 * pairing * indicator
            expected = expected + 4.0 * space._run([(NUMBER, number)], k, indicator)
            diff = (diff - expected) / sizes
            scale = max(np.abs(expected / sizes).max(), 1.0)
            worst["mixed"] = max(worst["mixed"], np.abs(diff).max() / scale)
    kappa, fit = two_pass_fit(lambda: basis_fit_pairs(space))
    return worst, kappa, fit


def tensor_route_adjointness(space):
    """The bosonic adjointness residuals on flat rows: the basis operators
    by the kernel on the symmetric basis columns, against the Gram
    restricted on the right to the symmetric basis."""
    alg = space.algebra
    grams = [
        space.gram(k) @ space.symmetric_basis(k) for k in range(space.max_grade + 1)
    ]

    def gap(lhs, rhs):
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
        return np.linalg.norm(lhs - rhs) / scale

    def images(kind, k):
        return space._basis_images(kind, k, space.symmetric_basis(k))

    worst_pair = worst_number = 0.0
    for k in range(space.max_grade):
        for annihilate, create in zip(images(ANNIHILATION, k + 1), images(CREATION, k)):
            lhs = annihilate.conj().T @ grams[k]
            rhs = grams[k + 1].conj().T @ create
            worst_pair = max(worst_pair, gap(lhs, rhs))
    starred = [alg.coords(element) for element in alg.star(alg.basis())]
    for k in range(1, space.max_grade + 1):
        left = np.array([num.conj().T @ grams[k] for num in images(NUMBER, k)])
        for lhs, coeffs in zip(left, starred):
            rhs = np.tensordot(coeffs, left, axes=1)
            worst_number = max(worst_number, gap(lhs, rhs.conj().T))
    return worst_pair, worst_number


# The orbit route against the tensor route up to grade 5: dyadic weights
# and gamma0, where the same-kind commutators cancel exactly both ways,
# and non-dyadic ones over a function and a matrix algebra.
ORBIT_SPACES = {
    "f3_dyadic": lambda: BosonicSpace(FunctionAlgebra([0.5, 0.75, 1.25]), 5, 1.0),
    "f3": lambda: BosonicSpace(FunctionAlgebra([0.3, 0.7, 1.1]), 5, 0.7),
    "m2": lambda: BosonicSpace(MatrixAlgebra(2), 5, 0.7),
}
ORBIT_TOL = 1e-14


@pytest.mark.parametrize("name", sorted(ORBIT_SPACES))
def test_orbit_route_commutators_match_the_tensor_route(name):
    space = ORBIT_SPACES[name]()
    records = {r.name: r for r in space.check_commutators()}
    worst, kappa, fit = tensor_route_commutators(ORBIT_SPACES[name]())
    prefix = "bosonic.commutator."
    same_kind = {"cc": "creation_creation", "aa": "annihilation_annihilation"}
    if space.algebra.commutative:
        same_kind["nn"] = "number_number"
    for key, record_name in same_kind.items():
        record = records[prefix + record_name]
        assert record.status == "pass", record_name
        # a symmetric column averages whole-grade columns, so the orbit
        # route reads at most the whole-grade entry
        assert record.residual <= worst[key] + ORBIT_TOL, record_name
        if record.tolerance == 0.0:
            assert record.residual == worst[key] == 0.0, record_name
    mixed = records.get(prefix + "mixed_affine") or records[prefix + "mixed_affine_gap"]
    measured = mixed.residual if mixed.residual is not None else mixed.measured
    assert abs(measured - worst["mixed"]) <= ORBIT_TOL * max(worst["mixed"], 1.0)
    coefficient = records[prefix + "number_creation_coefficient"]
    assert abs(coefficient.measured - kappa.real) <= ORBIT_TOL
    assert abs(coefficient.residual - abs(kappa.imag)) <= ORBIT_TOL
    assert abs(records[prefix + "number_creation_fit"].residual - fit) <= ORBIT_TOL


@pytest.mark.parametrize("name", sorted(ORBIT_SPACES))
def test_orbit_route_adjointness_matches_the_tensor_route(name):
    space = ORBIT_SPACES[name]()
    records = space.check_adjointness()
    oracle = tensor_route_adjointness(ORBIT_SPACES[name]())
    for record, expected in zip(records, oracle):
        assert record.status == "pass", record.name
        assert abs(record.residual - expected) <= ORBIT_TOL, record.name


def test_orbit_operators_are_the_compressed_kernels():
    # S_out^H B S_in from the cached orbit matrices against the kernel on
    # the symmetric basis, compressed on the left, at every kind and grade
    for make in ORBIT_SPACES.values():
        space = make()
        top = space.max_grade
        cases = [(CREATION, k) for k in range(top)]
        for kind in (ANNIHILATION, NUMBER):
            cases += [(kind, k) for k in range(1, top + 1)]
        for kind, k in cases:
            k_out = k + _SHIFTS[kind]
            oracle = space._basis_images(kind, k, space.symmetric_basis(k))
            units = np.eye(space.algebra.dim)
            for unit, image in zip(units, oracle):
                built = space._leading(kind, unit, k)
                expected = space.symmetric_basis(k_out).conj().T @ image
                scale = max(np.abs(expected).max(), 1.0)
                assert np.abs(built - expected).max() <= ORBIT_TOL * scale, (kind, k)


def test_the_orbit_cache_stays_on_the_symmetric_subspace():
    # over M_2 at truncation 5 the largest symmetric grade has 56 orbits,
    # and a space whose checks run on whole grades keeps no orbit cache
    space = BosonicSpace(MatrixAlgebra(2), 5, 0.7)
    space.check_commutators()
    space.check_adjointness()
    space.check_symmetric_invariance()
    assert space._orbit_ops
    for stack in space._orbit_ops.values():
        assert stack.shape[0] == 4 and max(stack.shape[1:]) <= 56
    assert not hasattr(FreeSpace(MatrixAlgebra(2), 3), "_orbit_ops")


def _asymmetric(space, eps=1e-6):
    """Every kernel image into a grade of at least 2 moves eps times the
    first coordinate of each input column from the index (0, 1, 0, ..) to
    (1, 0, 0, ..), two indices of one orbit: the image leaves the
    symmetric subspace, and its orbit sums do not change."""
    kernel = space._kernel
    dim = space.algebra.dim

    def moved(kind, data, block, k):
        out = kernel(kind, data, block, k)
        grade = k + _SHIFTS[kind]
        if grade >= 2:
            out = out.copy()
            out[dim ** (grade - 1)] += eps * block[0]
            out[dim ** (grade - 2)] -= eps * block[0]
        return out

    space._kernel = moved
    return space


@pytest.mark.parametrize(
    "make",
    [lambda: BosonicSpace(MatrixAlgebra(2), 4), lambda: SPACES["f3"](BosonicSpace)],
    ids=["m2", "f3"],
)
def test_a_kernel_that_breaks_symmetry_fails_the_licensing_record(make):
    (clean,) = make().check_symmetric_invariance()
    assert clean.status == "pass"
    (record,) = _asymmetric(make()).check_symmetric_invariance()
    assert record.name == "bosonic.operators.preserve_symmetric"
    assert record.status == "fail", record.residual


def _perturb(space, kind, b, eps=1e-6):
    """Add eps times the first coordinate of every input column to the last
    coordinate of its image under the basis operator of ``kind`` at e_b: a
    rank-one change of that one operator, which keeps the symmetric
    subspace, since both coordinates are orbits of their own."""
    target = space._letter(kind, np.eye(space.algebra.dim)[b])
    kernel = space._kernel

    def perturbed(kind_, data, block, k):
        out = kernel(kind_, data, block, k)
        if kind_ == kind and all(np.array_equal(x, y) for x, y in zip(data, target)):
            out = out.copy()
            out[-1] += eps * block[0]
        return out

    space._kernel = perturbed
    return space


# (space class, basis check, record, the kind whose basis operator is perturbed)
MUTATIONS = [
    (BosonicSpace, "check_adjointness", "bosonic.adjoint.creation_annihilation", CREATION),
    (BosonicSpace, "check_adjointness", "bosonic.adjoint.number", NUMBER),
    (BosonicSpace, "check_commutators", "bosonic.commutator.creation_creation", CREATION),
    (
        BosonicSpace,
        "check_commutators",
        "bosonic.commutator.annihilation_annihilation",
        ANNIHILATION,
    ),
    (BosonicSpace, "check_commutators", "bosonic.commutator.number_number", NUMBER),
    (BosonicSpace, "check_commutators", "bosonic.commutator.mixed_affine", ANNIHILATION),
    (FreeSpace, "check_adjointness", "free.adjoint.creation_annihilation", ANNIHILATION),
    (FreeSpace, "check_adjointness", "free.adjoint.number", NUMBER),
    (FreeSpace, "check_relations", "free.relation.contract_creation", ANNIHILATION),
    (FreeSpace, "check_relations", "free.relation.number_creation", NUMBER),
    (FreeSpace, "check_relations", "free.relation.annihilation_number", NUMBER),
    (FreeSpace, "check_relations", "free.relation.number_multiplicative", NUMBER),
    (
        BosonicSpace,
        "check_commutators",
        "bosonic.commutator.number_creation_fit",
        NUMBER,
    ),
    (QFockSpace, "check_canonical_relation", "qdeform.canonical_relation", CREATION),
    (QFockSpace, "check_adjointness", "qdeform.adjointness", ANNIHILATION),
]


def _mutation_space(cls):
    """A space of ``cls`` with three basis elements."""
    return Q_SPACES["q3_0.5"]() if cls is QFockSpace else SPACES["f3"](cls)


@pytest.mark.parametrize("cls, check, name, kind", MUTATIONS, ids=lambda v: str(v))
def test_a_perturbed_basis_operator_fails_each_basis_record(cls, check, name, kind):
    clean = {r.name: r for r in getattr(_mutation_space(cls), check)()}
    assert clean[name].status == "pass"
    for b in range(3):
        space = _perturb(_mutation_space(cls), kind, b)
        records = {r.name: r for r in getattr(space, check)()}
        assert records[name].status == "fail", (name, b, records[name].residual)


def _swapped_metric(space):
    """``space`` with its ``_metric`` mutated to scale the orbit sums by
    sqrt(s_I) / sqrt(s_J) in place of sqrt(s_J) / sqrt(s_I): the source of
    the method with the one factor swapped, compiled in the module."""
    source = textwrap.dedent(inspect.getsource(BosonicSpace._metric))
    right, swapped = "(root / root[:, None])", "(root[:, None] / root)"
    assert source.count(right) == 1
    scope = {}
    exec(source.replace(right, swapped), vars(qwnlab.bosonic), scope)
    space._metric = types.MethodType(scope["_metric"], space)
    return space


def test_a_swapped_orbit_scaling_of_the_metric_fails_adjointness():
    name = "bosonic.adjoint.creation_annihilation"
    clean = {r.name: r for r in SPACES["m2"](BosonicSpace).check_adjointness()}
    assert clean[name].status == "pass"
    mutant = _swapped_metric(SPACES["m2"](BosonicSpace))
    record = {r.name: r for r in mutant.check_adjointness()}[name]
    assert record.status == "fail", record.residual


def test_a_swapped_orbit_scaling_is_invisible_over_a_function_algebra():
    # over a function algebra star(e_a) e_b vanishes unless a = b, so the
    # Gram is diagonal in flat coordinates and the metric in orbit ones;
    # the swap rescales only its zero entries, and adjointness cannot see it
    space = SPACES["f3"](BosonicSpace)
    mutant = _swapped_metric(SPACES["f3"](BosonicSpace))
    for k in range(space.max_grade + 1):
        metric = space._metric(k)
        assert np.array_equal(metric, np.diag(np.diag(metric)))
        assert np.array_equal(mutant._metric(k), metric), k
