"""The linear claims checked on bases, against the random-trial checks.

Adjointness is linear in its symbol, and each commutator and free relation
is linear (annihilation conjugate-linear) in each of its two symbols, so
the package checks them at the basis elements and basis pairs of the
algebra.  The random-trial versions the package ran before live here as
the oracle: over function algebras at non-dyadic weights and over M_2 they
must give the same statuses, with every asserted residual inside its
pinned tolerance.  A kernel image perturbed at one basis element must fail
every basis record, whichever element it is.
"""

import math

import numpy as np
import pytest

from qwnlab.algebra import FunctionAlgebra, MatrixAlgebra, random_element
from qwnlab.bosonic import BosonicSpace, _is_dyadic
from qwnlab.free import FreeSpace
from qwnlab.graded import ANNIHILATION, CREATION, NUMBER
from qwnlab.linalg import scaled_gap
from qwnlab.report import reported_record, residual_record

ADJOINT_TOL = 1e-9
AFFINE_TOL = 1e-10
RELATION_TOL = 1e-12

SPACES = {
    "f2": lambda cls: cls(FunctionAlgebra([0.3, 1.1]), 4, 0.7),
    "f3": lambda cls: cls(FunctionAlgebra([0.3, 0.7, 1.1]), 4, 0.7),
    "m2": lambda cls: cls(MatrixAlgebra(2), 3, 0.7),
}


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


def trial_adjointness(space, rng, trials, tol=ADJOINT_TOL):
    """The adjointness records over random symbols."""
    symbols = [random_element(space.algebra, rng) for _ in range(trials)]
    pair, number = adjoint_residuals(space, symbols)
    prefix = space._prefix + ".adjoint."
    return [
        residual_record(prefix + "creation_annihilation", space._adjoint_claim, pair, tol),
        residual_record(prefix + "number", space._adjoint_claim, number, tol),
    ]


def two_pass_fit(space, symbol_pairs):
    """The number-creation coefficient by least squares over the pairs of
    random symbols, and the relative misfit in a second pass."""
    alg = space.algebra

    def pairs(zeta, xi):
        number, creation, template = space._letters(
            [(NUMBER, zeta), (CREATION, xi), (CREATION, alg.mul(zeta, xi))]
        )
        for k in range(space.max_grade):
            yield space._commute([number], [creation], k), space._run([template], k, None)

    num, den = 0.0 + 0.0j, 0.0
    for zeta, xi in symbol_pairs:
        for measured, template in pairs(zeta, xi):
            num += np.vdot(template, measured)
            den += np.vdot(template, template).real
    kappa = num / den
    fit_num = fit_den = 0.0
    for zeta, xi in symbol_pairs:
        for measured, template in pairs(zeta, xi):
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
        left, right = space._letters([(CREATION, phi), (CREATION, psi)])
        for k in range(space.max_grade - 1):
            diff = space._commute([left], [right], k)
            worst["cc"] = max(worst["cc"], np.abs(diff).max())
        left, right = space._letters([(ANNIHILATION, phi), (ANNIHILATION, psi)])
        for k in range(2, space.max_grade + 1):
            indicator, sizes, _ = space._orbits(k)
            diff = space._commute([left], [right], k, columns=indicator)
            worst["aa"] = max(worst["aa"], np.abs(diff / sizes).max())
        if alg.commutative:
            left, right = space._letters([(NUMBER, phi), (NUMBER, psi)])
            for k in range(1, space.max_grade + 1):
                diff = space._commute([left], [right], k)
                worst["nn"] = max(worst["nn"], np.abs(diff).max())
        phi = random_element(alg, rng)
        psi = random_element(alg, rng)
        product = alg.mul(alg.star(phi), psi)
        pairing = alg.state(product)
        left, right, number = space._letters(
            [(ANNIHILATION, phi), (CREATION, psi), (NUMBER, product)]
        )
        for k in range(space.max_grade):
            indicator, sizes, _ = space._orbits(k)
            expected = 2.0 * space.gamma0 * pairing * np.eye(alg.dim**k)
            expected = expected + 4.0 * space._run([number], k, None)
            diff = space._commute([left], [right], k, columns=indicator)
            diff = (diff - expected @ indicator) / sizes
            scale = max(np.abs(expected).max(), 1.0)
            worst["mixed"] = max(worst["mixed"], np.abs(diff).max() / scale)
    symbols = [
        (random_element(alg, rng), random_element(alg, rng)) for _ in range(trials)
    ]
    kappa, fit = two_pass_fit(space, symbols)
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


# (space class, basis check, random-trial check)
CHECKS = {
    "bosonic_adjointness": (
        BosonicSpace,
        lambda space: space.check_adjointness(tol=ADJOINT_TOL),
        lambda space, rng: trial_adjointness(space, rng, 25),
    ),
    "free_adjointness": (
        FreeSpace,
        lambda space: space.check_adjointness(tol=ADJOINT_TOL),
        lambda space, rng: trial_adjointness(space, rng, 25),
    ),
    "bosonic_commutators": (
        BosonicSpace,
        lambda space: space.check_commutators(
            np.random.default_rng(3), trials=3, tol_affine=AFFINE_TOL
        ),
        lambda space, rng: trial_commutators(space, rng, 25),
    ),
    "free_relations": (
        FreeSpace,
        lambda space: space.check_relations(tol=RELATION_TOL),
        lambda space, rng: trial_relations(space, rng, 25),
    ),
}


@pytest.mark.parametrize("algebra", sorted(SPACES))
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_basis_checks_agree_with_random_trials(check, algebra):
    cls, on_basis, on_trials = CHECKS[check]
    basis_records = on_basis(SPACES[algebra](cls))
    trial_records = on_trials(SPACES[algebra](cls), np.random.default_rng(5))
    assert [r.name for r in basis_records] == [r.name for r in trial_records]
    for basis, trial in zip(basis_records, trial_records):
        assert basis.status == trial.status, basis.name
        assert basis.tolerance == trial.tolerance, basis.name
        if basis.tolerance is not None:
            assert basis.residual <= basis.tolerance, basis.name
            assert trial.residual <= trial.tolerance, basis.name


@pytest.mark.parametrize("algebra", sorted(SPACES))
def test_one_pass_fit_matches_the_two_pass_fit(algebra):
    space = SPACES[algebra](BosonicSpace)
    records = {
        r.name: r for r in space.check_commutators(np.random.default_rng(9), trials=4)
    }
    rng = np.random.default_rng(9)
    symbols = [
        (random_element(space.algebra, rng), random_element(space.algebra, rng))
        for _ in range(4)
    ]
    kappa, fit = two_pass_fit(space, symbols)
    coefficient = records["bosonic.commutator.number_creation_coefficient"]
    assert abs(coefficient.measured - kappa.real) <= 1e-15
    assert abs(coefficient.residual - abs(kappa.imag)) <= 1e-15
    assert abs(records["bosonic.commutator.number_creation_fit"].residual - fit) <= 1e-15


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
]


def _run_check(space, check):
    if check == "check_commutators":
        return space.check_commutators(np.random.default_rng(3), trials=1)
    return getattr(space, check)()


@pytest.mark.parametrize("cls, check, name, kind", MUTATIONS, ids=lambda v: str(v))
def test_a_perturbed_basis_operator_fails_each_basis_record(cls, check, name, kind):
    clean = {r.name: r for r in _run_check(SPACES["f3"](cls), check)}
    assert clean[name].status == "pass"
    for b in range(3):
        space = _perturb(SPACES["f3"](cls), kind, b)
        records = {r.name: r for r in _run_check(space, check)}
        assert records[name].status == "fail", (name, b, records[name].residual)
