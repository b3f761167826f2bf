"""Acceptance gate.

Fifteen numbered criteria, each implemented as one test that prints a
single ``criterion NN: PASS`` or ``criterion NN: FAIL`` verdict line (run
pytest with ``-s`` or ``-rA`` to see the lines).  Tolerances are pinned
here and are not read from any configuration.
"""

import numpy as np

from qwnlab.algebra import FunctionAlgebra, MatrixAlgebra
from qwnlab.bosonic import BosonicSpace
from qwnlab.diagonal import DiagonalRepresentation
from qwnlab.free import FreeSpace
from qwnlab.qdeform import DiscretizedQuadratic, QFockSpace
from qwnlab.rewrite import (
    check_engine_vs_operators,
    check_nogo,
    check_nogo_grid,
    check_strategy_independence,
    check_termination,
    gamma_moment_check,
    make_function_engine,
    nogo_certificate,
)
from qwnlab.suites import RunConfig, run_suite


def _verdict(number, problems):
    ok = not problems
    print("criterion %02d: %s" % (number, "PASS" if ok else "FAIL"))
    assert ok, "; ".join(problems)


def _collect(problems, records, expect_pass=True):
    for record in records:
        if expect_pass and record.status != "pass":
            problems.append("%s: %s (residual %r)" % (record.name, record.status, record.residual))
    return records


def _function_algebras(rng, dims):
    return [FunctionAlgebra((1.0 + rng.integers(0, 4, size=d)) / 4.0) for d in dims]


def test_criterion_01_gram_closed_forms():
    problems = []
    rng = np.random.default_rng(101)
    for algebra in _function_algebras(rng, (1, 2, 3)) + [MatrixAlgebra(2), MatrixAlgebra(3)]:
        for gamma0 in (1.0, 0.5):
            space = BosonicSpace(algebra, 2, gamma0=gamma0)
            _collect(problems, space.check_gram_closed_forms(rng, trials=25, tol=1e-10))
    _verdict(1, problems)


def test_criterion_02_partition_routes_agree():
    problems = []
    rng = np.random.default_rng(102)
    for algebra in _function_algebras(rng, (1, 2)):
        space = BosonicSpace(algebra, 5, gamma0=0.5)
        _collect(problems, space.check_gram_paths(kmax=5, tol=1e-10))
    _verdict(2, problems)


def test_criterion_03_commutators():
    problems = []
    rng = np.random.default_rng(103)
    for algebra in _function_algebras(rng, (1, 2, 3)):
        space = BosonicSpace(algebra, 4)
        records = {r.name: r for r in space.check_commutators(tol_affine=1e-10)}
        for name in (
            "bosonic.commutator.creation_creation",
            "bosonic.commutator.annihilation_annihilation",
            "bosonic.commutator.number_number",
            "bosonic.commutator.mixed_affine",
            "bosonic.commutator.number_creation_fit",
        ):
            record = records.get(name)
            if record is None or record.status != "pass":
                problems.append("%s: %s" % (name, record.status if record else "missing"))
        coefficient = records.get("bosonic.commutator.number_creation_coefficient")
        if coefficient is None or coefficient.status != "reported":
            problems.append("coefficient record missing or not reported")
        elif coefficient.expected != 2.0 or abs(coefficient.measured - 1.0) > 1e-10:
            problems.append(
                "coefficient measured %r against stated %r"
                % (coefficient.measured, coefficient.expected)
            )
    _verdict(3, problems)


def test_criterion_04_adjointness():
    problems = []
    rng = np.random.default_rng(104)
    for algebra in _function_algebras(rng, (2,)) + [MatrixAlgebra(2)]:
        _collect(problems, BosonicSpace(algebra, 3).check_adjointness(tol=1e-9))
        _collect(problems, FreeSpace(algebra, 3).check_adjointness(tol=1e-9))
    _verdict(4, problems)


def test_criterion_05_positivity():
    problems = []
    rng = np.random.default_rng(105)
    (functions,) = _function_algebras(rng, (2,))
    matrices = MatrixAlgebra(2)
    _collect(problems, BosonicSpace(functions, 4).check_positivity(tol=1e-10))
    for algebra in (functions, matrices):
        _collect(problems, FreeSpace(algebra, 4).check_positivity(tol=1e-10))
    matrix_records = {
        r.name: r for r in BosonicSpace(matrices, 4).check_positivity(tol=1e-10)
    }
    reported = matrix_records.get("bosonic.gram.positive_symmetric")
    if reported is None or reported.status != "reported":
        problems.append("matrix-algebra positivity must be reported, not asserted")
    hermitian = matrix_records.get("bosonic.gram.hermitian")
    if hermitian is None or hermitian.status != "pass":
        problems.append("matrix-algebra Gram hermiticity failed")
    _verdict(5, problems)


def test_criterion_06_norm_estimates():
    problems = []
    rng = np.random.default_rng(106)
    for algebra in _function_algebras(rng, (2,)) + [MatrixAlgebra(2)]:
        _collect(problems, BosonicSpace(algebra, 4).check_norm_estimates(rng, trials=50))
        _collect(problems, FreeSpace(algebra, 4).check_norm_estimates(rng, trials=50))
    _verdict(6, problems)


def test_criterion_07_diagonal_oracle():
    problems = []
    rng = np.random.default_rng(107)
    for algebra in _function_algebras(rng, (1, 2)):
        diag = DiagonalRepresentation(algebra, 3, gamma0=0.5)
        _collect(problems, diag.check_measure_is_gram_diagonal(tol=1e-10))
        _collect(problems, diag.check_inner_products(rng, trials=20, tol=1e-10))
        _collect(problems, diag.check_operators(rng, trials=20, tol=1e-10))
    _verdict(7, problems)


def test_criterion_08_free_relations():
    problems = []
    rng = np.random.default_rng(108)
    for algebra in _function_algebras(rng, (2,)) + [MatrixAlgebra(2)]:
        _collect(problems, FreeSpace(algebra, 4).check_relations(tol=1e-12))
    _verdict(8, problems)


def test_criterion_09_free_moments_and_cumulants():
    problems = []
    rng = np.random.default_rng(109)
    for algebra in _function_algebras(rng, (2,)) + [MatrixAlgebra(2)]:
        space = FreeSpace(algebra, 6, gamma=0.5)
        _collect(problems, space.check_moments(rng, trials=20, max_length=6, tol=1e-9))
        _collect(problems, space.check_cumulants(rng, trials=10, order=6, tol=1e-9))
    _verdict(9, problems)


def test_criterion_10_traciality_and_freeness():
    problems = []
    rng = np.random.default_rng(110)
    (algebra,) = _function_algebras(rng, (4,))
    space = FreeSpace(algebra, 6)
    _collect(problems, space.check_traciality(rng, trials=50, tol=1e-9))
    _collect(problems, space.check_freeness(rng, trials=50, tol=1e-9))
    _verdict(10, problems)


def test_criterion_11_deformed_relations():
    problems = []
    rng = np.random.default_rng(111)
    for q in (-0.5, 0.0, 0.5, 1.0):
        space = QFockSpace(2, q, 4)
        _collect(problems, space.check_canonical_relation(tol=1e-9))
        _collect(problems, space.check_squared_relation(rng, trials=25, tol=1e-9))
        disc = DiscretizedQuadratic(q, [0.75, 0.25, 0.5, 0.5], [(0, 1), (2, 3)], 4)
        phi = disc.random_piecewise(rng)
        psi = disc.random_piecewise(rng)
        _collect(problems, disc.check_discretized_relation(phi, psi, rng, pairs=8, tol=1e-9))
    _verdict(11, problems)


def test_criterion_12_rewrite_engine():
    problems = []
    rng = np.random.default_rng(112)
    _collect(problems, check_termination(rng, words=10000, max_len=10))
    _collect(problems, check_strategy_independence(rng, trials=10, max_len=6))
    engine = make_function_engine([0.5, 0.25])
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    _collect(problems, engine.check_commuting_family(2.0, phi, psi, tol=1e-12))
    _collect(
        problems,
        engine.check_factorization(
            2.0, np.array([1.5, 0.0]), np.array([0.0, -0.75]), (2, 3), tol=1e-10
        ),
    )
    _collect(problems, check_engine_vs_operators(rng, trials=30, max_len=6, tol=1e-9))
    _verdict(12, problems)


def test_criterion_13_gamma_moments():
    problems = []
    anchor_seen = False
    for gamma0, t in ((1.0, 1.0), (2.0, 1.5), (1.0, 3.0)):
        records = gamma_moment_check(gamma0, t, m_max=6, tol=1e-9)
        name = "classical.gamma_moments[gamma0=%g,t=%g]" % (gamma0, t)
        matched = [record for record in records if record.name == name]
        if len(matched) != 1 or matched[0].status != "pass":
            problems.append(
                "gamma moments at (%g, %g): %s"
                % (gamma0, t, [record.status for record in matched])
            )
        for record in records:
            if record.name == "classical.chi_squared_third_moment":
                anchor_seen = True
                if record.residual != 0.0:
                    problems.append("third-moment anchor residual %r" % record.residual)
    if not anchor_seen:
        problems.append("missing the unit chi-squared anchor record")
    _verdict(13, problems)


def test_criterion_14_obstruction_certificate():
    problems = []
    if nogo_certificate(1.0, 0.5, -2.0) != (-1.0, -2.0, -1.0):
        problems.append("anchor point is off: %r" % (nogo_certificate(1.0, 0.5, -2.0),))
    _collect(problems, check_nogo(1.0, 0.5, -2.0, tol=1e-12))
    rng = np.random.default_rng(114)
    _collect(problems, check_nogo_grid(rng, pairs=20, tol=1e-12))
    _verdict(14, problems)


def test_criterion_15_deterministic_reports():
    problems = []
    config = RunConfig(suite="all", trials=10, truncation=3)
    first = run_suite(config).to_canonical_json()
    second = run_suite(config).to_canonical_json()
    if first != second:
        problems.append("same config and seed produced different report bytes")
    other = run_suite(RunConfig(suite="all", trials=10, truncation=3, seed=1)).to_canonical_json()
    if first == other:
        problems.append("different seeds produced identical report bytes")
    _verdict(15, problems)
