"""Quadratic bosonic space: hand-sized oracles and structural behavior.

The one-point anchors were computed by hand before the implementation:
over a single point of weight 1 with renormalization constant 1, the
grade-1 and grade-2 squared lengths of the indicator tensors are 2 and 4,
annihilation sends the indicator pair tensor to 4 times the indicator,
and the vacuum expectation of (annihilate twice, create twice) is 16.
"""

import tracemalloc

import numpy as np
import pytest

from qwnlab.algebra import FunctionAlgebra, MatrixAlgebra, random_element
from qwnlab.bosonic import ANNIHILATION, CREATION, NUMBER, BosonicSpace
from qwnlab.graded import GradedVector


def one_point_space(weight=1.0, gamma0=1.0, max_grade=4):
    return BosonicSpace(FunctionAlgebra([weight]), max_grade, gamma0=gamma0)


def test_one_point_gram_anchors():
    space = one_point_space()
    assert space.gram(1)[0, 0] == pytest.approx(2.0)
    assert space.gram(2)[0, 0] == pytest.approx(4.0)
    assert space.gram(3)[0, 0] == pytest.approx(8.0)


def test_one_point_gram_with_weight_and_gamma0():
    w, g0 = 0.75, 0.5
    space = one_point_space(weight=w, gamma0=g0)
    assert space.gram(1)[0, 0] == pytest.approx(2.0 * g0 * w)
    assert space.gram(2)[0, 0] == pytest.approx(2.0 * g0**2 * w**2 + 2.0 * g0 * w)


def test_one_point_annihilation_action():
    space = one_point_space()
    chi_pair = np.ones(1)
    out = space.operator_matrix(ANNIHILATION, np.ones(1), 2) @ chi_pair
    assert out.shape == (1,)
    assert out[0] == pytest.approx(4.0)


def test_vacuum_pairing_of_create_then_annihilate():
    alg = FunctionAlgebra([0.5, 0.25, 1.0])
    space = BosonicSpace(alg, max_grade=3, gamma0=0.75)
    rng = np.random.default_rng(8)
    phi = random_element(alg, rng)
    psi = random_element(alg, rng)
    # operator words are written left to right, the rightmost acts first
    measured = space.vacuum_expectation(((ANNIHILATION, phi), (CREATION, psi)))
    expected = 2.0 * 0.75 * alg.state(alg.mul(alg.star(phi), psi))
    assert measured == pytest.approx(expected)


def test_one_point_fourth_moment_is_sixteen():
    space = one_point_space()
    chi = np.ones(1)
    word = (
        (ANNIHILATION, chi),
        (ANNIHILATION, chi),
        (CREATION, chi),
        (CREATION, chi),
    )
    assert space.vacuum_expectation(word) == pytest.approx(16.0)


def test_number_creation_commutator_is_creation_of_product():
    # [number(z), create(x)] equals create(z x) exactly as matrices, with
    # unit coefficient; this is the concrete-operator value the abstract
    # relation table replaces with 2.
    alg = FunctionAlgebra([0.5, 1.0])
    space = BosonicSpace(alg, max_grade=3)
    rng = np.random.default_rng(4)
    zeta = random_element(alg, rng, dyadic=True)
    xi = random_element(alg, rng, dyadic=True)
    for k in range(3):
        lhs = space.operator_matrix(NUMBER, zeta, k + 1) @ space.operator_matrix(
            CREATION, xi, k
        ) - space.operator_matrix(CREATION, xi, k) @ space.operator_matrix(
            NUMBER, zeta, k
        )
        rhs = space.operator_matrix(CREATION, alg.mul(zeta, xi), k)
        assert np.array_equal(lhs, rhs)


def test_function_gram_is_diagonal_in_point_basis():
    space = BosonicSpace(FunctionAlgebra([0.5, 1.5]), max_grade=3)
    for k in range(1, 4):
        gram = space.gram(k)
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() == 0.0


def test_assembly_routes_agree_and_guard_noncommutative():
    space = BosonicSpace(FunctionAlgebra([0.5, 0.25]), max_grade=4, gamma0=0.5)
    for k in range(5):
        ordered = space.gram_matrix(k, method="ordered")
        sets = space.gram_matrix(k, method="setpartition")
        assert np.allclose(ordered, sets, atol=1e-12)
    mspace = BosonicSpace(MatrixAlgebra(2), max_grade=2)
    with pytest.raises(ValueError):
        mspace.gram_matrix(2, method="setpartition")
    with pytest.raises(ValueError):
        mspace.check_gram_paths()


def test_creation_preserves_symmetric_subspace():
    space = BosonicSpace(FunctionAlgebra([1.0, 0.5]), max_grade=3)
    rng = np.random.default_rng(9)
    phi = random_element(space.algebra, rng)
    for k in range(1, 3):
        sym_in = space.symmetrizer(k)
        sym_out = space.symmetrizer(k + 1)
        image = space.operator_matrix(CREATION, phi, k) @ sym_in
        assert np.allclose(sym_out @ image, image, atol=1e-12)


def test_apply_matches_operator_matrix():
    alg = FunctionAlgebra([1.0, 0.25])
    space = BosonicSpace(alg, max_grade=3)
    rng = np.random.default_rng(12)
    phi = random_element(alg, rng)
    vec = GradedVector.zero(2, 3)
    vec.parts[2] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for kind, shift in ((CREATION, 1), (ANNIHILATION, -1), (NUMBER, 0)):
        out = space.apply(kind, phi, vec)
        direct = space.operator_matrix(kind, phi, 2) @ vec.parts[2]
        assert np.allclose(out.parts[2 + shift], direct)


def test_vacuum_expectation_guards():
    from qwnlab.graded import GradeOverflowError

    space = one_point_space(max_grade=2)
    chi = np.ones(1)
    with pytest.raises(GradeOverflowError):
        space.vacuum_expectation(((CREATION, chi),) * 5)  # longer than 2 * grade
    # odd creation surplus leaves the vacuum component empty
    assert space.vacuum_expectation(((CREATION, chi),)) == 0.0


def test_grade_bounds_raise():
    space = one_point_space(max_grade=2)
    with pytest.raises(ValueError):
        space.operator_matrix(ANNIHILATION, np.ones(1), 0)
    with pytest.raises(Exception):
        space.operator_matrix(CREATION, np.ones(1), 2)


def _relative_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), 1.0)


def test_recursive_gram_matches_ordered_route():
    # the default route relies on a tracial state, which both algebras have
    cases = (
        (MatrixAlgebra(2), 1.0, 4),
        (FunctionAlgebra([0.5, 1.25, 0.75]), 0.75, 5),
    )
    for algebra, gamma0, kmax in cases:
        space = BosonicSpace(algebra, kmax, gamma0=gamma0)
        for k in range(kmax + 1):
            ordered = space.gram_matrix(k, method="ordered")
            recursive = space.gram_matrix(k, method="recursive")
            assert recursive is space.gram_matrix(k)
            assert _relative_gap(ordered, recursive) <= 1e-12
    with pytest.raises(ValueError):
        space.gram_matrix(1, method="cycles")


def test_recursive_gram_builds_no_top_grade_chain_tensor(monkeypatch):
    import qwnlab.bosonic

    asked = []
    original = qwnlab.bosonic.pair_product_state_tensors

    def recording(algebra, kmax):
        asked.append(kmax)
        return original(algebra, kmax)

    monkeypatch.setattr(qwnlab.bosonic, "pair_product_state_tensors", recording)
    space = BosonicSpace(MatrixAlgebra(2), 5)
    space.gram(5)
    assert asked == []
    space.gram_matrix(2, method="ordered")
    assert asked == [2]


def test_norm_estimates_whiten_each_grade_once(monkeypatch):
    import qwnlab.linalg

    calls = []
    original = qwnlab.linalg.gram_whitener

    def counting(gram, *args):
        calls.append(gram.shape)
        return original(gram, *args)

    monkeypatch.setattr(qwnlab.linalg, "gram_whitener", counting)
    space = BosonicSpace(FunctionAlgebra([0.5, 1.0]), max_grade=3)
    records = space.check_norm_estimates(np.random.default_rng(3), trials=5)
    assert all(r.status == "pass" for r in records)
    assert len(calls) <= space.max_grade + 1


def _negative_directions(record):
    # notes end "...; negative metric directions dropped: <count>"
    return int(record.notes.rsplit(": ", 1)[1])


def test_norm_records_count_the_negative_directions_dropped():
    rng = np.random.default_rng(8)
    matrices = BosonicSpace(MatrixAlgebra(2), 3, gamma0=1.0)
    records = matrices.check_norm_estimates(rng, trials=2)
    assert all(_negative_directions(r) > 0 for r in records)
    assert len({r.notes for r in records}) == 1
    functions = BosonicSpace(FunctionAlgebra([0.5, 1.0]), 3, gamma0=1.0)
    records = functions.check_norm_estimates(rng, trials=2)
    assert all(_negative_directions(r) == 0 for r in records)


def test_ladder_bounds_fail_over_m2_at_small_gamma0():
    # Over M_2 the symmetric Gram is indefinite from grade 2 up, and at
    # gamma0 1e-3 the norms against its positive part exceed both ladder
    # bounds; the number bound holds.
    space = BosonicSpace(MatrixAlgebra(2), 4, gamma0=1e-3)
    records = space.check_norm_estimates(np.random.default_rng(9), trials=3)
    status = {r.name: r.status for r in records}
    assert status == {
        "bosonic.norm.creation_bound": "fail",
        "bosonic.norm.annihilation_bound": "fail",
        "bosonic.norm.number_bound": "pass",
    }
    assert _negative_directions(records[0]) > 0


def _commutator_check_peak(trials):
    """Peak traced bytes of the commutator check over M_2 at truncation 4."""
    space = BosonicSpace(MatrixAlgebra(2), 4)
    tracemalloc.start()
    try:
        space.check_commutators(np.random.default_rng(21), trials=trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_commutator_check_peak_does_not_grow_with_the_trials():
    # the number-creation fit keeps the symbols of its trials, not their
    # matrices, and rebuilds each pair for the misfit
    peaks = [_commutator_check_peak(trials) for trials in (1, 10, 50)]
    assert max(peaks) <= 1.2 * peaks[0], peaks


def test_positivity_check_peak_stays_under_one_top_grade_gram():
    # the hermiticity defect is taken in column blocks, so with the Grams
    # and metrics cached the check holds no copy of a whole raw Gram
    space = BosonicSpace(MatrixAlgebra(2), 4)
    space.check_positivity()
    tracemalloc.start()
    try:
        records = space.check_positivity()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.status != "fail" for r in records)
    assert peak <= 0.5 * space.gram_matrix(4).nbytes, peak
