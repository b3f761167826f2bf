"""Deformed one-particle modes and the squared-mode discretization."""

import itertools
from collections import Counter

import numpy as np
import pytest

from qwnlab.combinatorics import inversions
from qwnlab.graded import GradeOverflowError
from qwnlab.linalg import axis_permutation_matrix
from qwnlab.qdeform import (
    DiscretizedQuadratic,
    QFockSpace,
    check_bosonic_coefficient_match,
    check_inversion_count,
)


def test_gram_matrices_small():
    space = QFockSpace(2, 0.5, 3)
    assert np.allclose(space.q_gram(0), np.ones((1, 1)))
    assert np.allclose(space.q_gram(1), np.eye(2))
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.allclose(space.q_gram(2), np.eye(4) + 0.5 * swap)
    eigs = np.linalg.eigvalsh(space.q_gram(2))
    assert eigs.min() == pytest.approx(0.5)  # 1 - q
    assert eigs.max() == pytest.approx(1.5)  # 1 + q


def test_gram_degenerates_at_q_one():
    space = QFockSpace(2, 1.0, 2)
    eigs = np.linalg.eigvalsh(space.q_gram(2))
    assert eigs.min() == pytest.approx(0.0, abs=1e-12)


def test_free_case_contracts_to_pairing():
    space = QFockSpace(2, 0.0, 3)
    rng = np.random.default_rng(1)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for n in range(3):
        prod = space.annihilate_matrix(phi, n + 1) @ space.create_matrix(psi, n)
        assert np.allclose(prod, np.vdot(phi, psi) * np.eye(2**n))


def test_single_mode_q_one_is_the_harmonic_ladder():
    space = QFockSpace(1, 1.0, 4)
    e = np.ones(1)
    for n in range(3):
        comm = space.annihilate_matrix(e, n + 1) @ space.create_matrix(
            e, n
        ) - space.create_matrix(e, n - 1) @ space.annihilate_matrix(
            e, n
        ) if n >= 1 else space.annihilate_matrix(e, 1) @ space.create_matrix(e, 0)
        assert np.allclose(comm, np.eye(1))


def test_single_mode_squared_relation_anchor():
    # at q = 1 on one mode: aaa*a* - a*a*aa = 2 + 4 a*a on grade n
    space = QFockSpace(1, 1.0, 6)
    e = np.ones(1)
    for n in range(0, 4):
        lhs = (
            space.annihilate_matrix(e, n + 1)
            @ space.annihilate_matrix(e, n + 2)
            @ space.create_matrix(e, n + 1)
            @ space.create_matrix(e, n)
        )
        if n >= 2:
            lhs = lhs - (
                space.create_matrix(e, n - 1)
                @ space.create_matrix(e, n - 2)
                @ space.annihilate_matrix(e, n - 1)
                @ space.annihilate_matrix(e, n)
            )
        number = space.create_matrix(e, n - 1) @ space.annihilate_matrix(
            e, n
        ) if n >= 1 else np.zeros((1, 1))
        assert np.allclose(lhs, 2.0 * np.eye(1) + 4.0 * number)


def test_number_matrix_uses_gram_adjoint_creator():
    # the creator is the q-Gram adjoint of the annihilator, and at q != 0
    # that differs from the matrix conjugate transpose; the number operator
    # must be built from the creator itself
    space = QFockSpace(2, 0.5, 3)
    rng = np.random.default_rng(2)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    n = 2
    viaadjoint = sum(
        phi[i] * np.conj(phi[j]) * (
            space.annihilate_matrix(np.eye(2)[i], n).conj().T
            @ space.annihilate_matrix(np.eye(2)[j], n)
        )
        for i in range(2)
        for j in range(2)
    )
    direct = space.number_matrix(phi, phi, n)
    assert not np.allclose(direct, viaadjoint)


def test_relation_checks_pass():
    rng = np.random.default_rng(31)
    for q in (-0.5, 0.0, 0.5, 1.0):
        space = QFockSpace(2, q, 4)
        for record in space.check_canonical_relation():
            assert record.status == "pass", record
        for record in space.check_squared_relation(rng, trials=5):
            assert record.status == "pass", record
        for record in space.check_adjointness():
            assert record.status == "pass", record
        for record in space.check_positivity():
            assert record.status == "pass", record


def permutation_sum(dim, q, n):
    """P_q(n) as the sum over all n! slot permutations."""
    mat = np.zeros((dim**n, dim**n), dtype=complex)
    for perm in itertools.permutations(range(n)):
        mat += q ** inversions(perm) * axis_permutation_matrix(dim, perm)
    return mat


@pytest.mark.parametrize("q", [0.5, 0.0, 1.0, -0.3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_q_gram_recursion_matches_permutation_sum(q, dim):
    space = QFockSpace(dim, q, 5)
    for n in range(6):
        expected = permutation_sum(dim, q, n)
        space.q_gram(n)
        raw = space._raw_grams[n]
        if q != -0.3:
            # dyadic q: both routes are exact
            assert np.array_equal(raw, expected), n
        else:
            # The permutation sum cancels terms of both signs, so its own
            # rounding is bounded relative to the sum of their magnitudes.
            scale = np.abs(permutation_sum(dim, abs(q), n)).max()
            assert np.abs(raw - expected).max() <= 1e-15 * scale, n


def test_positivity_builds_each_raw_gram_once(monkeypatch):
    calls = Counter()
    original = QFockSpace._raw_gram

    def counted(self, n):
        calls[n] += 1
        return original(self, n)

    monkeypatch.setattr(QFockSpace, "_raw_gram", counted)
    space = QFockSpace(2, 0.5, 4)
    for n in range(5):
        space.q_gram(n)
    space.check_positivity()
    assert sorted(calls) == list(range(5))
    assert max(calls.values()) == 1


def test_inversion_statistic_feeds_the_gram():
    rng = np.random.default_rng(7)
    records = check_inversion_count(rng, trials=50)
    assert all(r.status == "pass" for r in records)


def test_create_matrix_overflow_and_annihilate_on_vacuum():
    space = QFockSpace(2, 0.5, 2)
    with pytest.raises(GradeOverflowError):
        space.create_matrix(np.ones(2), 2)
    with pytest.raises(ValueError):
        space.annihilate_matrix(np.ones(2), 0)


def test_discretized_validation():
    with pytest.raises(ValueError):
        # block masses 1.0 and 0.5 differ
        DiscretizedQuadratic(0.5, [0.5, 0.5, 0.5], [(0, 1), (2,)], 4)
    disc = DiscretizedQuadratic(0.5, [0.75, 0.25, 0.5, 0.5], [(0, 1), (2, 3)], 4)
    with pytest.raises(ValueError):
        # not constant on the first block
        disc.generated_vector([np.array([1.0, 2.0, 1.0, 1.0])])


def test_discretized_vacuum_element():
    q = 0.5
    disc = DiscretizedQuadratic(q, [0.75, 0.25, 0.5, 0.5], [(0, 1), (2, 3)], 4)
    phi = np.array([1.0 + 1j, 1.0 + 1j, 2.0, 2.0])
    psi = np.array([0.5, 0.5, -1.0, -1.0])
    integral = np.sum(psi * np.conj(phi) * np.array([0.75, 0.25, 0.5, 0.5]))
    # vacuum pairing of annihilate(phi) create(psi) is (1+q)/l * integral
    lhs = disc.quad_annihilate_matrix(phi, 2) @ disc.quad_create_matrix(psi, 0)
    assert lhs[0, 0] == pytest.approx((1.0 + q) / 1.0 * integral)


def test_discretized_relation_records():
    rng = np.random.default_rng(19)
    disc = DiscretizedQuadratic(0.5, [0.75, 0.25, 0.5, 0.5], [(0, 1), (2, 3)], 4)
    phi = disc.random_piecewise(rng)
    psi = disc.random_piecewise(rng)
    records = disc.check_discretized_relation(phi, psi, rng, pairs=4)
    assert {r.name for r in records} == {
        "qdeform.discretized_relation",
        "qdeform.discretized_vacuum_element",
    }
    assert all(r.status == "pass" for r in records)


def test_squared_modes_share_quadratic_structure_constants():
    records = check_bosonic_coefficient_match()
    by_name = {r.name: r for r in records}
    assert by_name["qdeform.bosonic_coefficient_match"].status == "pass"
    scalar = by_name["qdeform.bosonic_scalar_coefficient"]
    number = by_name["qdeform.bosonic_number_coefficient"]
    assert scalar.status == "reported"
    assert scalar.measured == pytest.approx(2.0)
    assert number.measured == pytest.approx(4.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        QFockSpace(2, 1.5, 3)
    with pytest.raises(ValueError):
        QFockSpace(2, -1.0, 3)
    with pytest.raises(ValueError):
        QFockSpace(0, 0.5, 3)
    with pytest.raises(ValueError):
        QFockSpace(2, 0.5, 0)
