"""Quadratic bosonic space: hand-sized oracles and structural behavior.

The one-point anchors were computed by hand before the implementation:
over a single point of weight 1 with renormalization constant 1, the
grade-1 and grade-2 squared lengths of the indicator tensors are 2 and 4,
annihilation sends the indicator pair tensor to 4 times the indicator,
and the vacuum expectation of (annihilate twice, create twice) is 16.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qwnlab.algebra import (
    FunctionAlgebra,
    MatrixAlgebra,
    pair_product_state_tensors,
    random_element,
)
from qwnlab.bosonic import ANNIHILATION, CREATION, NUMBER, BosonicSpace
from qwnlab.combinatorics import ordered_partitions, set_partitions
from qwnlab.linalg import hermitize, scaled_gap
from test_graded import RotatedMatrixAlgebra


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
    vec = [None, None, rng.standard_normal(4) + 1j * rng.standard_normal(4)]
    for kind, shift in ((CREATION, 1), (ANNIHILATION, -1), (NUMBER, 0)):
        out = space.apply(kind, phi, vec)
        direct = space.operator_matrix(kind, phi, 2) @ vec[2]
        assert np.allclose(out[2 + shift], direct)
        assert all(part is None for k, part in enumerate(out) if k != 2 + shift)


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
            assert _relative_gap(ordered, recursive) <= 1e-12
    with pytest.raises(ValueError):
        space.gram_matrix(1, method="cycles")


def _record_chain_builds(monkeypatch):
    """The grades pair_product_state_tensors is asked for, in order."""
    import qwnlab.bosonic

    asked = []

    def recording(algebra, kmax):
        asked.append(kmax)
        return pair_product_state_tensors(algebra, kmax)

    monkeypatch.setattr(qwnlab.bosonic, "pair_product_state_tensors", recording)
    return asked


def test_recursive_gram_builds_no_top_grade_chain_tensor(monkeypatch):
    asked = _record_chain_builds(monkeypatch)
    space = BosonicSpace(MatrixAlgebra(2), 5)
    space.gram(5)
    assert asked == []
    space.gram_matrix(2, method="ordered")
    assert asked == [2]


def test_each_partition_route_build_asks_for_its_own_chain_states(monkeypatch):
    # the routes keep nothing, so every partition-route Gram builds the
    # chain states up to its own grade, and the recursive route none
    asked = _record_chain_builds(monkeypatch)
    space = BosonicSpace(MatrixAlgebra(2), 4)
    space.check_gram_recursion(kmax=4)
    assert asked == [1, 2, 3, 4]
    asked.clear()
    space = BosonicSpace(FunctionAlgebra([0.5, 1.25, 0.75]), 3)
    space.check_gram_paths()
    assert asked == [1, 1, 2, 2, 3, 3]


def test_gram_routes_hand_out_arrays_they_do_not_keep():
    # a caller that writes into a route's Gram changes neither the next
    # build nor the hermitized Gram that gram(k) caches
    space = BosonicSpace(FunctionAlgebra([0.5, 1.25, 0.75]), 3, gamma0=0.75)
    for method in ("recursive", "ordered", "setpartition"):
        built = space.gram_matrix(2, method=method)
        expected = built.copy()
        built[...] = 99.0
        assert np.array_equal(space.gram_matrix(2, method=method), expected), method
    recursive = space.gram_matrix(3)
    expected = hermitize(recursive)
    recursive[...] = 99.0
    assert np.array_equal(space.gram(3), expected)


def test_route_comparison_holds_no_gram_after_its_record():
    # over M_2 at truncation 4 a grade-4 Gram is 1 MB; the comparison
    # builds two per grade and drops them once its record is made
    tracemalloc.start()
    try:
        space = BosonicSpace(MatrixAlgebra(2), 4)
        records = space.check_gram_recursion(kmax=4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records[0].status == "pass"
    gram_bytes = 16 * (space.algebra.dim**4) ** 2
    assert held < gram_bytes, held


def _gram_by_lists(space, k, method):
    """The partition routes as the definition writes them: one einsum per
    list partition for "ordered", each n-list weighted gamma0 / n, and one
    per set partition for "setpartition", each n-block weighted
    gamma0 (n - 1)!, both over the chain states."""
    dim = space.algebra.dim
    if k == 0:
        return np.ones((1, 1), dtype=complex)
    size = dim**k
    letters = "abcdefghijklmnopqrstuvwxyz"
    total = np.zeros((size, size), dtype=complex)
    chains = pair_product_state_tensors(space.algebra, k)
    if method == "ordered":
        partitions = ordered_partitions(k)
    else:
        partitions = set_partitions(k)
    for partition in partitions:
        coeff = 2.0**k / math.factorial(k)
        operands = []
        subs = []
        for block in partition.blocks:
            n = len(block)
            if method == "ordered":
                coeff *= space.gamma0 / n
            else:
                coeff *= space.gamma0 * math.factorial(n - 1)
            operands.append(chains[n - 1])
            subs.append(
                "".join(letters[p - 1] for p in block)
                + "".join(letters[k + p - 1] for p in block)
            )
        subscripts = ",".join(subs) + "->" + letters[: 2 * k]
        term = np.einsum(subscripts, *operands, optimize=True)
        total += coeff * term.reshape(size, size)
    return total


@pytest.mark.parametrize(
    "algebra, gamma0, kmax",
    [
        (lambda: MatrixAlgebra(2), 1.0, 4),
        (lambda: MatrixAlgebra(2), 0.75, 4),
        (lambda: FunctionAlgebra([0.5, 1.25, 0.75]), 0.75, 5),
        (lambda: RotatedMatrixAlgebra(2), 0.7, 3),
    ],
    ids=["m2", "m2_gamma0_0.75", "f3", "rotated"],
)
def test_ordered_route_matches_its_lists_one_by_one(algebra, gamma0, kmax):
    # each block's lists are summed into one tensor before the set
    # partitions are, so the sum is regrouped, not changed
    space = BosonicSpace(algebra(), kmax, gamma0=gamma0)
    for k in range(kmax + 1):
        lists = _gram_by_lists(space, k, "ordered")
        grouped = space.gram_matrix(k, method="ordered")
        assert np.abs(grouped - lists).max() <= 1e-14 * np.abs(lists).max(), k


def test_setpartition_route_is_unchanged_bit_for_bit():
    space = BosonicSpace(FunctionAlgebra([0.5, 1.25, 0.75]), 5, gamma0=0.75)
    for k in range(6):
        expected = _gram_by_lists(space, k, "setpartition")
        assert np.array_equal(space.gram_matrix(k, method="setpartition"), expected)


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


def test_cold_commutator_check_peak_stays_under_10_mb():
    # every commutator, the number-creation fit included, runs on the
    # basis pairs over orbit columns: over M_2 at truncation 5 the check
    # holds no whole-grade block (the fit on identity columns peaked at
    # 19 MB)
    space = BosonicSpace(MatrixAlgebra(2), 5)
    tracemalloc.start()
    try:
        records = space.check_commutators()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.status != "fail" for r in records)
    assert peak <= 10e6, peak


def test_number_kernel_on_the_symmetric_basis_makes_no_complex_copy():
    # grade 5 over M_2: the image and the kernel's product buffer are two
    # 1024 by 56 complex blocks (1.84 MB); a real basis would add a
    # complex copy of itself (2.75 MB in all)
    space = BosonicSpace(MatrixAlgebra(2), 5)
    columns = space.symmetric_basis(5)
    letter = space._basis_letters(NUMBER)[0]
    tracemalloc.start()
    try:
        space._kernel(NUMBER, letter, columns, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2e6, peak


def _warm_positivity_peak(monkeypatch):
    """Peak of the positivity check over M_2 at truncation 4 with its
    metrics and hermiticity gaps cached, and the bytes of its top Gram."""
    space = BosonicSpace(MatrixAlgebra(2), 4)
    space.check_positivity()
    tracemalloc.start()
    try:
        records = space.check_positivity()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return records, peak, space.gram_matrix(4).nbytes


def _cold_suite_peak(monkeypatch):
    """Peak of the adjointness, positivity and norm checks of a cold space
    over M_2 at truncation 5, with every grade gram_matrix is asked for,
    and the bytes of a grade-5 Gram, which is not built."""
    asked = []
    original = BosonicSpace.gram_matrix

    def recording(self, k, method=None):
        asked.append(k)
        return original(self, k, method)

    monkeypatch.setattr(BosonicSpace, "gram_matrix", recording)
    space = BosonicSpace(MatrixAlgebra(2), 5)
    tracemalloc.start()
    try:
        records = space.check_adjointness()
        records += space.check_positivity()
        records += space.check_norm_estimates(np.random.default_rng(5), trials=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(k <= 4 for k in asked), asked
    return records, peak, 16 * (space.algebra.dim**5) ** 2


@pytest.mark.parametrize(
    "case", [_warm_positivity_peak, _cold_suite_peak], ids=["warm", "cold"]
)
def test_positivity_check_peak_stays_under_one_top_grade_gram(case, monkeypatch):
    # the checks read the Gram only at the orbit representatives, so no
    # check holds a whole top-grade Gram, raw or hermitized
    records, peak, gram_bytes = case(monkeypatch)
    assert all(r.status != "fail" for r in records)
    assert peak <= 0.5 * gram_bytes, peak


ROUTE_ALGEBRAS = {
    "m2": lambda: MatrixAlgebra(2),
    "f2_dyadic": lambda: FunctionAlgebra([0.5, 1.25]),
    "f2_nondyadic": lambda: FunctionAlgebra([0.3, 0.7]),
    "f3_dyadic": lambda: FunctionAlgebra([0.5, 0.75, 1.25]),
    "f3_nondyadic": lambda: FunctionAlgebra([0.41, 0.77, 1.3]),
    "rotated": lambda: RotatedMatrixAlgebra(2),
}


def _assert_close(new, full):
    assert np.abs(new - full).max() <= 1e-14 * np.abs(full).max()


@pytest.mark.parametrize("gamma0", [1.0, 0.7, 1e-3])
@pytest.mark.parametrize("name", sorted(ROUTE_ALGEBRAS))
def test_representative_route_matches_the_whole_gram(name, gamma0):
    # the metric, the adjointness stacks and the hermiticity gap from the
    # Gram at the orbit representatives, against the same built from the
    # whole hermitized Gram restricted to the orthonormal orbit basis S
    space = BosonicSpace(ROUTE_ALGEBRAS[name](), 5, gamma0=gamma0)
    top = space.max_grade
    new = [space._metric(k) for k in range(top + 1)]
    full = []
    for k in range(top + 1):
        basis = space.symmetric_basis(k)
        full.append(hermitize(basis.conj().T @ space.gram(k) @ basis))
        _assert_close(new[k], full[k])
        raw = space.gram_matrix(k)
        gap = scaled_gap(raw, raw.conj().T)
        assert abs(space._hermiticity_gap(k) - gap) <= 1e-14, k
    # the adjointness sides pair the compressed operators with the metrics
    units = np.eye(space.algebra.dim)
    for k in range(top):
        for kind, grade, side in (
            (ANNIHILATION, k + 1, lambda mat, grams: mat.conj().T @ grams[k]),
            (CREATION, k, lambda mat, grams: grams[k + 1].conj().T @ mat),
        ):
            factors = [space._leading(kind, unit, grade) for unit in units]
            _assert_close(
                np.array([side(mat, new) for mat in factors]),
                np.array([side(mat, full) for mat in factors]),
            )
