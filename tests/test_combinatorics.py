"""Enumeration layer: frozen counts, structural validity, transforms.

The expected counts below were frozen from independent sources before the
enumerators were written: Bell and Catalan numbers from their standard
recurrences, the chain-partition counts 1, 3, 13, 73, 501, 4051, 37633
from the exponential generating function exp(x/(1-x)) evaluated by hand
for small n (number of ways to partition a set into nonempty ordered
sequences).
"""

import itertools

import numpy as np
import pytest

from qwnlab.combinatorics import (
    EnumerationLimitError,
    IntervalComposition,
    NoncrossingPartition,
    OrderedPartition,
    SetPartition,
    bell_number,
    catalan,
    cumulant_weight,
    free_cumulants_to_moments,
    interval_compositions,
    inversions,
    moments_to_free_cumulants,
    noncrossing_partitions,
    ordered_partitions,
    set_partitions,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
CHAIN_PARTITIONS = [1, 3, 13, 73, 501, 4051, 37633]


@pytest.mark.parametrize("n", range(1, 8))
def test_ordered_partition_counts(n):
    assert sum(1 for _ in ordered_partitions(n)) == CHAIN_PARTITIONS[n - 1]


def test_ordered_partitions_are_partitions_into_sequences():
    seen = set()
    for p in ordered_partitions(4):
        assert isinstance(p, OrderedPartition)
        flat = sorted(x for b in p.blocks for x in b)
        assert flat == [1, 2, 3, 4]
        assert p not in seen
        seen.add(p)
    # Within a block the order matters: both chain orders of {1, 2} occur.
    two = {p.blocks for p in ordered_partitions(2)}
    assert ((1, 2),) in two
    assert ((2, 1),) in two
    assert ((1,), (2,)) in two


@pytest.mark.parametrize("n", range(1, 7))
def test_set_partition_counts(n):
    assert sum(1 for _ in set_partitions(n)) == BELL[n]


def test_bell_number_table():
    assert [bell_number(n) for n in range(9)] == BELL


def test_catalan_table():
    assert [catalan(n) for n in range(11)] == CATALAN


@pytest.mark.parametrize("n", range(1, 8))
def test_noncrossing_counts_are_catalan(n):
    assert sum(1 for _ in noncrossing_partitions(n)) == CATALAN[n]


def _crosses_quadratic(blocks):
    """O(n^4) reference: search for a < b < c < d split across two blocks."""
    for p, q in itertools.combinations(blocks, 2):
        for a, c in itertools.combinations(p, 2):
            for b, d in itertools.combinations(q, 2):
                if a < b < c < d or b < a < d < c:
                    return True
    return False


def test_noncrossing_agrees_with_quadratic_scan():
    for n in range(1, 7):
        fast = {p.blocks for p in noncrossing_partitions(n)}
        slow = {
            p.blocks for p in set_partitions(n) if not _crosses_quadratic(p.blocks)
        }
        assert fast == slow


def test_noncrossing_constructor_rejects_crossing():
    with pytest.raises(ValueError):
        NoncrossingPartition(((1, 3), (2, 4)))
    NoncrossingPartition(((1, 4), (2, 3)))  # nested is fine


def test_interval_compositions():
    comps = list(interval_compositions(4))
    assert len(comps) == 8  # 2**(k-1)
    for comp in comps:
        assert isinstance(comp, IntervalComposition)
        flat = [x for b in comp.blocks for x in b]
        assert flat == [1, 2, 3, 4]  # contiguous runs in order


def test_enumeration_limits():
    with pytest.raises(EnumerationLimitError):
        list(ordered_partitions(0))
    with pytest.raises(EnumerationLimitError):
        list(ordered_partitions(10))
    with pytest.raises(EnumerationLimitError):
        list(set_partitions(0))
    with pytest.raises(EnumerationLimitError):
        list(noncrossing_partitions(0))


def test_partition_dataclass_validation():
    with pytest.raises(ValueError):
        SetPartition(((2, 1),))  # block not sorted
    with pytest.raises(ValueError):
        SetPartition(((1,), (3,)))  # does not cover {1, 2}
    with pytest.raises(ValueError):
        OrderedPartition(((2,), (1,)))  # blocks not ordered by least element


def test_inversions_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = 2 + int(rng.integers(7))
        perm = tuple(int(x) for x in rng.permutation(n))
        brute = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        assert inversions(perm) == brute
    assert inversions((0, 1, 2)) == 0
    assert inversions((2, 1, 0)) == 3
    with pytest.raises(ValueError):
        inversions((0, 0, 1))


def test_cumulant_weight_anchors():
    # Hand expansion of sum_l catalan(l) * C(n-2, 2l) * s**(n-2l-2).
    s = 1.75
    assert cumulant_weight(2, s) == 1.0
    assert cumulant_weight(3, s) == s
    assert cumulant_weight(4, s) == pytest.approx(s**2 + 1.0)
    assert cumulant_weight(5, s) == pytest.approx(s**3 + 3.0 * s)
    assert cumulant_weight(5, 2.0) == pytest.approx(14.0)
    assert cumulant_weight(4, 0.0) == 1.0
    assert cumulant_weight(3, 2.0) == 2.0
    with pytest.raises(ValueError):
        cumulant_weight(0, s)


def test_moment_cumulant_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cumulants = list(rng.standard_normal(7))
        moments = free_cumulants_to_moments(cumulants)
        back = moments_to_free_cumulants(moments)
        assert np.allclose(back, cumulants, atol=1e-10)


def test_semicircle_moments_are_catalan():
    # Free cumulants (0, 1, 0, 0, ...) generate the moment sequence
    # 0, 1, 0, 2, 0, 5: Catalan numbers at even orders.
    moments = free_cumulants_to_moments([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(moments, [0.0, 1.0, 0.0, 2.0, 0.0, 5.0])
