"""Partition families and the moment / free-cumulant machinery.

Four families over the ground set {1, ..., n}, each item a tuple of
blocks and each block a tuple of ints:

* set partitions (unordered blocks, unordered within blocks; every block
  sorted, blocks ordered by least element),
* ordered partitions (an unordered set of blocks, each block an ordered
  sequence; blocks ordered by least element; these weight the bosonic
  Gram form),
* interval compositions (consecutive runs cut out of 1..k, in order),
* noncrossing partitions (no a < b < c < d with a,c in one block and b,d
  in another; blocks sorted and ordered by least element; these index the
  free moment expansion).

Counts are exact arbitrary-precision integers.  Enumerators are lazy
generators with explicit size caps so a typo cannot trigger a
combinatorial explosion.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

Blocks = tuple[tuple[int, ...], ...]

MAX_SET_PARTITION_N = 12
MAX_ORDERED_PARTITION_N = 9
MAX_INTERVAL_K = 20
MAX_NONCROSSING_N = 12


class EnumerationLimitError(ValueError):
    """An enumeration request exceeded its hard size cap."""


def set_partitions(n: int) -> Iterator[Blocks]:
    """All set partitions of {1..n}, Bell(n) of them, lazily."""
    if not 1 <= n <= MAX_SET_PARTITION_N:
        raise EnumerationLimitError(
            f"set partitions supported for 1 <= n <= {MAX_SET_PARTITION_N}, got {n}"
        )

    def rec(x, blocks):
        if x > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(x)
            yield from rec(x + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(x + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


def ordered_partitions(n: int) -> Iterator[Blocks]:
    """Partitions into ordered blocks; count is sum over set partitions of
    the product of block factorials."""
    if not 1 <= n <= MAX_ORDERED_PARTITION_N:
        raise EnumerationLimitError(
            f"ordered partitions supported for 1 <= n <= {MAX_ORDERED_PARTITION_N}, got {n}"
        )
    for blocks in set_partitions(n):
        yield from itertools.product(*(itertools.permutations(b) for b in blocks))


def interval_compositions(k: int) -> Iterator[Blocks]:
    """The 2**(k-1) ways to cut 1..k into consecutive nonempty runs."""
    if not 1 <= k <= MAX_INTERVAL_K:
        raise EnumerationLimitError(
            f"interval compositions supported for 1 <= k <= {MAX_INTERVAL_K}, got {k}"
        )
    for inner in itertools.chain.from_iterable(
        itertools.combinations(range(1, k), r) for r in range(k)
    ):
        cuts = (0,) + inner + (k,)
        yield tuple(tuple(range(lo + 1, hi + 1)) for lo, hi in zip(cuts, cuts[1:]))


def noncrossing_partitions(n: int) -> Iterator[Blocks]:
    """All noncrossing partitions of {1..n}, Catalan(n) of them."""
    if not 1 <= n <= MAX_NONCROSSING_N:
        raise EnumerationLimitError(
            f"noncrossing partitions supported for 1 <= n <= {MAX_NONCROSSING_N}, got {n}"
        )

    def rec(items):
        # items: ascending tuple of labels still to be partitioned
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        # choose the rest of first's block; the chosen elements split the
        # remaining labels into independent gaps (anything joining two gaps
        # would cross the block of `first`)
        for r in range(len(rest) + 1):
            for chosen in itertools.combinations(rest, r):
                cuts = (first,) + chosen + (math.inf,)
                gaps = [
                    tuple(x for x in rest if lo < x < hi)
                    for lo, hi in zip(cuts, cuts[1:])
                ]
                for sub in itertools.product(*(rec(g) for g in gaps)):
                    yield ((first,) + chosen,) + sum(sub, ())

    for blocks in rec(tuple(range(1, n + 1))):
        yield tuple(sorted(blocks))


@functools.lru_cache(maxsize=None)
def noncrossing_blocks(n: int) -> tuple:
    """``noncrossing_partitions(n)`` as a tuple, in its order.

    Enumerated once per n; the moment and cumulant sums read these, so
    their float sums keep the generator's order.
    """
    return tuple(noncrossing_partitions(n))


def bell_number(n: int) -> int:
    """Exact Bell number via the Bell triangle."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan(l: int) -> int:
    """Exact Catalan number C(2l, l) / (l + 1)."""
    if l < 0:
        raise ValueError("l must be >= 0")
    return math.comb(2 * l, l) // (l + 1)


def inversions(perm) -> int:
    """Number of inverted pairs, counted by mergesort in O(n log n)."""
    a = list(perm)
    if sorted(a) != list(range(len(a))) and sorted(a) != list(range(1, len(a) + 1)):
        raise ValueError("perm must be a permutation of 0..n-1 or 1..n")

    def count(seq):
        if len(seq) <= 1:
            return seq, 0
        mid = len(seq) // 2
        left, nl = count(seq[:mid])
        right, nr = count(seq[mid:])
        merged = []
        inv = nl + nr
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                inv += len(left) - i
                merged.append(right[j])
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged, inv

    return count(a)[1]


def cumulant_weight(n: int, s) -> float:
    """Weight of an n-element block in the noncrossing moment expansion.

    Polynomial in the number-operator coupling s with Catalan coefficients:

        sum over l >= 0, 2l <= n - 2 of  catalan(l) * C(n-2, 2l) * s**(n-2l-2)

    Singletons get weight 0.  The internal sum starts at l = 0; starting it
    at l = 1 would zero every pair-block weight, which the directly computed
    second moment rules out (see the free-space tests).
    """
    if n < 1:
        raise ValueError("block size must be >= 1")
    if n == 1:
        return 0.0
    total = 0.0
    for l in range(0, (n - 2) // 2 + 1):
        total += catalan(l) * math.comb(n - 2, 2 * l) * float(s) ** (n - 2 * l - 2)
    return total


def free_cumulants_to_moments(cumulants) -> list:
    """Moments from free cumulants via the noncrossing-partition sum."""
    cum = list(cumulants)
    moments = []
    for n in range(1, len(cum) + 1):
        m = 0
        for blocks in noncrossing_blocks(n):
            term = 1
            for b in blocks:
                term *= cum[len(b) - 1]
            m += term
        moments.append(m)
    return moments


def moments_to_free_cumulants(moments) -> list:
    """Free cumulants from moments; exact inverse of the forward transform.

    Every noncrossing partition other than the one-block partition only uses
    blocks of size < n, so the recursion is well founded.
    """
    mom = list(moments)
    cum = []
    for n in range(1, len(mom) + 1):
        rest = 0
        for blocks in noncrossing_blocks(n):
            if len(blocks) == 1:
                continue
            term = 1
            for b in blocks:
                term *= cum[len(b) - 1]
            rest += term
        cum.append(mom[n - 1] - rest)
    return cum
