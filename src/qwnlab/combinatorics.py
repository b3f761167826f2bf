"""Partition families and the moment / free-cumulant machinery.

Four families over the ground set {1, ..., n}:

* set partitions (unordered blocks, unordered within blocks),
* ordered partitions (an unordered set of blocks, each block an ordered
  sequence; these weight the bosonic Gram form),
* interval compositions (consecutive blocks cut out of 1..k; these weight
  the free Gram form),
* noncrossing partitions (no a < b < c < d with a,c in one block and b,d
  in another; these index the free moment expansion).

Counts are exact arbitrary-precision integers.  Enumerators are lazy
generators with explicit size caps so a typo cannot trigger a
combinatorial explosion.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

MAX_SET_PARTITION_N = 12
MAX_ORDERED_PARTITION_N = 9
MAX_INTERVAL_K = 20
MAX_NONCROSSING_N = 12


class EnumerationLimitError(ValueError):
    """An enumeration request exceeded its hard size cap."""


def _validate_cover(blocks, n):
    seen = sorted(x for b in blocks for x in b)
    if seen != list(range(1, n + 1)):
        raise ValueError("blocks must partition {1, ..., n} exactly")


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..n}; blocks sorted internally and by least element."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.blocks or any(not b for b in self.blocks):
            raise ValueError("blocks must be nonempty")
        n = sum(len(b) for b in self.blocks)
        _validate_cover(self.blocks, n)
        for b in self.blocks:
            if list(b) != sorted(b):
                raise ValueError("set-partition blocks must be sorted")
        if [b[0] for b in self.blocks] != sorted(b[0] for b in self.blocks):
            raise ValueError("blocks must be ordered by least element")

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)


@dataclass(frozen=True)
class OrderedPartition:
    """Unordered set of blocks, each block an ordered sequence.

    The block set is canonicalized by each block's least element.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.blocks or any(not b for b in self.blocks):
            raise ValueError("blocks must be nonempty")
        n = sum(len(b) for b in self.blocks)
        _validate_cover(self.blocks, n)
        if [min(b) for b in self.blocks] != sorted(min(b) for b in self.blocks):
            raise ValueError("blocks must be ordered by least element")

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)


@dataclass(frozen=True)
class IntervalComposition:
    """Cut points 0 = c_0 < c_1 < ... < c_m = k splitting 1..k into runs."""

    cuts: tuple[int, ...]

    def __post_init__(self):
        c = self.cuts
        if len(c) < 2 or c[0] != 0:
            raise ValueError("cuts must start at 0 and contain at least one block")
        if any(c[i] >= c[i + 1] for i in range(len(c) - 1)):
            raise ValueError("cut points must be strictly increasing")

    @property
    def k(self):
        return self.cuts[-1]

    @property
    def blocks(self):
        c = self.cuts
        return tuple(
            tuple(range(c[i] + 1, c[i + 1] + 1)) for i in range(len(c) - 1)
        )


@dataclass(frozen=True)
class NoncrossingPartition:
    """Set partition with a noncrossing certificate checked on construction."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        SetPartition(self.blocks)  # reuse the structural validation
        if not _stack_noncrossing(self.blocks):
            raise ValueError("blocks cross")

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)


def _stack_noncrossing(blocks) -> bool:
    """Linear-time nesting check: a revisited block must sit on stack top."""
    owner = {}
    last = {}
    for bi, b in enumerate(blocks):
        for x in b:
            owner[x] = bi
        last[bi] = max(b)
    stack = []
    seen = set()
    for x in range(1, len(owner) + 1):
        bi = owner[x]
        if bi not in seen:
            seen.add(bi)
            stack.append(bi)
        elif stack[-1] != bi:
            return False
        if x == last[bi]:
            if stack[-1] != bi:
                return False
            stack.pop()
    return True


def set_partitions(n: int) -> Iterator[SetPartition]:
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

    for blocks in rec(1, []):
        yield SetPartition(blocks)


def ordered_partitions(n: int) -> Iterator[OrderedPartition]:
    """Partitions into ordered blocks; count is sum over set partitions of
    the product of block factorials."""
    if not 1 <= n <= MAX_ORDERED_PARTITION_N:
        raise EnumerationLimitError(
            f"ordered partitions supported for 1 <= n <= {MAX_ORDERED_PARTITION_N}, got {n}"
        )
    for sp in set_partitions(n):
        for arrangement in itertools.product(
            *(itertools.permutations(b) for b in sp.blocks)
        ):
            yield OrderedPartition(tuple(arrangement))


def interval_compositions(k: int) -> Iterator[IntervalComposition]:
    """The 2**(k-1) ways to cut 1..k into consecutive nonempty runs."""
    if not 1 <= k <= MAX_INTERVAL_K:
        raise EnumerationLimitError(
            f"interval compositions supported for 1 <= k <= {MAX_INTERVAL_K}, got {k}"
        )
    for inner in itertools.chain.from_iterable(
        itertools.combinations(range(1, k), r) for r in range(k)
    ):
        yield IntervalComposition((0,) + inner + (k,))


def noncrossing_partitions(n: int) -> Iterator[NoncrossingPartition]:
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
                block = (first,) + chosen
                gaps = []
                bounds = list(chosen) + [None]
                lo = first
                for hi in bounds:
                    gap = tuple(
                        x for x in rest if x > lo and (hi is None or x < hi)
                    )
                    gaps.append(gap)
                    lo = hi if hi is not None else lo
                for sub in itertools.product(*(rec(g) for g in gaps)):
                    out = [block]
                    for part in sub:
                        out.extend(part)
                    yield tuple(out)

    for blocks in rec(tuple(range(1, n + 1))):
        ordered = tuple(sorted((tuple(sorted(b)) for b in blocks), key=min))
        yield NoncrossingPartition(ordered)


@functools.lru_cache(maxsize=None)
def noncrossing_blocks(n: int) -> tuple:
    """Block tuples of ``noncrossing_partitions(n)``, in its order.

    Enumerated and validated once per n; the moment and cumulant sums
    read these, so their float sums keep the generator's order.
    """
    return tuple(partition.blocks for partition in noncrossing_partitions(n))


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
