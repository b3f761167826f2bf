"""Truncated Fock space carrying the quadratic bosonic white-noise algebra.

The space is a direct sum of tensor powers of a finite *-algebra, cut off at
a maximal grade.  The scalar product on grade k is not the plain tensor-power
product: it is a sum over partitions of the k slot positions into lists,
where every list contributes the state applied to an alternating product of
starred and unstarred slot entries, with weight gamma0 / list_length.  Three
assemblies of the Gram matrix are implemented:

* "ordered" sums those lists: it runs over set partitions, and an
  n-block reads L_n, the sum of the block's n! lists (203 einsums at
  grade 6 for 4051 lists).  It is the definition and the oracle.
* "setpartition" sums plain set partitions with weight
  gamma0 * (block_size - 1)! per block.  It is only valid over a
  commutative base algebra, where all orientations of a block agree.
* "recursive", the default, uses that both base algebras carry a tracial
  state.  The n rotations of a list then give the same term, so the sum
  over lists collapses to a sum over permutations with weight gamma0 per
  cycle.  Deleting the last slot from its cycle either removes a fixed
  point or merges it into the slot before it, which gives a k-term
  insertion recursion for the underlying multilinear functional.  Any
  set of columns or rows of G_k then follows from it by k batched
  contractions against the pair tensor, at n D**k memory for n of them,
  and ``gram_matrix`` takes all D**k columns, an O(D**(2k+1)) assembly.

The checks read G_k only through ``_metric``, its restriction to the
symmetric subspace in the orthonormal orbit basis, an orbits-by-orbits
matrix built from the columns and rows at the orbit representatives; the
hermiticity record compares those two.  No check forms a whole Gram above
the grades the route comparisons take.

Creation inserts its symbol into every gap of a tensor word, annihilation
pairs its symbol against the first slot (a state term plus merge terms into
each later slot), and the number operator multiplies every slot from the
left.  All three act on blocks of flat grade coordinates, so their words
are dense matrices on the columns a caller needs.

The checks run on the symmetric subspace, and there each basis operator
maps orbit indicators to combinations of orbit indicators.
``_orbit_operators`` runs one kernel per basis element, kind and grade on
the indicators and keeps the orbits-by-orbits matrix of coefficients, read
at the orbit representatives: 56 by 56 at most over M_2 at grade 5, where
a flat grade has 1024 coordinates.  The gap of those images from the
symmetric subspace, recorded on the way, is the record that licenses the
reading.  Every commutator relation, the mixed one that ``mixed_terms``
also hands the q-deformed coefficient match included, reads one stack of
products of these matrices, ``_brackets``, at all basis pairs of the
algebra at once.  The shared adjointness and norm checks read the
matrices weighed by a symbol's coefficients, rescaled to the orthonormal
orbit basis (``_leading``), against the metrics.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .algebra import pair_product_state_tensors, random_element
from .combinatorics import set_partitions
from .graded import _SHIFTS, ANNIHILATION, CREATION, NUMBER, GradedFockSpace
from .linalg import hermitize, scaled_gap
from .report import reported_record, residual_record

_GRAM_METHODS = ("recursive", "ordered", "setpartition")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Exact commutator cancellation needs gamma0 and the state weights to carry
# few enough mantissa bits that double products stay exact; see _is_dyadic.
_DYADIC_BITS = 8


def _is_dyadic(value, bits=_DYADIC_BITS):
    scaled = float(value) * (1 << bits)
    return scaled == round(scaled)


def _list_sums(states):
    """L_n = sum over sigma of M_n with sigma permuting the i axes and the
    j axes alike, for the pair-product state tensor M_n: the n! lists of
    an n-block summed into one tensor."""
    n = states.ndim // 2
    total = states.copy()
    orders = itertools.permutations(range(n))
    next(orders)  # the identity, already in the copy
    for order in orders:
        total += states.transpose(order + tuple(n + p for p in order))
    return total


class BosonicSpace(GradedFockSpace):
    """Graded coordinate model of the quadratic bosonic algebra.

    Parameters
    ----------
    algebra:
        Finite *-algebra with a state (FunctionAlgebra or MatrixAlgebra).
    max_grade:
        Highest retained tensor power.
    gamma0:
        Renormalization constant; the reciprocal of the cell mass in the
        discrete picture.  Must be positive.
    """

    _prefix = "bosonic"
    _adjoint_claim = "adjointness theorem for the quadratic operators"
    _adjoint_notes = "%d basis elements, symmetric compression"

    # The benchmark's span tracer (perfbench/tracing.py) wraps methods it
    # finds in the class __dict__, so the shared ones are bound here.
    operator_matrix = GradedFockSpace.operator_matrix
    apply = GradedFockSpace.apply
    vacuum_expectation = GradedFockSpace.vacuum_expectation
    check_adjointness = GradedFockSpace.check_adjointness
    symmetrizer = GradedFockSpace.symmetrizer
    symmetric_basis = GradedFockSpace.symmetric_basis

    def __init__(self, algebra, max_grade, gamma0=1.0):
        super().__init__(algebra, max_grade)
        if gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        self.gamma0 = float(gamma0)
        basis = algebra.basis()
        # structure constants e_a e_b = sum_c mult[a, b, c] e_c, the state
        # on the basis, pair[a, b, c], the coordinates of star(e_a) e_b,
        # and pairings[a, b], its state
        self._mult = algebra.coords(algebra.mul(basis[:, None], basis[None, :]))
        self._tau = algebra.state(basis)
        pairs = algebra.mul(algebra.star(basis)[:, None], basis[None, :])
        self._pair = algebra.coords(pairs)
        self._pairings = algebra.state(pairs)
        self._functionals = [np.ones((), dtype=complex)]
        self._gram = {}
        self._hermiticity = {}
        self._metrics = {}
        self._orbit_ops = {}
        self._symmetry_gaps = {}

    # -- Gram matrices ----------------------------------------------------

    def gram_matrix(self, k, method=None):
        """Raw grade-k Gram matrix, assembled by the requested route.

        method is "recursive" (the default), "ordered" or "setpartition";
        the module docstring compares them.  With a_p = star(e_ip) e_jp the
        recursive route evaluates

            G_k[i, j] = (2**k / k!) * Phi_k(a_1, ..., a_k),
            Phi_k(a_1..a_k) = gamma0 * Phi_(k-1)(a_1..a_(k-1)) * state(a_k)
                + sum_(j<k) Phi_(k-1)(a_1, .., a_j a_k, .., a_(k-1)),

        which is exact because the state is tracial.  The ordered route is
        the partition sum of the definition and the set-partition route
        needs a commutative algebra.  Each call builds a new array, kept
        nowhere and not hermitized.
        """
        self._check_grade(k)
        if method is None:
            method = "recursive"
        if method not in _GRAM_METHODS:
            raise ValueError("unknown Gram assembly method %r" % (method,))
        if method == "setpartition" and not self.algebra.commutative:
            raise ValueError(
                "the set-partition assembly assumes a commutative algebra"
            )
        if method == "recursive":
            return self._gram_lines(k, np.arange(self.algebra.dim**k)).T
        return self._assemble_gram(k, method)

    def _functional(self, k):
        """Phi_k of gram_matrix on basis elements, as a (D,)*k tensor."""
        while len(self._functionals) <= k:
            prev = self._functionals[-1]
            n = prev.ndim
            out = np.multiply.outer(prev, self.gamma0 * self._tau)
            for j in range(n):
                # slot j absorbs the new slot: (.., e_a e_b, ..) with a at j
                merged = np.tensordot(prev, self._mult, axes=([j], [2]))
                out = out + np.moveaxis(merged, n - 1, j)
            self._functionals.append(out)
        return self._functionals[k]

    def _gram_lines(self, k, index, rows=False):
        """Lines of the raw recursive grade-k Gram at the flat indices
        ``index``, one per row of the result: the columns G[:, index], or
        the rows G[index, :] when ``rows`` is set.

        G[i, j] contracts Phi_k against pair[i_p, j_p, c_p] in every slot
        p.  A line fixes one side's tuple, so each slot's factor is a D by
        D slice of the pair tensor: its second axis sliced for a column,
        its first for a row.  The k batched contractions replace the slots
        c of every line by the free index one at a time, each at its own
        position, so a block of n lines holds n D**k entries, never
        D**(2k).
        """
        dim = self.algebra.dim
        index = np.asarray(index)
        # digits[p] is slot p of each index, the leading slot first
        digits = index // dim ** np.arange(k - 1, -1, -1)[:, None] % dim
        pair = self._pair if rows else self._pair.transpose(1, 0, 2)
        block = (2.0**k / math.factorial(k)) * self._functional(k).reshape(1, -1)
        for p, slot in enumerate(digits):
            split = block.reshape(len(block), dim**p, dim, -1)
            block = pair[slot][:, None] @ split
        return block.reshape(len(block), -1)

    def _metric(self, k):
        """S_k^H hermitize(G_k) S_k, with S_k the orthonormal orbit basis
        (cached), from the Gram at the orbit representatives R, the sorted
        index tuples.

        G_k commutes with simultaneous slot permutations, so summing it over
        the pairs of an orbit I and an orbit J gives s_J times the sum over
        I of the column at the representative of J, s_J the size of J.  With
        H_R = (G[:, R] + G[R, :]^H) / 2 the columns of hermitize(G_k) at R
        and sums[J, I] the sum of column J of H_R over the orbit I, the
        metric is sums^T scaled by sqrt(s_J) / sqrt(s_I), an orbits by
        orbits matrix.  The hermiticity gap scaled_gap(G[:, R], G[R, :]^H)
        of the two sides is recorded on the way: every entry orbit of G_k
        meets a column at R, so in exact arithmetic it is the gap of the
        whole Gram.
        """
        if k not in self._metrics:
            indicator, sizes, reps, _ = self._orbits(k)
            columns = self._gram_lines(k, reps)
            adjoint = np.conj(self._gram_lines(k, reps, rows=True))
            self._hermiticity[k] = scaled_gap(columns, adjoint)
            herm = columns + adjoint
            herm *= 0.5
            # each line block is dropped once read: at most three are alive
            del columns, adjoint
            # orbit sums of each line of H_R, real and imaginary parts apart,
            # so that the real indicator is not cast to a complex copy
            sums = herm.real @ indicator + 1j * (herm.imag @ indicator)
            del herm
            root = np.sqrt(sizes)
            self._metrics[k] = hermitize(sums.T * (root / root[:, None]))
        return self._metrics[k]

    def _hermiticity_gap(self, k):
        """The hermiticity gap of the raw grade-k Gram that ``_metric``
        records, computed through it when missing."""
        if k not in self._hermiticity:
            self._metric(k)
        return self._hermiticity[k]

    def _assemble_gram(self, k, method):
        """Grade-k Gram as a sum over set partitions of the slots, one
        einsum per partition (203 at grade 6).  An n-block reads L_n at
        weight gamma0 / n on the ordered route and M_n at gamma0 (n - 1)!
        on the set-partition route; no array above D**(2k) entries forms.
        """
        dim = self.algebra.dim
        if k == 0:
            return np.ones((1, 1), dtype=complex)
        size = dim**k
        out_sub = _LETTERS[: 2 * k]
        total = np.zeros((size, size), dtype=complex)
        base = 2.0**k / math.factorial(k)
        tensors = pair_product_state_tensors(self.algebra, k)
        if method == "ordered":
            tensors = [_list_sums(states) for states in tensors]
        for blocks in set_partitions(k):
            coeff = base
            operands = []
            subs = []
            for block in blocks:
                n = len(block)
                if method == "ordered":
                    coeff *= self.gamma0 / n
                else:
                    coeff *= self.gamma0 * math.factorial(n - 1)
                operands.append(tensors[n - 1])
                subs.append(
                    "".join(_LETTERS[p - 1] for p in block)
                    + "".join(_LETTERS[k + p - 1] for p in block)
                )
            subscripts = ",".join(subs) + "->" + out_sub
            term = np.einsum(subscripts, *operands, optimize=True)
            total += coeff * term.reshape(size, size)
        return total

    def gram(self, k):
        """Hermitized grade-k Gram matrix (cached)."""
        if k not in self._gram:
            self._gram[k] = hermitize(self.gram_matrix(k))
        return self._gram[k]

    # -- operators ---------------------------------------------------------

    def _symbol_tensors(self, kind, symbol):
        alg = self.algebra
        if kind == CREATION:
            return (alg.coords(symbol),)
        if kind == NUMBER:
            return (alg.left_mult_matrix(symbol),)
        if kind == ANNIHILATION:
            # The weights of the kernel's terms are folded in: 2 gamma0 of
            # the state term and 2 of each merge term.
            starred = alg.star(symbol)
            basis = alg.basis()
            state = 2.0 * self.gamma0 * alg.state(alg.mul(starred, basis))
            # merge[b, a, c] are the coordinates of e_b symbol* e_a, and
            # pairs[c, (a, b)] pairs the first slot a with a later slot b.
            prod = alg.mul(alg.mul(basis[:, None], starred), basis[None, :])
            merge = alg.coords(prod)
            return state, 2.0 * merge.transpose(2, 1, 0).reshape(alg.dim, -1)
        raise ValueError("unknown operator kind %r" % (kind,))

    def _stacked_kernel(self, kind, data, block, k):
        # Each slot's term is added through a view of the output that
        # splits the slots before it from the slot and those after.
        dim = self.algebra.dim
        lead, width = len(block), block.shape[2]
        if kind == CREATION:
            # The symbol times the block, with the new slot first, moved
            # into each of the k + 1 gaps.
            (coords,) = data
            inserted = coords[:, :, None] * block.reshape(lead, 1, -1)
            if k == 0:
                return inserted.reshape(lead, -1, width)
            first = inserted.reshape(lead, dim, dim, -1)
            out = (first + first.transpose(0, 2, 1, 3)).reshape(lead, -1, width)
            for target in range(2, k + 1):
                view = out.reshape(lead, dim**target, dim, -1)
                moved = inserted.reshape(lead, dim, dim**target, -1).transpose(0, 2, 1, 3)
                np.add(view, moved, out=view)
            return out
        if kind == NUMBER:
            # One buffer takes the product of every slot after the first.
            (left,) = data
            out = (left @ block.reshape(lead, dim, -1)).reshape(lead, -1, width)
            term = np.empty_like(out)
            for target in range(1, k):
                view = out.reshape(lead, dim**target, dim, -1)
                product = term.reshape(view.shape)
                np.matmul(left[:, None], block.reshape(view.shape), out=product)
                np.add(view, product, out=view)
            return out
        # State term: pair the symbol against the first slot and drop it.
        # Merge terms: slot i absorbs (slot_i symbol* slot_1) for i >= 2.
        state, pairs = data
        out = (state[:, None, :] @ block.reshape(lead, dim, -1)).reshape(lead, -1, width)
        for i in range(2, k + 1):
            before = dim ** (i - 2)
            slots = block.reshape(lead, dim, before, dim, -1).transpose(0, 2, 1, 3, 4)
            merged = pairs[:, None] @ slots.reshape(lead, before, dim * dim, -1)
            view = out.reshape(lead, before, dim, -1)
            np.add(view, merged, out=view)
        return out

    def _orbit_operators(self, kind, k):
        """The basis operators of ``kind`` leaving grade k in the indicator
        coordinates of the symmetric subspaces (cached): the stack of one
        matrix C_b per basis element, with B_b 1_J = sum_K C_b[K, J] 1_K
        for the orbit indicators 1_J of grade k and 1_K of the grade
        reached.

        One ``_kernel`` run per basis element on the indicators of grade k
        gives the images B_b 1_J, and C_b is their rows at the orbit
        representatives.  That reading is exact when the images are
        symmetric, and it divides by no orbit size and takes no square
        root, so operator products that cancel exactly still do.  How far
        the images are from the symmetric subspace is recorded on the way,
        for ``check_symmetric_invariance``.
        """
        key = kind, k
        if key not in self._orbit_ops:
            indicator, sizes = self._orbits(k)[:2]
            reached, reached_sizes, reps, orbit = self._orbits(k + _SHIFTS[kind])
            # the kernels multiply complex symbol tensors into the block,
            # faster on a complex one
            block = indicator.astype(complex)
            mats, worst = [], 0.0
            for letter in self._basis_letters(kind):
                image = np.ascontiguousarray(self._kernel(kind, letter, block, k))
                mats.append(image[reps])
                # B_b S_k against its projection, the orbit means; the real
                # indicator sums the interleaved real and imaginary parts
                image /= np.sqrt(sizes)
                sums = (reached.T @ image.view(float)).view(complex)
                means = sums / reached_sizes[:, None]
                gap = np.linalg.norm(image - means[orbit])
                worst = max(worst, gap / max(np.linalg.norm(image), 1.0))
            self._orbit_ops[key] = np.array(mats)
            self._symmetry_gaps[key] = worst
        return self._orbit_ops[key]

    def _leading(self, kind, coeffs, k):
        """S_out^H B S_in for the operator whose basis operators ``coeffs``
        weighs, with S the normalized orbit indicators: the
        ``_orbit_operators`` summed with these weights and rescaled,
        diag(sqrt(sizes_out)) C diag(1/sqrt(sizes_in)), so no kernel runs
        on flat coordinates.  It acts on the whole symmetric grade, so its
        identity tail has size 1."""
        sizes = self._orbits(k)[1]
        reached = self._orbits(k + _SHIFTS[kind])[1]
        scale = np.sqrt(reached)[:, None] / np.sqrt(sizes)
        return np.tensordot(coeffs, self._orbit_operators(kind, k), axes=1) * scale

    def _brackets(self, outer, inner, k):
        """[X_a, Y_b] = X_a Y_b - Y_b X_a leaving grade k, for the basis
        operators X of ``outer`` and Y of ``inner``: the stack indexed
        [a, b] of products of ``_orbit_operators``, in the indicator
        coordinates.  At k = 0 an X other than creation annihilates the
        vacuum, and Y_b X_a is left out."""
        ops = self._orbit_operators
        out = ops(outer, k + _SHIFTS[inner])[:, None] @ ops(inner, k)
        if k or outer == CREATION:
            out -= ops(inner, k + _SHIFTS[outer]) @ ops(outer, k)[:, None]
        return out

    def mixed_terms(self, k):
        """The mixed commutator [b(e_a), b*(e_b)] leaving grade k at every
        basis pair and its two predicted terms, state(e_a* e_b) times the
        identity and n(e_a* e_b), each a stack indexed [a, b] in the
        indicator coordinates of grade k.  The number operator vanishes on
        the vacuum, so at k = 0 its term is zero."""
        bracket = self._brackets(ANNIHILATION, CREATION, k)
        state = self._pairings[:, :, None, None] * np.eye(bracket.shape[-1])
        if k:
            number = np.tensordot(self._pair, self._orbit_operators(NUMBER, k), axes=1)
        else:
            number = np.zeros_like(bracket)
        return bracket, state, number

    # -- verification checks ----------------------------------------------

    def check_gram_closed_forms(self, rng, trials=25, tol=1e-10):
        """Level 1 and level 2 scalar products against their closed forms,
        every trial's quadratic form in one contraction per level."""
        alg = self.algebra
        g0 = self.gamma0
        pairs = [(random_element(alg, rng), random_element(alg, rng)) for _ in range(trials)]
        phis, psis = (np.array(stack) for stack in zip(*pairs))
        prod = alg.mul(alg.star(phis), psis)
        c, d = alg.coords(phis), alg.coords(psis)
        cc = (c[:, :, None] * c[:, None, :]).reshape(trials, -1)
        dd = (d[:, :, None] * d[:, None, :]).reshape(trials, -1)
        state = alg.state(prod)
        closed = [
            2.0 * g0 * state,
            2.0 * g0**2 * state**2 + 2.0 * g0 * alg.state(alg.mul(prod, prod)),
        ]
        worst = []
        for level, (left, right, expected) in enumerate(zip((c, cc), (d, dd), closed), 1):
            measured = np.einsum("ti,ti->t", left.conj(), right @ self.gram(level).T)
            gap = np.abs(measured - expected) / np.maximum(np.abs(expected), 1.0)
            worst.append(float(np.max(gap, initial=0.0)))
        return [
            residual_record(
                "bosonic.gram.level1_closed_form",
                "scalar product definition, single-slot case",
                worst[0],
                tol,
                notes="relative error over %d trials" % trials,
            ),
            residual_record(
                "bosonic.gram.level2_closed_form",
                "scalar product definition, two-slot case",
                worst[1],
                tol,
                notes="relative error over %d trials" % trials,
            ),
        ]

    def _route_gap(self, method, kmax):
        """Worst relative Frobenius gap of a Gram route from the ordered
        one, grades 1..kmax."""
        worst = 0.0
        for k in range(1, kmax + 1):
            a = self.gram_matrix(k, method="ordered")
            b = self.gram_matrix(k, method=method)
            scale = max(np.linalg.norm(a), 1.0)
            worst = max(worst, np.linalg.norm(a - b) / scale)
        return worst

    def check_gram_paths(self, kmax=None, tol=1e-10):
        """Ordered-partition versus set-partition Gram assembly."""
        if not self.algebra.commutative:
            raise ValueError("the dual-route comparison needs a commutative base")
        if kmax is None:
            kmax = self.max_grade
        return [
            residual_record(
                "bosonic.gram.assembly_routes_agree",
                "scalar product partition expansion",
                self._route_gap("setpartition", kmax),
                tol,
                notes="grades 1..%d" % kmax,
            )
        ]

    def check_gram_recursion(self, kmax=None, tol=1e-10):
        """Recursive (default) versus ordered-partition Gram assembly."""
        if kmax is None:
            kmax = self.max_grade
        return [
            residual_record(
                "bosonic.gram.recursion_matches_ordered",
                "scalar product partition expansion",
                self._route_gap("recursive", kmax),
                tol,
                notes="grades 1..%d, tracial state" % kmax,
            )
        ]

    def check_commutators(self, tol_affine=1e-10):
        """Commutation relations among the three operator families, on the
        symmetric subspace that the representation lives on.

        Every relation is linear in each of its two symbols (annihilation
        conjugate-linearly), so the basis pairs prove it for all symbols.
        Each one reads the stack of its commutators at the basis pairs from
        ``_brackets``, in the indicator coordinates of the orbits, with
        each column divided by its orbit size.  Basis symbols are dyadic,
        so the same-kind commutators cancel exactly when gamma0 and the
        state weights are dyadic; the mixed commutator is an affine
        identity against the terms of ``mixed_terms``, checked to
        tol_affine.

        The number-creation coefficient is not asserted: it is fitted by
        least squares, m = [n(e_a), b*(e_b)] against t = b*(e_a e_b) at
        every basis pair and grade, and reported next to the tabulated 2;
        it reads 1, and B = sqrt2 b, N = 2n obey the table at 2 gamma0,
        which ``rewrite.check_measured_table_map`` asserts.  For any
        symbols m - kappa t sums the pairs' misfits, so the basis bounds
        it.  The fit is two sums over the stacks in the orthonormal orbit
        coordinates, where they equal those over the flat columns:
        kappa = <t, m> / <t, t> and the misfit |m - kappa t| / |t|.
        """
        alg = self.algebra
        top = self.max_grade
        exact_tol = 0.0
        if not (
            _is_dyadic(self.gamma0)
            and getattr(alg, "weights", None) is not None
            and all(_is_dyadic(w) for w in np.atleast_1d(alg.weights))
        ):
            exact_tol = 1e-13

        cases = [(CREATION, k) for k in range(top - 1)]
        cases += [(ANNIHILATION, k) for k in range(2, top + 1)]
        if alg.commutative:
            cases += [(NUMBER, k) for k in range(1, top + 1)]
        worst = dict.fromkeys(_SHIFTS, 0.0)
        for kind, k in cases:
            gap = np.abs(self._brackets(kind, kind, k) / self._orbits(k)[1]).max()
            worst[kind] = max(worst[kind], gap)
        # Mixed commutator: the scalar 2 gamma0 state(e_a* e_b) plus
        # 4 n(e_a* e_b), each pair scaled by its largest predicted entry.
        worst_mixed = 0.0
        for k in range(top):
            bracket, state, number = self.mixed_terms(k)
            sizes = self._orbits(k)[1]
            want = 2.0 * self.gamma0 * state + 4.0 * number
            gaps = np.abs((bracket - want) / sizes).max(axis=(2, 3))
            scale = np.maximum(np.abs(want / sizes).max(axis=(2, 3)), 1.0)
            worst_mixed = max(worst_mixed, (gaps / scale).max())
        # Number against creation, in the orthonormal orbit coordinates.
        measured, templates = [], []
        for k in range(top):
            root = np.sqrt(self._orbits(k + 1)[1])[:, None]
            root = root / np.sqrt(self._orbits(k)[1])
            template = np.tensordot(self._mult, self._orbit_operators(CREATION, k), 1)
            measured.append((self._brackets(NUMBER, CREATION, k) * root).ravel())
            templates.append((template * root).ravel())
        m, t = np.concatenate(measured), np.concatenate(templates)
        norm = np.vdot(t, t).real
        kappa = np.vdot(t, m) / norm
        fit = np.linalg.norm(m - kappa * t) / math.sqrt(norm)
        records = [
            residual_record(
                "bosonic.commutator.creation_creation",
                "quadratic commutation relations",
                worst[CREATION],
                exact_tol,
                notes="symmetric columns, max entry, %d basis pairs" % alg.dim**2,
            ),
            residual_record(
                "bosonic.commutator.annihilation_annihilation",
                "quadratic commutation relations",
                worst[ANNIHILATION],
                exact_tol,
                notes="symmetric columns, max entry, %d basis pairs" % alg.dim**2,
            ),
            residual_record(
                "bosonic.commutator.mixed_affine",
                "quadratic commutation relations",
                worst_mixed,
                tol_affine,
                notes="scaled max entry after column symmetrization, %d basis pairs"
                % alg.dim**2,
            )
            if alg.commutative
            else reported_record(
                "bosonic.commutator.mixed_affine_gap",
                "quadratic commutation relations",
                measured=worst_mixed,
                notes=(
                    "the affine identity in (identity, number) is derived"
                    " over a commutative base; over a noncommutative one the"
                    " gap is measured and published, not asserted"
                ),
            ),
            reported_record(
                "bosonic.commutator.number_creation_coefficient",
                "quadratic commutation relations",
                measured=kappa.real,
                expected=2.0,
                residual=abs(kappa.imag),
                notes=(
                    "least-squares coefficient from the concrete operator"
                    " matrices; the abstract relation table posits 2, and"
                    " B = sqrt2 b, N = 2n obey it at 2 gamma0, as"
                    " classical.measured_table_map asserts"
                ),
            ),
            residual_record(
                "bosonic.commutator.number_creation_fit",
                "quadratic commutation relations",
                fit,
                tol_affine,
                notes="relative misfit of the single-coefficient model",
            ),
        ]
        if alg.commutative:
            records.insert(
                2,
                residual_record(
                    "bosonic.commutator.number_number",
                    "quadratic commutation relations",
                    worst[NUMBER],
                    exact_tol,
                    notes="commutative base algebra, symmetric columns, max entry,"
                    " %d basis pairs"
                    % alg.dim**2,
                ),
            )
        return records

    def check_symmetric_invariance(self, tol=1e-12):
        """The three operator families map symmetric vectors to symmetric
        vectors, which the symmetric compression of every other check
        relies on, and which licenses reading the operators at the orbit
        representatives (``_orbit_operators``).

        Over each kind, grade and basis element, the image Y = B_b S_k of
        the symmetric subspace is compared with its projection onto the
        symmetric subspace of the grade it reaches, the orbit means; the
        residual is the worst Frobenius distance, scaled by the norm of Y
        once that exceeds 1.  ``_orbit_operators`` records it from the
        images it reads, so no kernel runs here.
        """
        top = self.max_grade
        cases = [(CREATION, k) for k in range(top)]
        for kind in (ANNIHILATION, NUMBER):
            cases += [(kind, k) for k in range(1, top + 1)]
        for kind, k in cases:
            self._orbit_operators(kind, k)
        worst = max(self._symmetry_gaps[case] for case in cases)
        return [
            residual_record(
                "bosonic.operators.preserve_symmetric",
                "the quadratic operators act on the symmetric Fock space",
                worst,
                tol,
                notes="scaled Frobenius distance from the symmetric subspace,"
                " basis operators on grades 0..%d" % top,
            )
        ]

    def check_norm_estimates(self, rng, trials=50, slack=1e-9):
        """Operator norms on symmetric parts against the stated bounds."""
        alg = self.algebra
        g0 = self.gamma0
        phis = np.array([random_element(alg, rng) for _ in range(trials)])
        l2, linf = alg.norm_l2(phis), alg.norm_linf(phis)
        cases = []
        for k in range(1, self.max_grade + 1):
            bound = math.sqrt(2.0 * k) * (math.sqrt(g0) * l2 + (k - 1) * linf)
            cases += [
                ("creation", CREATION, k - 1, bound),
                ("annihilation", ANNIHILATION, k, bound),
                ("number", NUMBER, k, k * linf),
            ]
        return self._norm_records(
            "bosonic.norm", "operator norm estimates", cases, phis, slack
        )

    def check_positivity(self, tol=1e-10):
        """Gram positivity on symmetric parts, plus hermiticity defects."""
        worst_eig, note = self._positivity_sweep(self.max_grade)
        worst_herm = max(self._hermiticity_gap(k) for k in range(self.max_grade + 1))
        if self.algebra.commutative:
            positive = residual_record(
                "bosonic.gram.positive_symmetric",
                "positivity of the quadratic scalar product",
                max(0.0, -worst_eig),
                tol,
                notes=note,
            )
        else:
            positive = reported_record(
                "bosonic.gram.positive_symmetric",
                "positivity question for noncommutative base algebras",
                measured=worst_eig,
                notes=note + "; recorded without assertion",
            )
        return [
            positive,
            residual_record(
                "bosonic.gram.hermitian",
                "scalar product definition",
                worst_herm,
                1e-12,
                notes="max entry of G minus its adjoint, scaled",
            ),
        ]
