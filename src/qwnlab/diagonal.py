"""Diagonal (point-picture) model of the quadratic bosonic space.

Over a commutative base algebra the grade-k scalar product is an integral
against a measure supported on tuples of points: each ordered partition of
the slot positions pushes a product measure onto the set of tuples that are
constant on its blocks.  Grade-k vectors become functions of k points and
the three operators act by explicit pointwise formulas: creation inserts
its symbol at every position, annihilation integrates out the last variable
and doubles arguments, the number operator multiplies by a sum of symbol
values.

Everything here is built from literal loops over point tuples, on purpose.
The tensor-coordinate route in :mod:`qwnlab.bosonic` assembles the same
objects with einsum contractions, and the two implementations share no code
beyond the base algebra, so their agreement is a meaningful cross-check
rather than a tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .bosonic import ANNIHILATION, CREATION, NUMBER, BosonicSpace
from .combinatorics import ordered_partitions
from .graded import check_grade
from .linalg import scaled_gap
from .report import residual_record

_MAX_TUPLES = 10**6


class DiagonalRepresentation:
    """Measure-on-tuples model over a weighted finite point set."""

    def __init__(self, algebra, max_grade, gamma0=1.0):
        if algebra.kind != "functions":
            raise ValueError("the diagonal model needs a function algebra")
        if max_grade < 1:
            raise ValueError("max_grade must be at least 1")
        if gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        self.algebra = algebra
        self.max_grade = int(max_grade)
        self.gamma0 = float(gamma0)
        self._measures = {}
        # the cross-checks' tensor-coordinate space: one Gram cache for all
        self._tensor = BosonicSpace(algebra, self.max_grade, self.gamma0)

    def _check_grade(self, k):
        check_grade(k, self.max_grade)
        if self.algebra.dim**k > _MAX_TUPLES:
            raise ValueError("tuple space too large at grade %d" % k)

    def measure(self, k):
        """Mass function on k-tuples of points, as a (dim,)*k array."""
        self._check_grade(k)
        if k in self._measures:
            return self._measures[k]
        d = self.algebra.dim
        w = self.algebra.weights
        if k == 0:
            out = np.ones((), dtype=float)
            self._measures[k] = out
            return out
        out = np.zeros((d,) * k, dtype=float)
        base = 2.0**k / math.factorial(k)
        for blocks in ordered_partitions(k):
            m = len(blocks)
            coeff = base * self.gamma0**m
            for block in blocks:
                coeff /= len(block)
            for values in itertools.product(range(d), repeat=m):
                mass = coeff
                x = [0] * k
                for block, y in zip(blocks, values):
                    mass *= w[y]
                    for pos in block:
                        x[pos - 1] = y
                out[tuple(x)] += mass
        self._measures[k] = out
        return out

    def inner_product(self, f, g):
        """Scalar product of two grade-k point functions (conjugate-linear
        in the first argument)."""
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        if f.shape != g.shape:
            raise ValueError("grade mismatch between the two functions")
        k = f.ndim
        mass = self.measure(k)
        total = 0.0 + 0.0j
        for x in itertools.product(range(self.algebra.dim), repeat=k):
            total += np.conj(f[x]) * g[x] * mass[x]
        return total

    def apply_creation(self, symbol, f):
        """Insert the symbol at every position of a k-point function."""
        f = np.asarray(f, dtype=complex)
        k = f.ndim
        self._check_grade(k + 1)
        d = self.algebra.dim
        out = np.zeros((d,) * (k + 1), dtype=complex)
        for x in itertools.product(range(d), repeat=k + 1):
            total = 0.0 + 0.0j
            for i in range(k + 1):
                rest = x[:i] + x[i + 1 :]
                total += symbol[x[i]] * f[rest]
            out[x] = total
        return out

    def apply_annihilation(self, symbol, f):
        """Integrate out the last variable and double each argument in turn."""
        f = np.asarray(f, dtype=complex)
        if f.ndim == 0:
            raise ValueError("annihilation is undefined on the vacuum grade")
        n = f.ndim - 1
        d = self.algebra.dim
        w = self.algebra.weights
        conj_symbol = np.conj(np.asarray(symbol, dtype=complex))
        out = np.zeros((d,) * n, dtype=complex)
        for x in itertools.product(range(d), repeat=n):
            value = 0.0 + 0.0j
            for y in range(d):
                value += 2.0 * self.gamma0 * conj_symbol[y] * f[x + (y,)] * w[y]
            for i in range(n):
                doubled = x[: i + 1] + (x[i],) + x[i + 1 :]
                value += 2.0 * conj_symbol[x[i]] * f[doubled]
            out[x] = value
        return out

    def apply_number(self, symbol, f):
        """Multiply by the sum of symbol values over the tuple."""
        f = np.asarray(f, dtype=complex)
        d = self.algebra.dim
        out = np.zeros_like(f)
        for x in itertools.product(range(d), repeat=f.ndim):
            out[x] = f[x] * sum(symbol[xi] for xi in x)
        return out

    # -- cross-checks against the tensor-coordinate route -------------------

    def check_measure_is_gram_diagonal(self, tol=1e-12):
        """The tensor Gram matrix must be the diagonal of the tuple measure."""
        worst = 0.0
        for k in range(self.max_grade + 1):
            gram = self._tensor.gram(k)
            expected = np.diag(self.measure(k).reshape(-1).astype(complex))
            worst = max(worst, scaled_gap(gram, expected))
        return [
            residual_record(
                "diagonal.gram_is_measure_diagonal",
                "diagonal representation of the scalar product",
                worst,
                tol,
                notes="grades 0..%d, scaled max entry" % self.max_grade,
            )
        ]

    def check_inner_products(self, rng, trials=20, tol=1e-10):
        """Literal tuple sums against the einsum Gram, on arbitrary vectors."""
        d = self.algebra.dim
        worst = 0.0
        for _ in range(trials):
            for k in range(1, self.max_grade + 1):
                shape = (d,) * k
                f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                lit = self.inner_product(f, g)
                ein = np.vdot(f.reshape(-1), self._tensor.gram(k) @ g.reshape(-1))
                worst = max(worst, abs(lit - ein) / max(abs(ein), 1.0))
        return [
            residual_record(
                "diagonal.inner_products_match",
                "diagonal representation of the scalar product",
                worst,
                tol,
                notes="%d trials per grade" % trials,
            )
        ]

    def check_operators(self, rng, trials=20, tol=1e-10):
        """Pointwise operator formulas against the tensor-coordinate ones.

        Creation and the number operator agree on every vector.  The two
        annihilation formulas pair the symbol against different slots, so
        they only coincide on symmetric vectors; the check symmetrizes the
        input for that case.
        """
        space = self._tensor
        d = self.algebra.dim
        worst_create = 0.0
        worst_number = 0.0
        worst_annihilate = 0.0

        def image(kind, vec, k):
            """The operator of ``kind`` at ``symbol`` applied to one vector."""
            column = vec.reshape(-1, 1)
            return space.word_matrix([(kind, symbol)], k, column).reshape(-1)

        for _ in range(trials):
            symbol = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            for k in range(0, self.max_grade):
                shape = (d,) * k
                f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                lit = self.apply_creation(symbol, f)
                ein = image(CREATION, f, k)
                worst_create = max(worst_create, scaled_gap(lit.reshape(-1), ein))
            for k in range(1, self.max_grade + 1):
                shape = (d,) * k
                f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                lit = self.apply_number(symbol, f)
                ein = image(NUMBER, f, k)
                worst_number = max(worst_number, scaled_gap(lit.reshape(-1), ein))
                sym_flat = space.symmetrizer(k) @ f.reshape(-1)
                lit = self.apply_annihilation(symbol, sym_flat.reshape(shape))
                ein = image(ANNIHILATION, sym_flat, k)
                worst_annihilate = max(
                    worst_annihilate, scaled_gap(lit.reshape(-1), ein)
                )
        return [
            residual_record(
                "diagonal.creation_matches",
                "point-picture operator formulas",
                worst_create,
                tol,
                notes="all vectors, %d trials" % trials,
            ),
            residual_record(
                "diagonal.number_matches",
                "point-picture operator formulas",
                worst_number,
                tol,
                notes="all vectors, %d trials" % trials,
            ),
            residual_record(
                "diagonal.annihilation_matches_symmetric",
                "point-picture operator formulas",
                worst_annihilate,
                tol,
                notes="symmetrized inputs, %d trials" % trials,
            ),
        ]
