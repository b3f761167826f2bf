"""Truncated q-deformed Fock space over a finite-dimensional mode space.

Grade n carries the q-Gram P_q(n), the sum over all slot permutations
weighted by q to the inversion count.  Creation prepends a mode vector;
annihilation contracts against each slot with weight q**(slot - 1).  The
canonical relation (annihilation past creation minus q times the reverse
equals the mode pairing) holds as an exact block identity on every grade,
and iterating it twice gives a closed relation for squared operators.

Squared operators are the whole point here: annihilators and creators of
*pairs* of quanta in a common mode, summed over a block partition of the
modes with piecewise-constant coefficient functions, satisfy the same
affine commutation shape as the quadratic bosonic operators, with scalar
coefficient (1 + q) / l and number coefficient q (1 + q)**2.  At q = 1 and
unit block mass those are (2, 4), matching the quadratic commutator
coefficients at gamma0 = 1.  The match is one of structure constants, not
of full vacuum moments: the squared-mode world realizes the relation table
whose number/creation coefficient is 2, while the literal quadratic Fock
operators measure 1 there, and mixed words feel that difference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .algebra import FunctionAlgebra, random_element
from .bosonic import ANNIHILATION, CREATION, NUMBER, BosonicSpace
from .combinatorics import inversions
from .graded import GradeOverflowError, check_grade
from .linalg import (
    axis_permutation_matrix,
    hermitize,
    orthonormal_range,
    symmetrizer_matrix,
)
from .report import reported_record, residual_record

MAX_QGRAM_GRADE = 6


class QFockSpace:
    """Tensor-power space with the inversion-weighted permutation Gram."""

    def __init__(self, dim, q, max_grade):
        dim = int(dim)
        if dim < 1:
            raise ValueError("mode dimension must be >= 1")
        if not -1.0 < q <= 1.0:
            raise ValueError("q must lie in (-1, 1]")
        if not 1 <= max_grade:
            raise ValueError("max_grade must be at least 1")
        self.dim = dim
        self.q = float(q)
        self.max_grade = int(max_grade)
        self._grams = {}

    def _check_grade(self, n):
        check_grade(n, self.max_grade)

    def q_gram(self, n):
        """P_q(n) = sum over permutations of q**inversions times the slot
        permutation matrix; cached and hermitized."""
        self._check_grade(n)
        if n > MAX_QGRAM_GRADE:
            raise ValueError("permutation sum capped at grade %d" % MAX_QGRAM_GRADE)
        if n not in self._grams:
            self._grams[n] = hermitize(self._raw_gram(n))
        return self._grams[n]

    def create_matrix(self, phi, n):
        """Matrix of creation out of grade n (prepend the mode vector)."""
        self._check_grade(n)
        if n == self.max_grade:
            raise GradeOverflowError("creation out of the top grade")
        phi = np.asarray(phi, dtype=complex).reshape(self.dim, 1)
        return np.kron(phi, np.eye(self.dim**n, dtype=complex))

    def annihilate_matrix(self, phi, n):
        """Matrix of annihilation out of grade n (q-weighted contractions)."""
        self._check_grade(n)
        if n == 0:
            raise ValueError("annihilation is undefined on the vacuum grade")
        phi = np.asarray(phi, dtype=complex)
        size = self.dim**n
        arr = np.eye(size, dtype=complex).reshape((self.dim,) * n + (size,))
        out = 0.0
        for i in range(n):
            out = out + self.q**i * np.tensordot(np.conj(phi), arr, axes=(0, i))
        return np.asarray(out).reshape(-1, size)

    def number_matrix(self, phi, psi, n):
        """Sum over modes of phi_i * conj(psi_i) * a*_i a_i on grade n."""
        self._check_grade(n)
        size = self.dim**n
        if n == 0:
            return np.zeros((1, 1), dtype=complex)
        out = np.zeros((size, size), dtype=complex)
        coeffs = np.asarray(phi, dtype=complex) * np.conj(
            np.asarray(psi, dtype=complex)
        )
        eye = np.eye(self.dim, dtype=complex)
        for i in range(self.dim):
            # the creator, not the matrix conjugate transpose of the
            # annihilator: the two are adjoint for the q-Gram only
            out += coeffs[i] * (
                self.create_matrix(eye[i], n - 1) @ self.annihilate_matrix(eye[i], n)
            )
        return out

    def _symmetric_pair(self, n_out, n_in):
        return (
            orthonormal_range(symmetrizer_matrix(self.dim, n_out)),
            orthonormal_range(symmetrizer_matrix(self.dim, n_in)),
        )

    def _relation_residual(self, lhs, rhs, n_out, n_in):
        """Scaled residual; at q = 1 the comparison is compressed to the
        symmetric subspaces, everywhere else it is on the full space."""
        if self.q == 1.0:
            left, right = self._symmetric_pair(n_out, n_in)
            lhs = left.conj().T @ lhs @ right
            rhs = left.conj().T @ rhs @ right
        scale = max(np.abs(rhs).max(), 1.0)
        return np.abs(lhs - rhs).max() / scale

    # -- checks ---------------------------------------------------------------

    def check_canonical_relation(self, rng, trials=25, tol=1e-9):
        """a_phi a*_psi - q a*_psi a_phi = <phi, psi> on every grade."""
        worst = 0.0
        for _ in range(trials):
            phi = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            psi = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            pairing = np.vdot(phi, psi)
            for n in range(self.max_grade):
                size = self.dim**n
                lhs = self.annihilate_matrix(phi, n + 1) @ self.create_matrix(psi, n)
                if n >= 1:
                    lhs = lhs - self.q * (
                        self.create_matrix(psi, n - 1)
                        @ self.annihilate_matrix(phi, n)
                    )
                rhs = pairing * np.eye(size)
                worst = max(worst, self._relation_residual(lhs, rhs, n, n))
        return [
            residual_record(
                "qdeform.canonical_relation",
                "deformed commutation relation",
                worst,
                tol,
                notes="grades below %d, %d trials, q=%g"
                % (self.max_grade, trials, self.q),
            )
        ]

    def check_squared_relation(self, rng, trials=25, tol=1e-9):
        """Annihilator squares against creator squares.

        Iterating the canonical relation twice gives, with c = <zeta, xi>:
        a_zeta^2 a*_xi^2 - q**4 a*_xi^2 a_zeta^2
            = (1 + q) c**2 + q (1 + q)**2 c a*_xi a_zeta.
        """
        if self.max_grade < 2:
            raise ValueError("the squared relation needs max_grade >= 2")
        q = self.q
        worst = 0.0
        for _ in range(trials):
            zeta = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            xi = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            c = np.vdot(zeta, xi)
            for n in range(self.max_grade - 1):
                size = self.dim**n
                lhs = (
                    self.annihilate_matrix(zeta, n + 1)
                    @ self.annihilate_matrix(zeta, n + 2)
                    @ self.create_matrix(xi, n + 1)
                    @ self.create_matrix(xi, n)
                )
                if n >= 2:
                    lhs = lhs - q**4 * (
                        self.create_matrix(xi, n - 1)
                        @ self.create_matrix(xi, n - 2)
                        @ self.annihilate_matrix(zeta, n - 1)
                        @ self.annihilate_matrix(zeta, n)
                    )
                rhs = (1.0 + q) * c**2 * np.eye(size)
                if n >= 1:
                    rhs = rhs + q * (1.0 + q) ** 2 * c * (
                        self.create_matrix(xi, n - 1)
                        @ self.annihilate_matrix(zeta, n)
                    )
                worst = max(worst, self._relation_residual(lhs, rhs, n, n))
        return [
            residual_record(
                "qdeform.squared_relation",
                "squared-operator commutation identity",
                worst,
                tol,
                notes="grades 0..%d, %d trials, q=%g"
                % (self.max_grade - 2, trials, self.q),
            )
        ]

    def check_adjointness(self, rng, trials=25, tol=1e-10):
        """Creation and annihilation are mutually adjoint for the q-Gram."""
        worst = 0.0
        for _ in range(trials):
            phi = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            for n in range(min(self.max_grade, MAX_QGRAM_GRADE)):
                lhs = self.annihilate_matrix(phi, n + 1).conj().T @ self.q_gram(n)
                rhs = self.q_gram(n + 1) @ self.create_matrix(phi, n)
                worst = max(worst, self._relation_residual(lhs, rhs, n + 1, n))
        return [
            residual_record(
                "qdeform.adjointness",
                "adjointness for the deformed scalar product",
                worst,
                tol,
                notes="%d trials, q=%g" % (trials, self.q),
            )
        ]

    def _raw_gram(self, n):
        if n == 0:
            return np.ones((1, 1), dtype=complex)
        size = self.dim**n
        mat = np.zeros((size, size), dtype=complex)
        for perm in itertools.permutations(range(n)):
            mat += self.q ** inversions(perm) * axis_permutation_matrix(
                self.dim, perm
            )
        return mat

    def check_positivity(self, max_level=4, tol=1e-10):
        """P_q(n) is positive definite for |q| < 1, positive semidefinite
        (with a large kernel) at q = 1."""
        worst = math.inf
        worst_herm = 0.0
        details = []
        for n in range(min(self.max_grade, max_level) + 1):
            mat = self.q_gram(n)
            eigs = np.linalg.eigvalsh(mat)
            low = float(eigs.min())
            worst = min(worst, low)
            details.append("n=%d min_eig=%.3e" % (n, low))
            raw = self._raw_gram(n)
            worst_herm = max(worst_herm, float(np.abs(raw - raw.conj().T).max()))
        herm_record = residual_record(
            "qdeform.gram_hermitian",
            "positivity of the deformed scalar product",
            worst_herm,
            1e-12,
            notes="defect of the raw permutation sum before hermitization",
        )
        if abs(self.q) < 1.0:
            # strict positivity, with a little room above the float floor
            record = residual_record(
                "qdeform.gram_positive_definite",
                "positivity of the deformed scalar product",
                -worst,
                -1e-12,
                notes="; ".join(details) + "; q=%g" % self.q,
            )
        else:
            record = residual_record(
                "qdeform.gram_positive_semidefinite",
                "positivity of the deformed scalar product",
                max(0.0, -worst),
                tol,
                notes="; ".join(details) + "; q=%g" % self.q,
            )
        return [record, herm_record]


def check_inversion_count(rng, trials=200):
    """Mergesort inversion counting against the brute-force pair count."""
    worst = 0
    for _ in range(trials):
        n = 2 + int(rng.integers(7))
        perm = rng.permutation(n)
        brute = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        worst = max(worst, abs(inversions(tuple(int(x) for x in perm)) - brute))
    return [
        residual_record(
            "qdeform.inversions_brute_force",
            "inversion statistic of the permutation sum",
            float(worst),
            0.0,
            notes="%d random permutations, sizes up to 8" % trials,
        )
    ]


def _block_values(fine, blocks, rtol=1e-12):
    """Constant value of a fine-grained function on each block.

    Raises ValueError when the function is not piecewise constant.
    """
    fine = np.asarray(fine, dtype=complex)
    values = []
    scale = max(np.abs(fine).max(), 1.0)
    for block in blocks:
        chunk = fine[list(block)]
        first = chunk[0]
        if np.abs(chunk - first).max() > rtol * scale:
            raise ValueError("input is not constant on a mode block")
        values.append(first)
    return np.asarray(values)


class DiscretizedQuadratic:
    """Squared-mode quadratic operators over a blocked fine point set.

    The fine point set carries weights; the blocks must have equal total
    mass l.  Piecewise-constant functions on the fine set become vectors of
    block values; the quadratic operators are sums over blocks of squared
    mode creators/annihilators of the deformed space on the block modes.
    """

    def __init__(self, q, fine_weights, blocks, max_grade):
        self.fine_weights = np.asarray(fine_weights, dtype=float)
        if self.fine_weights.ndim != 1 or np.any(self.fine_weights <= 0):
            raise ValueError("fine weights must be positive")
        self.blocks = [tuple(int(i) for i in b) for b in blocks]
        seen = sorted(i for b in self.blocks for i in b)
        if seen != list(range(self.fine_weights.size)):
            raise ValueError("blocks must partition the fine point set")
        masses = np.array(
            [self.fine_weights[list(b)].sum() for b in self.blocks]
        )
        if np.abs(masses - masses[0]).max() > 1e-12 * max(masses[0], 1.0):
            raise ValueError("mode blocks must have equal mass")
        self.block_mass = float(masses[0])
        self.space = QFockSpace(len(self.blocks), q, max_grade)

    @property
    def q(self):
        return self.space.q

    def block_values(self, fine):
        return _block_values(fine, self.blocks)

    def integral(self, fine):
        """Plain weighted integral of a fine-grained function."""
        fine = np.asarray(fine, dtype=complex)
        return fine @ self.fine_weights.astype(complex)

    def quad_create_matrix(self, psi_fine, n):
        """Sum over blocks of psi_i times the squared mode creator."""
        values = self.block_values(psi_fine)
        sp = self.space
        out = 0.0
        eye = np.eye(sp.dim, dtype=complex)
        for i in range(sp.dim):
            out = out + values[i] * (
                sp.create_matrix(eye[i], n + 1) @ sp.create_matrix(eye[i], n)
            )
        return out

    def quad_annihilate_matrix(self, phi_fine, n):
        """Sum over blocks of conj(phi_i) times the squared mode annihilator."""
        values = self.block_values(phi_fine)
        sp = self.space
        out = 0.0
        eye = np.eye(sp.dim, dtype=complex)
        for i in range(sp.dim):
            out = out + np.conj(values[i]) * (
                sp.annihilate_matrix(eye[i], n - 1) @ sp.annihilate_matrix(eye[i], n)
            )
        return out

    def generated_vector(self, symbols_fine):
        """Apply squared-mode creators for the given fine symbols to the
        vacuum, returning the resulting top-grade coordinate vector."""
        sp = self.space
        vec = np.ones(1, dtype=complex)
        grade = 0
        for fine in reversed(list(symbols_fine)):
            mat = self.quad_create_matrix(fine, grade)
            vec = mat @ vec
            grade += 2
        return grade, vec

    def check_discretized_relation(self, phi_fine, psi_fine, rng, pairs=12, tol=1e-9):
        """Matrix elements of the squared-operator relation on vectors
        generated by piecewise-constant quadratic creators."""
        sp = self.space
        q = sp.q
        l = self.block_mass
        phi_vals = self.block_values(phi_fine)
        psi_vals = self.block_values(psi_fine)
        scalar = (1.0 + q) / l * self.integral(
            np.asarray(psi_fine, dtype=complex)
            * np.conj(np.asarray(phi_fine, dtype=complex))
        )
        worst = 0.0
        vacuum_lhs = None
        depth = (sp.max_grade - 2) // 2
        for index in range(pairs):
            m = 0 if index == 0 else int(rng.integers(depth + 1))
            left_syms = [
                self.random_piecewise(rng) for _ in range(m)
            ]
            right_syms = [
                self.random_piecewise(rng) for _ in range(m)
            ]
            n, u = self.generated_vector(left_syms)
            _, v = self.generated_vector(right_syms)
            lhs = self.quad_annihilate_matrix(phi_fine, n + 2) @ (
                self.quad_create_matrix(psi_fine, n)
            )
            if n >= 2:
                lhs = lhs - q**4 * (
                    self.quad_create_matrix(psi_fine, n - 2)
                    @ self.quad_annihilate_matrix(phi_fine, n)
                )
            rhs = scalar * np.eye(sp.dim**n) + q * (1.0 + q) ** 2 * (
                sp.number_matrix(psi_vals, phi_vals, n)
            )
            gram = sp.q_gram(n)
            left = np.vdot(u, gram @ (lhs @ v))
            right = np.vdot(u, gram @ (rhs @ v))
            scale = max(abs(right), abs(np.vdot(u, gram @ u)), 1.0)
            worst = max(worst, abs(left - right) / scale)
            if m == 0:
                vacuum_lhs = left
        records = [
            residual_record(
                "qdeform.discretized_relation",
                "squared-mode relation on piecewise-constant vectors",
                worst,
                tol,
                notes="%d generated-vector pairs, q=%g, block mass %g"
                % (pairs, q, l),
            )
        ]
        if vacuum_lhs is not None:
            records.append(
                residual_record(
                    "qdeform.discretized_vacuum_element",
                    "squared-mode relation on piecewise-constant vectors",
                    abs(vacuum_lhs - scalar) / max(abs(scalar), 1.0),
                    tol,
                    notes="vacuum pairing equals (1+q)/l times the integral",
                )
            )
        return records

    def random_piecewise(self, rng):
        values = rng.standard_normal(len(self.blocks)) + 1j * rng.standard_normal(
            len(self.blocks)
        )
        fine = np.zeros(self.fine_weights.size, dtype=complex)
        for value, block in zip(values, self.blocks):
            fine[list(block)] = value
        return fine


def check_bosonic_coefficient_match(rng, dim=2, max_grade=4, trials=10, tol=1e-9):
    """Structure constants of the q = 1 squared-mode relation against the
    quadratic commutator coefficients at gamma0 = 1.

    Both worlds satisfy commutator = alpha * pairing * identity + beta *
    number operator; the two (alpha, beta) pairs are fitted by least squares
    in each world separately and compared.  Only the coefficients transfer:
    full vacuum moments do not, because the squared-mode realization obeys
    the relation table with number/creation coefficient 2 while the literal
    quadratic operators measure 1.
    """
    qspace = QFockSpace(dim, 1.0, max_grade)
    blocks = [(i,) for i in range(dim)]
    disc = DiscretizedQuadratic(1.0, np.ones(dim), blocks, max_grade)
    rows = []
    targets = []
    for _ in range(trials):
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        pairing = np.vdot(phi, psi)
        for n in range(max_grade - 1):
            lhs = disc.quad_annihilate_matrix(phi, n + 2) @ (
                disc.quad_create_matrix(psi, n)
            )
            if n >= 2:
                lhs = lhs - disc.quad_create_matrix(psi, n - 2) @ (
                    disc.quad_annihilate_matrix(phi, n)
                )
            ident = pairing * np.eye(dim**n)
            number = qspace.number_matrix(psi, phi, n)
            rows.append(
                np.column_stack([ident.reshape(-1), number.reshape(-1)])
            )
            targets.append(lhs.reshape(-1))
    design = np.vstack(rows)
    target = np.concatenate(targets)
    coeff_q, *_ = np.linalg.lstsq(design, target, rcond=None)

    algebra = FunctionAlgebra(np.ones(dim))
    bspace = BosonicSpace(algebra, max_grade, gamma0=1.0)
    rows = []
    targets = []
    for _ in range(trials):
        phi = random_element(algebra, rng)
        psi = random_element(algebra, rng)
        pairing = algebra.state(algebra.mul(algebra.star(phi), psi))
        product = algebra.mul(algebra.star(phi), psi)
        for k in range(max_grade - 1):
            commutator = bspace.operator_matrix(
                ANNIHILATION, phi, k + 1
            ) @ bspace.operator_matrix(CREATION, psi, k)
            if k >= 1:
                commutator = commutator - bspace.operator_matrix(
                    CREATION, psi, k - 1
                ) @ bspace.operator_matrix(ANNIHILATION, phi, k)
            sym = bspace.symmetrizer(k)
            commutator = commutator @ sym
            ident = pairing * sym
            number = bspace.operator_matrix(NUMBER, product, k) @ sym
            rows.append(
                np.column_stack([ident.reshape(-1), number.reshape(-1)])
            )
            targets.append(commutator.reshape(-1))
    design = np.vstack(rows)
    target = np.concatenate(targets)
    coeff_b, *_ = np.linalg.lstsq(design, target, rcond=None)

    gap = max(abs(coeff_q[0] - coeff_b[0]), abs(coeff_q[1] - coeff_b[1]))
    return [
        residual_record(
            "qdeform.bosonic_coefficient_match",
            "squared-mode realization of the quadratic relations",
            gap,
            tol,
            notes=(
                "fitted (alpha, beta): squared modes (%.6f, %.6f),"
                " quadratic operators (%.6f, %.6f)"
                % (
                    coeff_q[0].real,
                    coeff_q[1].real,
                    coeff_b[0].real,
                    coeff_b[1].real,
                )
            ),
        ),
        reported_record(
            "qdeform.bosonic_scalar_coefficient",
            "squared-mode realization of the quadratic relations",
            measured=coeff_q[0].real,
            expected=2.0,
            notes="(1+q)/l at q=1, l=1; quadratic side 2*gamma0 at gamma0=1",
        ),
        reported_record(
            "qdeform.bosonic_number_coefficient",
            "squared-mode realization of the quadratic relations",
            measured=coeff_q[1].real,
            expected=4.0,
            notes="q(1+q)**2 at q=1; quadratic side fixed coefficient 4",
        ),
    ]
