"""Truncated q-deformed Fock space over a finite-dimensional mode space.

Grade n carries the q-Gram P_q(n), the sum over all slot permutations
weighted by q to the inversion count.  It is built by the one-step
factorization P_q(n) = (I (x) P_q(n-1)) R_n of Bozejko and Speicher
(CMP 137, 1991), with R_n = sum_(j<n) q**j T_1 ... T_j and T_i the swap of
slots i and i+1.  Creation prepends a mode vector; annihilation contracts
against each slot with weight q**(slot - 1).  The canonical relation
(annihilation past creation minus q times the reverse equals the mode
pairing) holds as an exact block identity on every grade, and iterating it
twice gives a closed relation for squared operators.  The canonical
relation and adjointness are checked at the basis modes, being linear.

Squared operators are the whole point here: annihilators and creators of
*pairs* of quanta in a common mode, summed over a block partition of the
modes with piecewise-constant coefficient functions, satisfy the same
affine commutation shape as the quadratic bosonic operators, with scalar
coefficient (1 + q) / l and number coefficient q (1 + q)**2.  At q = 1 and
unit block mass those are (2, 4), matching the quadratic commutator
coefficients at gamma0 = 1.  The match is one of structure constants, not
of full vacuum moments: the squared-mode world realizes the relation table
whose number/creation coefficient is 2, while the literal quadratic Fock
operators measure 1 there, and mixed words feel that difference.  The
literal operators obey the same table at 2 gamma0 as B = sqrt2 b and
N = 2n, which rescales their scalar coefficient too.
"""

from __future__ import annotations

import numpy as np

from .algebra import FunctionAlgebra, random_element
from .bosonic import BosonicSpace
from .combinatorics import inversions
from .graded import ANNIHILATION, CREATION, GradedFockSpace
from .linalg import hermitize, scaled_gap
from .report import reported_record, residual_record


def _scaled_block_gap(sides):
    """``scaled_gap`` of two sides given as (left, right) row blocks: the
    largest entry of the difference, relative to the largest of the right
    side once that exceeds 1."""
    worst = scale = 0.0
    for lhs, rhs in sides:
        worst = max(worst, np.abs(lhs - rhs).max())
        scale = max(scale, np.abs(rhs).max())
    return worst / max(scale, 1.0)


class QFockSpace(GradedFockSpace):
    """Tensor-power space with the inversion-weighted permutation Gram.

    The modes are the points of a unit-weight function algebra, so a mode
    vector is its own coordinate vector, the pairing <phi, psi> is
    state(star(phi) psi), and the basis modes are orthonormal.
    """

    def __init__(self, dim, q, max_grade):
        dim = int(dim)
        if dim < 1:
            raise ValueError("mode dimension must be >= 1")
        if not -1.0 < q <= 1.0:
            raise ValueError("q must lie in (-1, 1]")
        super().__init__(FunctionAlgebra(np.ones(dim)), max_grade)
        self.dim = dim
        self.q = float(q)
        self._raw_grams = {}
        self._grams = {}

    def q_gram(self, n):
        """P_q(n) = sum over permutations of q**inversions times the slot
        permutation matrix, built as (I (x) P_q(n-1)) R_n; cached and
        hermitized, with the raw product kept beside it."""
        self._check_grade(n)
        if n not in self._grams:
            self._raw_grams[n] = self._raw_gram(n)
            self._grams[n] = hermitize(self._raw_grams[n])
        return self._grams[n]

    def _metric(self, k):
        # positivity is checked on the full q-Gram, even at q = 1
        return self.q_gram(k)

    def _metric_eigenvalues(self, k):
        # the q-Gram is never whitened, so this is its one eigensolve
        return np.linalg.eigvalsh(self._metric(k))

    def _symbol_tensors(self, kind, symbol):
        if kind == CREATION:
            return (self.algebra.coords(symbol),)
        if kind == ANNIHILATION:
            return (self.algebra.star(symbol),)
        raise ValueError("unknown operator kind %r" % (kind,))

    def _kernel(self, kind, data, block, k):
        dim = self.dim
        width = block.shape[1]
        if kind == CREATION:
            return (data[0][:, None, None] * block).reshape(-1, width)
        # the contraction against slot i carries the weight q**i
        out = (data[0] @ block.reshape(dim, -1)).reshape(-1, width)
        for i in range(1, k):
            term = self.q**i * (data[0] @ block.reshape(dim**i, dim, -1))
            view = out.reshape(dim**i, -1)
            np.add(view, term, out=view)
        return out

    def create_matrix(self, phi, n):
        """Matrix of creation out of grade n (prepend the mode vector)."""
        return self.operator_matrix(CREATION, phi, n)

    def annihilate_matrix(self, phi, n):
        """Matrix of annihilation out of grade n (q-weighted contractions)."""
        return self.operator_matrix(ANNIHILATION, phi, n)

    def number_matrix(self, phi, psi, n):
        """Sum over modes of phi_i * conj(psi_i) * a*_i a_i on grade n."""
        out = 0.0
        coeffs = np.asarray(phi, dtype=complex) * np.conj(
            np.asarray(psi, dtype=complex)
        )
        eye = np.eye(self.dim, dtype=complex)
        for i in range(self.dim):
            # the creator, not the matrix conjugate transpose of the
            # annihilator: the two are adjoint for the q-Gram only
            out += coeffs[i] * self.word_matrix(
                [(CREATION, eye[i]), (ANNIHILATION, eye[i])], n
            )
        return out

    def _columns(self, k):
        """The columns of grade k that the relations and adjointness are
        checked on: the symmetric basis at q = 1, where the q-Gram is the
        symmetrizer's multiple, and None for the whole grade otherwise."""
        return self.symmetric_basis(k) if self.q == 1.0 else None

    def _compress(self, mat, k_out=None, k_in=None):
        """mat restricted on the left to the ``_columns`` of grade k_out and
        then on the right to those of grade k_in, each side where its grade
        is given and has columns."""
        left = None if k_out is None else self._columns(k_out)
        right = None if k_in is None else self._columns(k_in)
        if left is not None:
            mat = left.conj().T @ mat
        return mat if right is None else mat @ right

    def _leading(self, kind, coeffs, k):
        # Only the adjointness check reads these, against the q-Grams
        # restricted on the right, so the images of the ``_columns`` keep
        # their flat rows and the identity tail has size 1.
        return self._run([(kind, self._letter(kind, coeffs))], k, self._columns(k))

    # -- checks ---------------------------------------------------------------

    def check_canonical_relation(self, tol=1e-9):
        """a_phi a*_psi - q a*_psi a_phi = <phi, psi> on every grade, at the
        basis mode pairs (e_i, e_j), where the pairing is delta_ij.  Both
        sides are linear in psi and conjugate-linear in phi, so the pairs
        prove it for every symbol.  The commutators run on the ``_columns``
        and are compared after restriction on the left."""
        worst = 0.0
        modes = np.eye(self.dim)
        for n in range(self.max_grade):
            columns = self._columns(n)
            block = np.eye(self.dim**n) if columns is None else columns
            identity = self._compress(block, k_out=n)
            for i, phi in enumerate(modes):
                for j, psi in enumerate(modes):
                    left, right = [(ANNIHILATION, phi)], [(CREATION, psi)]
                    diff = self.commutator(left, right, n, self.q, columns)
                    lhs = self._compress(diff, k_out=n)
                    worst = max(worst, scaled_gap(lhs, modes[i, j] * identity))
        return [
            residual_record(
                "qdeform.canonical_relation",
                "deformed commutation relation",
                worst,
                tol,
                notes="grades below %d, %d basis mode pairs, q=%g"
                % (self.max_grade, self.dim**2, self.q),
            )
        ]

    def check_squared_relation(self, rng, trials=25, tol=1e-9):
        """Annihilator squares against creator squares.

        Iterating the canonical relation twice gives, with c = <zeta, xi>:
        a_zeta^2 a*_xi^2 - q**4 a*_xi^2 a_zeta^2
            = (1 + q) c**2 + q (1 + q)**2 c a*_xi a_zeta.

        Quadratic in each symbol, it is not proved by the basis modes and
        keeps its random symbols.
        """
        if self.max_grade < 2:
            raise ValueError("the squared relation needs max_grade >= 2")
        q = self.q
        worst = 0.0
        for _ in range(trials):
            zeta = random_element(self.algebra, rng)
            xi = random_element(self.algebra, rng)
            c = np.vdot(zeta, xi)
            for n in range(self.max_grade - 1):
                lhs = self.commutator(
                    [(ANNIHILATION, zeta)] * 2, [(CREATION, xi)] * 2, n, q**4
                )
                rhs = (1.0 + q) * c**2 * np.eye(self.dim**n)
                rhs = rhs + q * (1.0 + q) ** 2 * c * self.word_matrix(
                    [(CREATION, xi), (ANNIHILATION, zeta)], n
                )
                gap = scaled_gap(self._compress(lhs, n, n), self._compress(rhs, n, n))
                worst = max(worst, gap)
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

    def check_adjointness(self, tol=1e-10):
        """Creation and annihilation are mutually adjoint for the q-Gram,
        compared after ``_compress`` at each basis mode by the shared ladder
        check (``_ladder_gap``), with the images on flat rows:
        S_(n+1)^H A^H G_n S_n = (A S_(n+1))^H (G_n S_n) against
        S_(n+1)^H G_(n+1) C S_n = (G_(n+1) S_(n+1))^H (C S_n).  The
        restricted Grams are not square at q = 1, so their adjoints are
        passed beside them."""
        grams = [
            self._compress(self.q_gram(n), k_in=n) for n in range(self.max_grade + 1)
        ]
        adjoints = [gram.conj().T for gram in grams]
        worst = self._ladder_gap(grams, _scaled_block_gap, adjoints)
        return [
            residual_record(
                "qdeform.adjointness",
                "adjointness for the deformed scalar product",
                worst,
                tol,
                notes="%d basis modes, q=%g" % (self.dim, self.q),
            )
        ]

    def _raw_gram(self, n):
        """(I (x) P_q(n-1)) R_n, with R_n = sum_(j<n) q**j T_1 ... T_j."""
        if n == 0:
            return np.ones((1, 1), dtype=complex)
        self.q_gram(n - 1)
        size = self.dim**n
        r_n = np.eye(size, dtype=complex)
        # T_1 ... T_j swaps column slots j-1 and j of T_1 ... T_(j-1):
        # axes j and j+1 once the columns are unfolded into n slots
        chain = np.eye(size).reshape((size,) + (self.dim,) * n)
        for j in range(1, n):
            chain = chain.swapaxes(j, j + 1)
            r_n += self.q**j * chain.reshape(size, size)
        # I (x) P_q(n-1) is block diagonal: apply P_q(n-1) to each block row
        blocks = r_n.reshape(self.dim, self.dim ** (n - 1), size)
        return (self._raw_grams[n - 1] @ blocks).reshape(size, size)

    def check_positivity(self, max_level=4, tol=1e-10):
        """P_q(n) is positive definite for |q| < 1, positive semidefinite
        (with a large kernel) at q = 1."""
        top = min(self.max_grade, max_level)
        worst, note = self._positivity_sweep(top, label="n")
        worst_herm = 0.0
        for n in range(top + 1):
            # the sweep built each q-Gram and kept its raw sum
            raw = self._raw_grams[n]
            worst_herm = max(worst_herm, float(np.abs(raw - raw.conj().T).max()))
        herm_record = residual_record(
            "qdeform.gram_hermitian",
            "positivity of the deformed scalar product",
            worst_herm,
            1e-12,
            notes="defect of the raw recursion product before hermitization",
        )
        if abs(self.q) < 1.0:
            # strict positivity, with a little room above the float floor
            record = residual_record(
                "qdeform.gram_positive_definite",
                "positivity of the deformed scalar product",
                -worst,
                -1e-12,
                notes=note + "; q=%g" % self.q,
            )
        else:
            record = residual_record(
                "qdeform.gram_positive_semidefinite",
                "positivity of the deformed scalar product",
                max(0.0, -worst),
                tol,
                notes=note + "; q=%g" % self.q,
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

    def _squared_mode_sum(self, kind, coeffs, n):
        """Sum over blocks of coeffs[i] times the squared operator of mode i."""
        out = 0.0
        for coeff, mode in zip(coeffs, np.eye(self.space.dim, dtype=complex)):
            out = out + coeff * self.space.word_matrix([(kind, mode)] * 2, n)
        return out

    def quad_create_matrix(self, psi_fine, n):
        """Sum over blocks of psi_i times the squared mode creator."""
        return self._squared_mode_sum(CREATION, self.block_values(psi_fine), n)

    def quad_annihilate_matrix(self, phi_fine, n):
        """Sum over blocks of conj(phi_i) times the squared mode annihilator."""
        values = np.conj(self.block_values(phi_fine))
        return self._squared_mode_sum(ANNIHILATION, values, n)

    def squared_commutator(self, phi_fine, psi_fine, n):
        """A_phi A*_psi - q**4 A*_psi A_phi on grade n."""
        lhs = self.quad_annihilate_matrix(phi_fine, n + 2) @ (
            self.quad_create_matrix(psi_fine, n)
        )
        if n >= 2:
            lhs = lhs - self.q**4 * (
                self.quad_create_matrix(psi_fine, n - 2)
                @ self.quad_annihilate_matrix(phi_fine, n)
            )
        return lhs

    def generated_vector(self, symbols_fine):
        """Apply squared-mode creators for the given fine symbols to the
        vacuum, returning the resulting top-grade coordinate vector."""
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
            lhs = self.squared_commutator(phi_fine, psi_fine, n)
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
        values = random_element(self.space.algebra, rng)
        fine = np.zeros(self.fine_weights.size, dtype=complex)
        for value, block in zip(values, self.blocks):
            fine[list(block)] = value
        return fine


def _affine_fit(stacks):
    """Least-squares (alpha, beta) of commutator = alpha * identity term +
    beta * number term, over the (commutator, identity term, number term)
    stacks of every grade, and the fit's relative misfit
    |target - design (alpha, beta)| / max(|target|, 1)."""
    design = np.vstack(
        [np.column_stack([ident.ravel(), num.ravel()]) for _, ident, num in stacks]
    )
    target = np.concatenate([commutator.ravel() for commutator, _, _ in stacks])
    coeffs = np.linalg.lstsq(design, target, rcond=None)[0]
    misfit = np.linalg.norm(target - design @ coeffs)
    return coeffs, misfit / max(np.linalg.norm(target), 1.0)


def check_bosonic_coefficient_match(dim=2, max_grade=4, tol=1e-9):
    """Structure constants of the q = 1 squared-mode relation against the
    quadratic commutator coefficients at gamma0 = 1.

    Both worlds satisfy commutator = alpha * pairing * identity + beta *
    number operator; the two (alpha, beta) pairs are fitted by least squares
    in each world separately and compared.  Each side is sesquilinear in
    its two symbols, so both fits run on the dim**2 basis pairs of grades
    0..max_grade - 2 and draw no random symbols: the squared modes on
    whole grades, the quadratic operators from ``BosonicSpace.mixed_terms``
    in the orbit coordinates of the symmetric subspace.  The larger
    relative misfit of the two fits is a record of its own: a pair whose
    design rows are zero (e_a != e_b over a function algebra) never moves
    the fitted coefficients, so only the misfit sees a commutator that
    leaves the affine span there.  Only the coefficients transfer: full
    vacuum moments do not, because the squared-mode realization obeys the
    relation table with number/creation coefficient 2 while the literal
    quadratic operators measure 1; those obey the table only at 2 gamma0,
    as B = sqrt2 b and N = 2n.
    """
    blocks = [(i,) for i in range(dim)]
    disc = DiscretizedQuadratic(1.0, np.ones(dim), blocks, max_grade)
    qspace = disc.space
    pairs = [(phi, psi) for phi in np.eye(dim) for psi in np.eye(dim)]
    squared = []
    for n in range(max_grade - 1):
        commutators = [disc.squared_commutator(phi, psi, n) for phi, psi in pairs]
        idents = [np.vdot(phi, psi) * np.eye(dim**n) for phi, psi in pairs]
        numbers = [qspace.number_matrix(psi, phi, n) for phi, psi in pairs]
        squared.append((np.array(commutators), np.array(idents), np.array(numbers)))
    coeff_q, misfit_q = _affine_fit(squared)

    bspace = BosonicSpace(qspace.algebra, max_grade, gamma0=1.0)
    terms = [bspace.mixed_terms(k) for k in range(max_grade - 1)]
    coeff_b, misfit_b = _affine_fit(terms)

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
        residual_record(
            "qdeform.bosonic_affine_misfit",
            "squared-mode realization of the quadratic relations",
            max(misfit_q, misfit_b),
            tol,
            notes=(
                "larger relative least-squares misfit of the two fits:"
                " squared modes %.3e, quadratic operators %.3e" % (misfit_q, misfit_b)
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
