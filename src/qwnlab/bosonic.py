"""Truncated Fock space carrying the quadratic bosonic white-noise algebra.

The space is a direct sum of tensor powers of a finite *-algebra, cut off at
a maximal grade.  The scalar product on grade k is not the plain tensor-power
product: it is a sum over partitions of the k slot positions into lists,
where every list contributes the state applied to an alternating product of
starred and unstarred slot entries, with weight gamma0 / list_length.  Three
assemblies of the Gram matrix are implemented:

* "ordered" sums those lists literally, one einsum per partition (4051
  terms at grade 6).  It is the definition and the oracle.
* "setpartition" sums plain set partitions with weight
  gamma0 * (block_size - 1)! per block.  It is only valid over a
  commutative base algebra, where all orientations of a block agree.
* "recursive", the default, uses that both base algebras carry a tracial
  state.  The n rotations of a list then give the same term, so the sum
  over lists collapses to a sum over permutations with weight gamma0 per
  cycle.  Deleting the last slot from its cycle either removes a fixed
  point or merges it into the slot before it, which gives a k-term
  insertion recursion for the underlying multilinear functional and an
  O(D**(2k+1)) assembly.

Creation inserts its symbol into every gap of a tensor word, annihilation
pairs its symbol against the first slot (a state term plus merge terms into
each later slot), and the number operator multiplies every slot from the
left.  All three are realized as dense matrices between flat grade
coordinates, so commutators, adjointness and norm bounds reduce to linear
algebra against the grade Gram matrices.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .algebra import pair_product_state_tensors, random_element
from .combinatorics import ordered_partitions, set_partitions
from .graded import ANNIHILATION, CREATION, NUMBER, GradedFockSpace
from .linalg import hermitize, orthonormal_range, symmetrizer_matrix
from .report import reported_record, residual_record

_GRAM_METHODS = ("recursive", "ordered", "setpartition")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Exact commutator cancellation needs gamma0 and the state weights to carry
# few enough mantissa bits that double products stay exact; see _is_dyadic.
_DYADIC_BITS = 8


def _is_dyadic(value, bits=_DYADIC_BITS):
    scaled = float(value) * (1 << bits)
    return scaled == round(scaled)


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
    _adjoint_notes = "%d trials, symmetric compression"

    # The benchmark's span tracer (perfbench/tracing.py) wraps methods it
    # finds in the class __dict__, so the shared ones are bound here.
    operator_matrix = GradedFockSpace.operator_matrix
    apply = GradedFockSpace.apply
    vacuum_expectation = GradedFockSpace.vacuum_expectation
    check_adjointness = GradedFockSpace.check_adjointness

    def __init__(self, algebra, max_grade, gamma0=1.0):
        super().__init__(algebra, max_grade)
        if gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        self.gamma0 = float(gamma0)
        basis = algebra.basis()
        # structure constants e_a e_b = sum_c mult[a, b, c] e_c, the state
        # on the basis, and pair[a, b, c], the coordinates of star(e_a) e_b
        self._mult = algebra.coords(algebra.mul(basis[:, None], basis[None, :]))
        self._tau = algebra.state(basis)
        self._pair = algebra.coords(
            algebra.mul(algebra.star(basis)[:, None], basis[None, :])
        )
        self._functionals = [np.ones((), dtype=complex)]
        self._chains = []
        self._gram_raw = {}
        self._gram = {}
        self._symmetrizers = {}
        self._symmetric_bases = {}
        self._symmetric_grams = {}

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
        needs a commutative algebra.  The result is cached per route and
        not hermitized.
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
        key = (k, method)
        if key not in self._gram_raw:
            if method == "recursive":
                self._gram_raw[key] = self._recursive_gram(k)
            else:
                self._gram_raw[key] = self._assemble_gram(k, method)
        return self._gram_raw[key]

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

    def _recursive_gram(self, k):
        tensor = (2.0**k / math.factorial(k)) * self._functional(k)
        # Each step replaces the leading slot c by the pair (i, j) at the end.
        for _ in range(k):
            tensor = np.tensordot(tensor, self._pair, axes=([0], [2]))
        order = tuple(range(0, 2 * k, 2)) + tuple(range(1, 2 * k, 2))
        size = self.algebra.dim**k
        return tensor.transpose(order).reshape(size, size)

    def _chain_tensors(self, k):
        """Pair-product state tensors up to grade k, built on first need."""
        if len(self._chains) < k:
            self._chains = pair_product_state_tensors(self.algebra, k)
        return self._chains

    def _assemble_gram(self, k, method):
        dim = self.algebra.dim
        if k == 0:
            return np.ones((1, 1), dtype=complex)
        size = dim**k
        out_sub = _LETTERS[: 2 * k]
        total = np.zeros((size, size), dtype=complex)
        base = 2.0**k / math.factorial(k)
        chains = self._chain_tensors(k)
        if method == "ordered":
            partitions = ordered_partitions(k)
        else:
            partitions = set_partitions(k)
        for partition in partitions:
            coeff = base
            operands = []
            subs = []
            for block in partition.blocks:
                n = len(block)
                if method == "ordered":
                    coeff *= self.gamma0 / n
                else:
                    coeff *= self.gamma0 * math.factorial(n - 1)
                operands.append(chains[n - 1])
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

    def symmetrizer(self, k):
        """Projection onto the symmetric part of grade k, as a matrix."""
        self._check_grade(k)
        if k not in self._symmetrizers:
            self._symmetrizers[k] = symmetrizer_matrix(self.algebra.dim, k)
        return self._symmetrizers[k]

    def symmetric_basis(self, k):
        """Orthonormal (coordinate-wise) basis of the symmetric subspace."""
        if k not in self._symmetric_bases:
            self._symmetric_bases[k] = orthonormal_range(self.symmetrizer(k))
        return self._symmetric_bases[k]

    # -- operators ---------------------------------------------------------

    def _symbol_tensors(self, kind, symbol):
        alg = self.algebra
        if kind == CREATION:
            return (alg.coords(symbol),)
        if kind == NUMBER:
            return (alg.left_mult_matrix(symbol),)
        if kind == ANNIHILATION:
            starred = alg.star(symbol)
            basis = alg.basis()
            dvec = alg.state(alg.mul(starred, basis))
            prod = alg.mul(alg.mul(basis[:, None], starred), basis[None, :])
            return dvec, alg.coords(prod)
        raise ValueError("unknown operator kind %r" % (kind,))

    def _kernel(self, kind, data, arr, k):
        out = 0.0
        if kind == CREATION:
            # Sum over the k + 1 gaps; the new slot axis is moved into place.
            for target in range(k + 1):
                out = out + np.moveaxis(np.multiply.outer(data[0], arr), 0, target)
            return out
        if kind == NUMBER:
            for target in range(k):
                out = out + np.moveaxis(
                    np.tensordot(data[0], arr, axes=(1, target)), 0, target
                )
            return out
        # State term: pair the symbol against the first slot and drop it.
        out = 2.0 * self.gamma0 * np.tensordot(data[0], arr, axes=(0, 0))
        # Merge terms: slot i absorbs (slot_i symbol* slot_1) for i >= 2.
        # data[1][b, a, c] are the coordinates of e_b symbol* e_a.
        for i in range(2, k + 1):
            merged = np.tensordot(data[1], arr, axes=([0, 1], [i - 1, 0]))
            out = out + 2.0 * np.moveaxis(merged, 0, i - 2)
        return out

    # -- verification checks ----------------------------------------------

    def _compress(self, mat, k_out, k_in):
        left = self.symmetric_basis(k_out)
        right = self.symmetric_basis(k_in)
        return left.conj().T @ mat @ right

    def _right_symmetrized(self, mat, k):
        """Exact column symmetrization: average of slot-permuted columns."""
        dim = self.algebra.dim
        rows = mat.shape[0]
        arr = mat.reshape((rows,) + (dim,) * k)
        total = np.zeros_like(arr)
        count = 0
        for perm in itertools.permutations(range(k)):
            axes = (0,) + tuple(1 + p for p in perm)
            total = total + arr.transpose(axes)
            count += 1
        return (total / count).reshape(mat.shape)

    def check_gram_closed_forms(self, rng, trials=25, tol=1e-10):
        """Level 1 and level 2 scalar products against their closed forms."""
        alg = self.algebra
        g0 = self.gamma0
        worst1 = 0.0
        worst2 = 0.0
        for _ in range(trials):
            phi = random_element(alg, rng)
            psi = random_element(alg, rng)
            prod = alg.mul(alg.star(phi), psi)
            expected1 = 2.0 * g0 * alg.state(prod)
            c = alg.coords(phi)
            d = alg.coords(psi)
            measured1 = np.vdot(c, self.gram(1) @ d)
            scale1 = max(abs(expected1), 1.0)
            worst1 = max(worst1, abs(measured1 - expected1) / scale1)
            expected2 = 2.0 * g0**2 * alg.state(prod) ** 2
            expected2 += 2.0 * g0 * alg.state(alg.mul(prod, prod))
            cc = np.kron(c, c)
            dd = np.kron(d, d)
            measured2 = np.vdot(cc, self.gram(2) @ dd)
            scale2 = max(abs(expected2), 1.0)
            worst2 = max(worst2, abs(measured2 - expected2) / scale2)
        return [
            residual_record(
                "bosonic.gram.level1_closed_form",
                "scalar product definition, single-slot case",
                worst1,
                tol,
                notes="relative error over %d trials" % trials,
            ),
            residual_record(
                "bosonic.gram.level2_closed_form",
                "scalar product definition, two-slot case",
                worst2,
                tol,
                notes="relative error over %d trials" % trials,
            ),
        ]

    def _route_gap(self, method, oracle, kmax):
        """Worst relative Frobenius gap between two Gram routes, grades 1..kmax."""
        worst = 0.0
        for k in range(1, kmax + 1):
            a = self.gram_matrix(k, method=oracle)
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
                self._route_gap("setpartition", "ordered", kmax),
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
                self._route_gap("recursive", "ordered", kmax),
                tol,
                notes="grades 1..%d, tracial state" % kmax,
            )
        ]

    def check_commutators(self, rng, trials=50, tol_affine=1e-10):
        """Commutation relations among the three operator families.

        Same-kind commutators are checked with dyadic symbols so that the
        floating-point sums cancel exactly; the mixed commutator is an
        affine identity checked to tol_affine after column symmetrization.
        The number-creation commutator coefficient is not asserted: it is
        measured by least squares and reported next to the tabulated 2.
        """
        alg = self.algebra
        exact_tol = 0.0
        if not (
            _is_dyadic(self.gamma0)
            and getattr(alg, "weights", None) is not None
            and all(_is_dyadic(w) for w in np.atleast_1d(alg.weights))
        ):
            exact_tol = 1e-13
        worst_cc = 0.0
        worst_aa = 0.0
        worst_nn = 0.0
        worst_mixed = 0.0
        kappa_num = 0.0 + 0.0j
        kappa_den = 0.0
        fit_pairs = []
        for _ in range(trials):
            phi = random_element(alg, rng, dyadic=True)
            psi = random_element(alg, rng, dyadic=True)
            for k in range(self.max_grade - 1):
                left = self.operator_matrix(CREATION, phi, k + 1) @ (
                    self.operator_matrix(CREATION, psi, k)
                )
                right = self.operator_matrix(CREATION, psi, k + 1) @ (
                    self.operator_matrix(CREATION, phi, k)
                )
                worst_cc = max(worst_cc, np.abs(left - right).max())
            for k in range(2, self.max_grade + 1):
                left = self.operator_matrix(ANNIHILATION, phi, k - 1) @ (
                    self.operator_matrix(ANNIHILATION, psi, k)
                )
                right = self.operator_matrix(ANNIHILATION, psi, k - 1) @ (
                    self.operator_matrix(ANNIHILATION, phi, k)
                )
                diff = self._right_symmetrized(left - right, k)
                worst_aa = max(worst_aa, np.abs(diff).max())
            if alg.commutative:
                for k in range(1, self.max_grade + 1):
                    left = self.operator_matrix(NUMBER, phi, k) @ (
                        self.operator_matrix(NUMBER, psi, k)
                    )
                    right = self.operator_matrix(NUMBER, psi, k) @ (
                        self.operator_matrix(NUMBER, phi, k)
                    )
                    worst_nn = max(worst_nn, np.abs(left - right).max())
            # Mixed commutator, continuous symbols.
            phi_c = random_element(alg, rng)
            psi_c = random_element(alg, rng)
            pairing = alg.state(alg.mul(alg.star(phi_c), psi_c))
            product = alg.mul(alg.star(phi_c), psi_c)
            for k in range(self.max_grade):
                size = self.algebra.dim**k
                commutator = self.operator_matrix(
                    ANNIHILATION, phi_c, k + 1
                ) @ self.operator_matrix(CREATION, psi_c, k)
                if k >= 1:
                    commutator = commutator - self.operator_matrix(
                        CREATION, psi_c, k - 1
                    ) @ self.operator_matrix(ANNIHILATION, phi_c, k)
                expected = 2.0 * self.gamma0 * pairing * np.eye(size)
                expected = expected + 4.0 * self.operator_matrix(
                    NUMBER, product, k
                )
                diff = self._right_symmetrized(commutator - expected, k)
                scale = max(np.abs(expected).max(), 1.0)
                worst_mixed = max(worst_mixed, np.abs(diff).max() / scale)
            # Number against creation: measure the coefficient.
            zeta = random_element(alg, rng)
            xi = random_element(alg, rng)
            for k in range(self.max_grade):
                measured = self.operator_matrix(
                    NUMBER, zeta, k + 1
                ) @ self.operator_matrix(CREATION, xi, k)
                measured = measured - self.operator_matrix(
                    CREATION, xi, k
                ) @ self.operator_matrix(NUMBER, zeta, k)
                template = self.operator_matrix(
                    CREATION, alg.mul(zeta, xi), k
                )
                kappa_num += np.vdot(template, measured)
                kappa_den += np.vdot(template, template).real
                fit_pairs.append((measured, template))
        kappa = kappa_num / kappa_den
        fit_num = 0.0
        fit_den = 0.0
        for measured, template in fit_pairs:
            fit_num += np.linalg.norm(measured - kappa * template) ** 2
            fit_den += np.linalg.norm(template) ** 2
        fit = math.sqrt(fit_num / fit_den)
        records = [
            residual_record(
                "bosonic.commutator.creation_creation",
                "quadratic commutation relations",
                worst_cc,
                exact_tol,
                notes="max entry over %d dyadic trials" % trials,
            ),
            residual_record(
                "bosonic.commutator.annihilation_annihilation",
                "quadratic commutation relations",
                worst_aa,
                exact_tol,
                notes="symmetric columns, max entry, dyadic trials",
            ),
            residual_record(
                "bosonic.commutator.mixed_affine",
                "quadratic commutation relations",
                worst_mixed,
                tol_affine,
                notes="scaled max entry after column symmetrization",
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
                    " matrices; the abstract relation table posits 2"
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
                    worst_nn,
                    exact_tol,
                    notes="commutative base algebra, max entry",
                ),
            )
        return records

    def _symmetric_gram(self, k):
        """Gram matrix compressed to the symmetric subspace (cached)."""
        if k not in self._symmetric_grams:
            basis = self.symmetric_basis(k)
            self._symmetric_grams[k] = hermitize(
                basis.conj().T @ self.gram(k) @ basis
            )
        return self._symmetric_grams[k]

    _metric = _symmetric_gram

    def check_norm_estimates(self, rng, trials=50, slack=1e-9):
        """Operator norms on symmetric parts against the stated bounds."""
        alg = self.algebra
        g0 = self.gamma0
        excess_create = -math.inf
        excess_annihilate = -math.inf
        excess_number = -math.inf
        for _ in range(trials):
            phi = random_element(alg, rng)
            l2 = alg.norm_l2(phi)
            linf = alg.norm_linf(phi)
            for k in range(1, self.max_grade + 1):
                bound = math.sqrt(2.0 * k) * (
                    math.sqrt(g0) * l2 + (k - 1) * linf
                )
                norm_create = self._operator_norm(CREATION, phi, k - 1)
                excess_create = max(excess_create, norm_create - bound)
                norm_annihilate = self._operator_norm(ANNIHILATION, phi, k)
                excess_annihilate = max(excess_annihilate, norm_annihilate - bound)
                norm_number = self._operator_norm(NUMBER, phi, k)
                excess_number = max(excess_number, norm_number - k * linf)
        return [
            residual_record(
                "bosonic.norm.creation_bound",
                "operator norm estimates",
                excess_create,
                slack,
                notes="worst norm minus bound, %d trials" % trials,
            ),
            residual_record(
                "bosonic.norm.annihilation_bound",
                "operator norm estimates",
                excess_annihilate,
                slack,
                notes="worst norm minus bound, %d trials" % trials,
            ),
            residual_record(
                "bosonic.norm.number_bound",
                "operator norm estimates",
                excess_number,
                slack,
                notes="worst norm minus bound, %d trials" % trials,
            ),
        ]

    def check_positivity(self, tol=1e-10):
        """Gram positivity on symmetric parts, plus hermiticity defects."""
        records = []
        worst_eig = math.inf
        worst_herm = 0.0
        details = []
        for k in range(self.max_grade + 1):
            raw = self.gram_matrix(k)
            scale = max(np.abs(raw).max(), 1.0)
            worst_herm = max(
                worst_herm, np.abs(raw - raw.conj().T).max() / scale
            )
            eigs = np.linalg.eigvalsh(self._symmetric_gram(k))
            low = float(eigs.min()) if eigs.size else 0.0
            worst_eig = min(worst_eig, low)
            details.append("k=%d min_eig=%.3e" % (k, low))
        note = "; ".join(details)
        if self.algebra.commutative:
            records.append(
                residual_record(
                    "bosonic.gram.positive_symmetric",
                    "positivity of the quadratic scalar product",
                    max(0.0, -worst_eig),
                    tol,
                    notes=note,
                )
            )
        else:
            records.append(
                reported_record(
                    "bosonic.gram.positive_symmetric",
                    "positivity question for noncommutative base algebras",
                    measured=worst_eig,
                    notes=note + "; recorded without assertion",
                )
            )
        records.append(
            residual_record(
                "bosonic.gram.hermitian",
                "scalar product definition",
                worst_herm,
                1e-12,
                notes="max entry of G minus its adjoint, scaled",
            )
        )
        return records
