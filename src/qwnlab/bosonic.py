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
left.  All three act on blocks of flat grade coordinates, so their words
are dense matrices on the columns a check needs, and commutators,
adjointness and norm bounds reduce to linear algebra against the grade
Gram matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import pair_product_state_tensors, random_element
from .combinatorics import ordered_partitions, set_partitions
from .graded import _SHIFTS, ANNIHILATION, CREATION, NUMBER, GradedFockSpace
from .linalg import hermiticity_gap, hermitize
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
    symmetrizer = GradedFockSpace.symmetrizer
    symmetric_basis = GradedFockSpace.symmetric_basis

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

    def _kernel(self, kind, data, block, k):
        # Each slot's term is added through a view of the output that
        # splits the slots before it from the slot and those after.
        dim = self.algebra.dim
        width = block.shape[1]
        if kind == CREATION:
            # The symbol times the block, with the new slot first, moved
            # into each of the k + 1 gaps.
            (coords,) = data
            inserted = coords[:, None] * block.reshape(1, -1)
            if k == 0:
                return inserted.reshape(-1, width)
            first = inserted.reshape(dim, dim, -1)
            out = (first + first.transpose(1, 0, 2)).reshape(-1, width)
            for target in range(2, k + 1):
                view = out.reshape(dim**target, dim, -1)
                moved = inserted.reshape(dim, dim**target, -1).transpose(1, 0, 2)
                np.add(view, moved, out=view)
            return out
        if kind == NUMBER:
            # One buffer takes the product of every slot after the first.
            (left,) = data
            out = (left @ block.reshape(dim, -1)).reshape(-1, width)
            term = np.empty_like(out)
            for target in range(1, k):
                view = out.reshape(dim**target, dim, -1)
                product = term.reshape(view.shape)
                np.matmul(left, block.reshape(view.shape), out=product)
                np.add(view, product, out=view)
            return out
        # State term: pair the symbol against the first slot and drop it.
        # Merge terms: slot i absorbs (slot_i symbol* slot_1) for i >= 2.
        state, pairs = data
        out = (state @ block.reshape(dim, -1)).reshape(-1, width)
        for i in range(2, k + 1):
            before = dim ** (i - 2)
            slots = block.reshape(dim, before, dim, -1).transpose(1, 0, 2, 3)
            merged = pairs @ slots.reshape(before, dim * dim, -1)
            view = out.reshape(before, dim, -1)
            np.add(view, merged, out=view)
        return out

    # -- verification checks ----------------------------------------------

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
        Both symmetrized commutators run on the orbit indicators, whose
        images are the orbit sums of the columns, and divide by the orbit
        sizes.  The number-creation commutator coefficient is not asserted:
        it is measured by least squares and reported next to the tabulated
        2.  Its misfit is taken in a second pass that rebuilds each trial's
        pair from the stored symbols, so no pair outlives its trial.
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
        fit_symbols = []

        def fit_pairs(zeta, xi):
            """The measured number-creation commutator and its template,
            grade by grade."""
            number, creation, template = self._letters(
                [(NUMBER, zeta), (CREATION, xi), (CREATION, alg.mul(zeta, xi))]
            )
            for k in range(self.max_grade):
                measured = self._commute([number], [creation], k)
                yield measured, self._run([template], k, None)

        for _ in range(trials):
            phi = random_element(alg, rng, dyadic=True)
            psi = random_element(alg, rng, dyadic=True)
            left, right = self._letters([(CREATION, phi), (CREATION, psi)])
            for k in range(self.max_grade - 1):
                diff = self._commute([left], [right], k)
                worst_cc = max(worst_cc, np.abs(diff).max())
            left, right = self._letters([(ANNIHILATION, phi), (ANNIHILATION, psi)])
            for k in range(2, self.max_grade + 1):
                indicator, sizes, _ = self._orbits(k)
                diff = self._commute([left], [right], k, columns=indicator)
                worst_aa = max(worst_aa, np.abs(diff / sizes).max())
            if alg.commutative:
                left, right = self._letters([(NUMBER, phi), (NUMBER, psi)])
                for k in range(1, self.max_grade + 1):
                    diff = self._commute([left], [right], k)
                    worst_nn = max(worst_nn, np.abs(diff).max())
            # Mixed commutator, continuous symbols.
            phi_c = random_element(alg, rng)
            psi_c = random_element(alg, rng)
            pairing = alg.state(alg.mul(alg.star(phi_c), psi_c))
            product = alg.mul(alg.star(phi_c), psi_c)
            left, right, number = self._letters(
                [(ANNIHILATION, phi_c), (CREATION, psi_c), (NUMBER, product)]
            )
            for k in range(self.max_grade):
                indicator, sizes, _ = self._orbits(k)
                size = self.algebra.dim**k
                expected = 2.0 * self.gamma0 * pairing * np.eye(size)
                expected = expected + 4.0 * self._run([number], k, None)
                diff = self._commute([left], [right], k, columns=indicator)
                diff = (diff - expected @ indicator) / sizes
                scale = max(np.abs(expected).max(), 1.0)
                worst_mixed = max(worst_mixed, np.abs(diff).max() / scale)
            # Number against creation: measure the coefficient.
            zeta = random_element(alg, rng)
            xi = random_element(alg, rng)
            for measured, template in fit_pairs(zeta, xi):
                kappa_num += np.vdot(template, measured)
                kappa_den += np.vdot(template, template).real
            fit_symbols.append((zeta, xi))
        kappa = kappa_num / kappa_den
        fit_num = 0.0
        fit_den = 0.0
        for zeta, xi in fit_symbols:
            for measured, template in fit_pairs(zeta, xi):
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

    def check_symmetric_invariance(self, tol=1e-12):
        """The three operator families map symmetric vectors to symmetric
        vectors, which the symmetric compression of every other check
        relies on.

        Over each kind, grade and basis element, the image Y = B_b S_k of
        the symmetric subspace is compared with its projection onto the
        symmetric subspace of the grade it reaches, the orbit means
        indicator ((indicator^T Y) / sizes); the residual is the worst
        Frobenius distance, scaled by the norm of Y once that exceeds 1.
        """
        top = self.max_grade
        cases = [(CREATION, k) for k in range(top)]
        for kind in (ANNIHILATION, NUMBER):
            cases += [(kind, k) for k in range(1, top + 1)]
        worst = 0.0
        for kind, k in cases:
            indicator, sizes, _ = self._orbits(k + _SHIFTS[kind])
            for image in self._basis_operators(kind, k):
                means = (indicator.T @ image) / sizes[:, None]
                gap = np.linalg.norm(image - indicator @ means)
                worst = max(worst, gap / max(np.linalg.norm(image), 1.0))
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
        phis = [random_element(alg, rng) for _ in range(trials)]
        l2 = np.array([alg.norm_l2(phi) for phi in phis])
        linf = np.array([alg.norm_linf(phi) for phi in phis])
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
        worst_herm = 0.0
        for k in range(self.max_grade + 1):
            worst_herm = max(worst_herm, hermiticity_gap(self.gram_matrix(k)))
        worst_eig, note = self._positivity_sweep(self.max_grade)
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
