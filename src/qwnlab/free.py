"""Truncated Fock space for the free (voiculescu-type) quadratic algebra.

Grade k is the full k-fold tensor power of the base algebra; nothing is
symmetrized.  The scalar product sums over interval decompositions of the
slot range: each interval of length m contributes a factor built from the
state of star-reversed word products, and the factors combine as Kronecker
products.  Every summand is a pullback of a GNS form, so the assembled Gram
matrices are positive semidefinite for every base algebra, commutative or
not.

The operators act on the first slot only: creation prepends its symbol,
annihilation pairs against the first slot (state term) and merges the first
two slots, the number operator multiplies the first slot from the left.
Their commutation behaviour is exactly resolvable: annihilation past
creation leaves a scalar plus a number operator, and the number family is
multiplicative, which the checks assert as exact matrix identities.

Mixed vacuum moments of the field combinations creation + annihilation +
s * number follow a noncrossing-partition formula whose block weights are
free-cumulant coefficients; the operator route and the combinatorial route
are implemented independently and compared.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import basis_word_products, random_element
from .combinatorics import (
    cumulant_weight,
    interval_compositions,
    moments_to_free_cumulants,
    noncrossing_partitions,
)
from .graded import (
    ANNIHILATION,
    CREATION,
    NUMBER,
    GradedFockSpace,
    GradedVector,
    GradeOverflowError,
)
from .linalg import hermitize
from .report import residual_record


class FreeSpace(GradedFockSpace):
    """Graded coordinate model of the free quadratic algebra."""

    _prefix = "free"
    _adjoint_claim = "adjointness of the free operators"
    _adjoint_notes = "full space, %d trials"

    # The benchmark's span tracer (perfbench/tracing.py) wraps methods it
    # finds in the class __dict__, so the shared ones are bound here.
    operator_matrix = GradedFockSpace.operator_matrix
    apply = GradedFockSpace.apply
    vacuum_expectation = GradedFockSpace.vacuum_expectation
    check_adjointness = GradedFockSpace.check_adjointness

    def __init__(self, algebra, max_grade, gamma=1.0):
        super().__init__(algebra, max_grade)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)
        self._words = basis_word_products(algebra, self.max_grade)
        self._factors = {}
        self._gram = {}

    def _factor(self, m):
        """Gram factor of one interval of length m: gamma * state of the
        star-reversed left word times the right word."""
        if m not in self._factors:
            words = self._words[m - 1]
            left = self.algebra.star(words)
            prod = self.algebra.mul(left[:, None], words[None, :])
            self._factors[m] = self.gamma * self.algebra.state(prod)
        return self._factors[m]

    def gram(self, k):
        """Grade-k Gram matrix: sum over interval decompositions."""
        self._check_grade(k)
        if k in self._gram:
            return self._gram[k]
        if k == 0:
            mat = np.ones((1, 1), dtype=complex)
        else:
            size = self.algebra.dim**k
            mat = np.zeros((size, size), dtype=complex)
            for composition in interval_compositions(k):
                term = np.ones((1, 1), dtype=complex)
                for length in composition.blocks:
                    term = np.kron(term, self._factor(len(length)))
                mat += term
        self._gram[k] = hermitize(mat)
        return self._gram[k]

    def _metric(self, k):
        return self.gram(k)

    def _compress(self, mat, k_out, k_in):
        return mat

    # -- operators ----------------------------------------------------------

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
            # merge[a1, a2, c]: coordinates of symbol* e_a1 e_a2
            prod = alg.mul(starred, alg.mul(basis[:, None], basis[None, :]))
            return dvec, alg.coords(prod)
        raise ValueError("unknown operator kind %r" % (kind,))

    def _kernel(self, kind, data, arr, k):
        if kind == CREATION:
            return np.multiply.outer(data[0], arr)
        if kind == NUMBER:
            return np.tensordot(data[0], arr, axes=(1, 0))
        out = self.gamma * np.tensordot(data[0], arr, axes=(0, 0))
        if k >= 2:
            out = out + np.tensordot(data[1], arr, axes=([0, 1], [0, 1]))
        return out

    # -- field combinations and moments -------------------------------------

    def q_apply(self, s, symbol, vec, remaining):
        """One field factor creation + annihilation(star) + s * number,
        with per-branch grade pruning for `remaining` factors left."""
        alg = self.algebra
        out = self.apply(
            CREATION, symbol, self._prune(vec, CREATION, remaining)
        )
        down = self.apply(
            ANNIHILATION, alg.star(symbol), self._prune(vec, ANNIHILATION, remaining)
        )
        out = out.add(down)
        if s != 0.0:
            mid = self.apply(
                NUMBER, symbol, self._prune(vec, NUMBER, remaining)
            )
            out = out.add(mid.scaled(s))
        return out

    def moment_operator(self, s, symbols):
        """Vacuum moment of a product of field factors, operator route."""
        symbols = list(symbols)
        if len(symbols) > 2 * self.max_grade:
            raise GradeOverflowError(
                "moment of length %d exceeds the grade budget" % len(symbols)
            )
        vec = GradedVector.vacuum(self.algebra.dim, self.max_grade)
        for pos, symbol in enumerate(reversed(symbols)):
            vec = self.q_apply(s, symbol, vec, len(symbols) - pos)
        return vec.vacuum_component()

    def moment_formula(self, s, symbols):
        """Same moment through the noncrossing-partition expansion."""
        symbols = list(symbols)
        n = len(symbols)
        if n == 0:
            return 1.0 + 0.0j
        alg = self.algebra
        total = 0.0 + 0.0j
        for partition in noncrossing_partitions(n):
            term = 1.0 + 0.0j
            for block in partition.blocks:
                prod = symbols[block[0] - 1]
                for pos in block[1:]:
                    prod = alg.mul(prod, symbols[pos - 1])
                term *= (
                    self.gamma
                    * alg.state(prod)
                    * cumulant_weight(len(block), s)
                )
            total += term
        return total

    def cumulant_closed_form(self, s, symbols):
        """Joint free cumulant of field factors: gamma * state of the
        product, times the arity weight."""
        symbols = list(symbols)
        alg = self.algebra
        prod = symbols[0]
        for symbol in symbols[1:]:
            prod = alg.mul(prod, symbol)
        return self.gamma * alg.state(prod) * cumulant_weight(len(symbols), s)

    def centered_product_expectation(self, s, groups):
        """Vacuum moment of a product of centered factors.

        Each group is a list of symbols; the factor is the product of its
        field combinations minus that product's own vacuum moment.  Factors
        multiply left to right.  Pruning uses the total count of remaining
        field factors, which is an upper bound for every expansion branch.
        """
        groups = [list(g) for g in groups]
        total_len = sum(len(g) for g in groups)
        if total_len > 2 * self.max_grade:
            raise GradeOverflowError("centered product exceeds the grade budget")
        centers = [self.moment_operator(s, g) for g in groups]
        vec = GradedVector.vacuum(self.algebra.dim, self.max_grade)
        remaining = total_len
        for g, center in zip(reversed(groups), reversed(centers)):
            skipped = vec.scaled(center)
            for symbol in reversed(g):
                vec = self.q_apply(s, symbol, vec, remaining)
                remaining -= 1
            vec = vec.add(skipped.scaled(-1.0))
        return vec.vacuum_component()

    # -- verification checks -------------------------------------------------

    def check_relations(self, rng, trials=25, tol=1e-12):
        """The four exact relations of the free quadratic operators."""
        alg = self.algebra
        worst = dict.fromkeys(
            ("contract", "number_creation", "annihilation_number", "number_number"),
            0.0,
        )
        for _ in range(trials):
            psi = random_element(alg, rng)
            phi = random_element(alg, rng)
            zeta = random_element(alg, rng)
            pairing = self.gamma * alg.state(alg.mul(alg.star(psi), phi))
            for k in range(self.max_grade):
                size = alg.dim**k
                lhs = self.operator_matrix(
                    ANNIHILATION, psi, k + 1
                ) @ self.operator_matrix(CREATION, phi, k)
                rhs = pairing * np.eye(size) + self.operator_matrix(
                    NUMBER, alg.mul(alg.star(psi), phi), k
                )
                scale = max(np.abs(rhs).max(), 1.0)
                worst["contract"] = max(
                    worst["contract"], np.abs(lhs - rhs).max() / scale
                )
                lhs = self.operator_matrix(
                    NUMBER, zeta, k + 1
                ) @ self.operator_matrix(CREATION, phi, k)
                rhs = self.operator_matrix(CREATION, alg.mul(zeta, phi), k)
                scale = max(np.abs(rhs).max(), 1.0)
                worst["number_creation"] = max(
                    worst["number_creation"], np.abs(lhs - rhs).max() / scale
                )
            for k in range(1, self.max_grade + 1):
                lhs = self.operator_matrix(
                    ANNIHILATION, psi, k
                ) @ self.operator_matrix(NUMBER, zeta, k)
                rhs = self.operator_matrix(
                    ANNIHILATION, alg.mul(alg.star(zeta), psi), k
                )
                scale = max(np.abs(rhs).max(), 1.0)
                worst["annihilation_number"] = max(
                    worst["annihilation_number"], np.abs(lhs - rhs).max() / scale
                )
                lhs = self.operator_matrix(
                    NUMBER, zeta, k
                ) @ self.operator_matrix(NUMBER, phi, k)
                rhs = self.operator_matrix(NUMBER, alg.mul(zeta, phi), k)
                scale = max(np.abs(rhs).max(), 1.0)
                worst["number_number"] = max(
                    worst["number_number"], np.abs(lhs - rhs).max() / scale
                )
        location = "free operator relations"
        return [
            residual_record(
                "free.relation.contract_creation",
                location,
                worst["contract"],
                tol,
                notes="scaled max entry, %d trials" % trials,
            ),
            residual_record(
                "free.relation.number_creation",
                location,
                worst["number_creation"],
                tol,
                notes="scaled max entry, %d trials" % trials,
            ),
            residual_record(
                "free.relation.annihilation_number",
                location,
                worst["annihilation_number"],
                tol,
                notes="scaled max entry, %d trials" % trials,
            ),
            residual_record(
                "free.relation.number_multiplicative",
                location,
                worst["number_number"],
                tol,
                notes="scaled max entry, %d trials" % trials,
            ),
        ]

    def check_positivity(self, tol=1e-10):
        """The free Gram is positive semidefinite for every base algebra."""
        worst = math.inf
        details = []
        for k in range(self.max_grade + 1):
            eigs = np.linalg.eigvalsh(self.gram(k))
            low = float(eigs.min())
            worst = min(worst, low)
            details.append("k=%d min_eig=%.3e" % (k, low))
        return [
            residual_record(
                "free.gram.positive",
                "positivity of the free scalar product",
                max(0.0, -worst),
                tol,
                notes="; ".join(details),
            )
        ]

    def check_norm_estimates(self, rng, trials=50, slack=1e-9):
        """Grade-independent norm bounds for the free operators."""
        alg = self.algebra
        excess_pair = -math.inf
        excess_number = -math.inf
        for _ in range(trials):
            phi = random_element(alg, rng)
            bound = math.sqrt(self.gamma) * alg.norm_l2(phi) + alg.norm_linf(phi)
            for k in range(1, self.max_grade + 1):
                norm_create = self._operator_norm(CREATION, phi, k - 1)
                excess_pair = max(excess_pair, norm_create - bound)
                norm_annihilate = self._operator_norm(ANNIHILATION, phi, k)
                excess_pair = max(excess_pair, norm_annihilate - bound)
                norm_number = self._operator_norm(NUMBER, phi, k)
                excess_number = max(excess_number, norm_number - alg.norm_linf(phi))
        return [
            residual_record(
                "free.norm.ladder_bound",
                "free operator norm estimates",
                excess_pair,
                slack,
                notes="worst norm minus bound, %d trials" % trials,
            ),
            residual_record(
                "free.norm.number_bound",
                "free operator norm estimates",
                excess_number,
                slack,
                notes="worst norm minus bound, %d trials" % trials,
            ),
        ]

    def check_moments(self, rng, trials=20, max_length=6, tol=1e-9):
        """Operator moments against the noncrossing expansion."""
        alg = self.algebra
        s_values = (0.0, 1.0, 2.0, -0.5)
        worst = 0.0
        for trial in range(trials):
            s = s_values[trial % len(s_values)]
            length = 1 + int(rng.integers(max_length))
            symbols = [random_element(alg, rng) for _ in range(length)]
            op = self.moment_operator(s, symbols)
            form = self.moment_formula(s, symbols)
            worst = max(worst, abs(op - form) / max(abs(form), 1.0))
        return [
            residual_record(
                "free.moments.operator_vs_noncrossing",
                "moment formula for the free field combinations",
                worst,
                tol,
                notes="lengths up to %d, %d trials" % (max_length, trials),
            )
        ]

    def check_cumulants(self, rng, trials=10, order=6, tol=1e-9):
        """Closed-form cumulants against the moment-cumulant recursion."""
        alg = self.algebra
        s_values = (0.0, 1.0, 2.0, -0.5)
        worst = 0.0
        for trial in range(trials):
            s = s_values[trial % len(s_values)]
            phi = random_element(alg, rng, real=True)
            moments = [
                self.moment_operator(s, [phi] * j) for j in range(1, order + 1)
            ]
            recovered = moments_to_free_cumulants(moments)
            for n in range(1, order + 1):
                if n == 1:
                    expected = 0.0 + 0.0j
                else:
                    expected = self.cumulant_closed_form(s, [phi] * n)
                worst = max(
                    worst, abs(recovered[n - 1] - expected) / max(abs(expected), 1.0)
                )
        return [
            residual_record(
                "free.cumulants.closed_form",
                "free cumulants of the field combinations",
                worst,
                tol,
                notes="orders up to %d, %d trials" % (order, trials),
            )
        ]

    def check_traciality(self, rng, trials=50, tol=1e-9):
        """Vacuum moments are tracial: cyclic rotation leaves them fixed."""
        alg = self.algebra
        worst = 0.0
        for trial in range(trials):
            s = (0.0, 1.0, -0.5)[trial % 3]
            p = 1 + int(rng.integers(3))
            q = 1 + int(rng.integers(3))
            left = [random_element(alg, rng) for _ in range(p)]
            right = [random_element(alg, rng) for _ in range(q)]
            xy = self.moment_operator(s, left + right)
            yx = self.moment_operator(s, right + left)
            worst = max(worst, abs(xy - yx) / max(abs(xy), 1.0))
        return [
            residual_record(
                "free.traciality",
                "traciality of the vacuum state",
                worst,
                tol,
                notes="products of up to 3 factors each, %d trials" % trials,
            )
        ]

    def check_freeness(self, rng, trials=20, tol=1e-9):
        """Centered alternating products over disjoint supports vanish.

        Needs a function algebra with at least two points; the point set is
        split in half and field combinations supported on opposite halves
        are alternated, each factor being one or two field operators minus
        their vacuum moment.
        """
        alg = self.algebra
        if alg.kind != "functions" or alg.dim < 2:
            raise ValueError("the freeness check needs >= 2 points")
        half = alg.dim // 2
        supports = (range(half), range(half, alg.dim))
        worst = 0.0
        for trial in range(trials):
            s = (0.0, 1.0, 2.0)[trial % 3]
            count = 2 + int(rng.integers(5))
            groups = []
            budget = 2 * self.max_grade
            for j in range(count):
                size = 1 + int(rng.integers(2))
                size = min(size, max(1, (budget - sum(map(len, groups))) // max(1, count - j)))
                groups.append(
                    [
                        random_element(alg, rng, support=supports[j % 2])
                        for _ in range(size)
                    ]
                )
            value = self.centered_product_expectation(s, groups)
            plain = self.moment_operator(s, [x for g in groups for x in g])
            scale = max(abs(plain), 1.0)
            worst = max(worst, abs(value) / scale)
        return [
            residual_record(
                "free.freeness.alternating_centered",
                "free independence over disjoint supports",
                worst,
                tol,
                notes="up to 6 alternating centered factors, %d trials" % trials,
            )
        ]
