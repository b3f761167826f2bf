"""Truncated Fock space for the free (voiculescu-type) quadratic algebra.

Grade k is the full k-fold tensor power of the base algebra; nothing is
symmetrized.  The scalar product sums over interval decompositions of the
slot range, and splitting off the first interval gives the one-step
recursion

    G_k = sum_(m=1..k) F_m (x) G_(k-m),    G_0 = 1,

where the interval factor F_m is gamma times the state of the star-reversed
left word of length m times the right word.  Every summand is a pullback of
a GNS form, so the assembled Gram matrices are positive semidefinite for
every base algebra, commutative or not.

The operators act on the first slot only: creation prepends its symbol,
annihilation pairs against the first slot (state term) and merges the first
two slots, the number operator multiplies the first slot from the left.
Their commutation behaviour is exactly resolvable: annihilation past
creation leaves a scalar plus a number operator, and the number family is
multiplicative, which the checks assert as exact matrix identities.  So
each operator is a leading factor on the first one or two slots tensored
with the identity, and ``_leading``, the kernel on the identity of those
slots, is all the shared adjointness and norm checks read of it: no check
runs a kernel on a whole grade.

Mixed vacuum moments of the field combinations creation + annihilation +
s * number follow a noncrossing-partition formula whose block weights are
free-cumulant coefficients; the operator route and the combinatorial route
are implemented independently and compared.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .algebra import basis_word_products, random_element
from .combinatorics import (
    cumulant_weight,
    moments_to_free_cumulants,
    noncrossing_blocks,
)
from .graded import (
    ANNIHILATION,
    CREATION,
    NUMBER,
    GradedFockSpace,
    GradeOverflowError,
)
from .linalg import hermitize, scaled_gap
from .report import residual_record

_SLOTS = {CREATION: 0, NUMBER: 1, ANNIHILATION: 2}


class FreeSpace(GradedFockSpace):
    """Graded coordinate model of the free quadratic algebra."""

    _prefix = "free"
    _adjoint_claim = "adjointness of the free operators"
    _adjoint_notes = "full space, %d basis elements"

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
        basis = algebra.basis()
        # pairing[a, b] = state(star(e_a) e_b)
        self._pairing = algebra.state(
            algebra.mul(algebra.star(basis)[:, None], basis)
        )
        self._gram = {}

    def _factor(self, m):
        """Gram factor of one interval of length m: gamma * state of the
        star-reversed left word times the right word, from the words'
        coordinates."""
        coords = self.algebra.coords(self._words[m - 1])
        return self.gamma * (np.conj(coords) @ self._pairing @ coords.T)

    def gram(self, k):
        """Grade-k Gram matrix G_k = sum_(m=1..k) F_m (x) G_(k-m), summed
        over the length m of the first interval; cached and hermitized."""
        self._check_grade(k)
        if k not in self._gram:
            mat = self._factor(k) if k else np.ones((1, 1), dtype=complex)
            for m in range(1, k):
                mat += np.kron(self._factor(m), self.gram(k - m))
            self._gram[k] = hermitize(mat)
        return self._gram[k]

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

    def _kernel(self, kind, data, block, k):
        dim = self.algebra.dim
        width = block.shape[1]
        if kind == CREATION:
            return (data[0][:, None, None] * block).reshape(-1, width)
        if kind == NUMBER:
            return (data[0] @ block.reshape(dim, -1)).reshape(-1, width)
        out = (self.gamma * (data[0] @ block.reshape(dim, -1))).reshape(-1, width)
        if k >= 2:
            merged = data[1].reshape(dim * dim, dim).T @ block.reshape(dim * dim, -1)
            out = out + merged.reshape(-1, width)
        return out

    def _leading(self, kind, coeffs, k):
        """The leading factor F of the operator of ``kind`` leaving grade k
        whose basis operators ``coeffs`` weighs: it reads the first
        s = min(k, ``_SLOTS[kind]``) slots only, so it is F (x) I, and F is
        its ``_kernel`` on the identity of grade s."""
        slots = min(k, _SLOTS[kind])
        data = self._letter(kind, coeffs)
        return self._kernel(kind, data, np.eye(self.algebra.dim**slots), slots)

    # -- field combinations and moments -------------------------------------

    def _field(self, s, symbol):
        """The walk letter of one field factor: creation + annihilation of
        the starred symbol + s * number."""
        letter = [
            (1.0, CREATION, symbol),
            (1.0, ANNIHILATION, self.algebra.star(symbol)),
        ]
        if s != 0.0:
            letter.append((s, NUMBER, symbol))
        return letter

    def moment_operator(self, s, symbols):
        """Vacuum moment of a product of field factors, operator route."""
        return self._vacuum_walk([self._field(s, symbol) for symbol in symbols])

    def moment_formula(self, s, symbols):
        """Same moment by the noncrossing expansion, each block weighed once."""
        symbols = list(symbols)
        n = len(symbols)
        if n == 0:
            return 1.0 + 0.0j
        alg = self.algebra
        weights = {}
        total = 0.0 + 0.0j
        for blocks in noncrossing_blocks(n):
            term = 1.0 + 0.0j
            for block in blocks:
                if block not in weights:
                    prod = functools.reduce(alg.mul, [symbols[i - 1] for i in block])
                    weight = cumulant_weight(len(block), s)
                    weights[block] = self.gamma * alg.state(prod) * weight
                term *= weights[block]
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
        vec = [np.ones(1, dtype=complex)] + [None] * self.max_grade
        remaining = total_len
        for g, center in zip(reversed(groups), reversed(centers)):
            letters = [self._field(s, symbol) for symbol in g]
            walked = self._walk(letters, vec, remaining)
            remaining -= len(g)
            vec = [
                a if b is None else -center * b if a is None else a - center * b
                for a, b in zip(walked, vec)
            ]
        return 0j if vec[0] is None else complex(vec[0][0])

    # -- verification checks -------------------------------------------------

    def check_relations(self, tol=1e-12):
        """The four exact relations of the free quadratic operators, on the
        basis pairs (e_a, e_b) of the algebra, a the outer symbol:

            b(e_a) b*(e_b) = gamma state(e_a* e_b) + n(e_a* e_b),
            n(e_a) b*(e_b) = b*(e_a e_b),
            b(e_a) n(e_b) = b(e_b* e_a),
            n(e_a) n(e_b) = n(e_a e_b).

        Each side is linear in both symbols (annihilation conjugate-linearly),
        so the basis pairs prove the relations for all symbols.  The dim
        images of the inner creation operators serve the first two
        relations and those of the inner number operators the last two;
        each outer basis operator runs on them.  The first two act on the
        first slot of grade k and the last two on the first two slots, so
        they run on the identity columns whose later slots are e_0, where
        every entry of the whole-grade sides, and its scaled gap, shows.
        """
        alg = self.algebra
        dim = alg.dim
        basis = alg.basis()
        pairs = alg.mul(alg.star(basis)[:, None], basis[None, :])
        pairing = self.gamma * alg.state(pairs)
        pair_coords = alg.coords(pairs)
        product_coords = alg.coords(alg.mul(basis[:, None], basis[None, :]))
        outer = {kind: self._basis_letters(kind) for kind in (ANNIHILATION, NUMBER)}
        worst = dict.fromkeys(
            (
                "contract_creation",
                "number_creation",
                "annihilation_number",
                "number_multiplicative",
            ),
            0.0,
        )

        def leading_columns(k, slots):
            slots = min(k, slots)
            return np.kron(np.eye(dim**slots), np.eye(dim ** (k - slots), 1))

        def relation(name, left, k, a, inner, rhs):
            """One basis pair: ``left`` outer at e_a on the inner image."""
            lhs = self._run([(left, outer[left][a])], k, inner)
            worst[name] = max(worst[name], scaled_gap(lhs, rhs))

        for k in range(self.max_grade):
            columns = leading_columns(k, 1)
            for b, image in enumerate(self._basis_images(CREATION, k, columns)):
                for a in range(dim):
                    number = self._letter(NUMBER, pair_coords[a, b])
                    rhs = self._run([(NUMBER, number)], k, columns)
                    rhs = pairing[a, b] * columns + rhs
                    relation("contract_creation", ANNIHILATION, k + 1, a, image, rhs)
                    creation = self._letter(CREATION, product_coords[a, b])
                    rhs = self._run([(CREATION, creation)], k, columns)
                    relation("number_creation", NUMBER, k + 1, a, image, rhs)
        for k in range(1, self.max_grade + 1):
            columns = leading_columns(k, 2)
            for b, image in enumerate(self._basis_images(NUMBER, k, columns)):
                for a in range(dim):
                    # b(z* psi) has the coefficients conj(coords(z* psi))
                    annihilation = self._letter(ANNIHILATION, pair_coords[b, a].conj())
                    rhs = self._run([(ANNIHILATION, annihilation)], k, columns)
                    relation("annihilation_number", ANNIHILATION, k, a, image, rhs)
                    number = self._letter(NUMBER, product_coords[a, b])
                    rhs = self._run([(NUMBER, number)], k, columns)
                    relation("number_multiplicative", NUMBER, k, a, image, rhs)
        return [
            residual_record(
                "free.relation." + name,
                "free operator relations",
                value,
                tol,
                notes="scaled max entry, %d basis pairs" % dim**2,
            )
            for name, value in worst.items()
        ]

    def check_positivity(self, tol=1e-10):
        """The free Gram is positive semidefinite for every base algebra."""
        worst, note = self._positivity_sweep(self.max_grade)
        return [
            residual_record(
                "free.gram.positive",
                "positivity of the free scalar product",
                max(0.0, -worst),
                tol,
                notes=note,
            )
        ]

    def check_norm_estimates(self, rng, trials=50, slack=1e-9):
        """Grade-independent norm bounds for the free operators."""
        alg = self.algebra
        phis = [random_element(alg, rng) for _ in range(trials)]
        l2 = np.array([alg.norm_l2(phi) for phi in phis])
        linf = np.array([alg.norm_linf(phi) for phi in phis])
        bound = math.sqrt(self.gamma) * l2 + linf
        cases = []
        for k in range(1, self.max_grade + 1):
            cases += [
                ("ladder", CREATION, k - 1, bound),
                ("ladder", ANNIHILATION, k, bound),
                ("number", NUMBER, k, linf),
            ]
        return self._norm_records(
            "free.norm", "free operator norm estimates", cases, phis, slack
        )

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
