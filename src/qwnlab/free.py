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

The operators act on the leading slots only: creation prepends its symbol,
the number operator multiplies the first slot from the left, and
annihilation pairs against the first slot (state term) and merges the
first two slots.  So each operator is built as its leading factor F on the
first one or two slots tensored with the identity, F (x) I: the factors
are its symbol tensors, its kernel is the one product of F with the
leading axes of a block, and ``_leading`` reads F off the letter.  Their
commutation behaviour is exactly resolvable: annihilation past creation
leaves a scalar plus a number operator, and the number family is
multiplicative.  The relation check asserts these as exact identities of
products of factors, and the shared adjointness and norm checks read the
factors too, so those checks run no kernel.

Mixed vacuum moments of the field combinations creation + annihilation +
s * number follow a noncrossing-partition formula whose block weights are
free-cumulant coefficients; the operator route and the combinatorial route
are implemented independently and compared.  The operator route walks the
kernels from the vacuum (``GradedFockSpace._walk``).  Both routes take a
trial axis, the couplings s of shape (T,) and each symbol a (T, ...)
stack, so the moment, cumulant, traciality and freeness checks draw their
trials one by one, in the order they always drew them, and then take the
moments of all trials of one word length at once.
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
from .linalg import hermitize_in_place, scaled_gap
from .report import residual_record


def _at_grade(factors, k):
    """The one of a letter's leading ``factors`` that acts on grade k:
    annihilation has a factor on grade 1 and one above, the others one."""
    return factors[0] if k <= 1 else factors[-1]


def _trial_stacks(s, symbols):
    """A moment's coupling and symbols as trial stacks, s of shape (T,) and
    each symbol a (T, ...) stack, and whether they came so: a scalar s and
    single elements make one trial."""
    batched = np.ndim(s) == 1
    symbols = [np.asarray(x) if batched else np.asarray(x)[None] for x in symbols]
    return np.array(s, dtype=float, ndmin=1), symbols, batched


def _cumulant_weights(n, s):
    """``cumulant_weight(n, s)`` at each of the couplings s, one call per
    distinct coupling."""
    values, inverse = np.unique(s, return_inverse=True)
    return np.array([cumulant_weight(n, value) for value in values])[inverse]


def _by_length(words):
    """The (coupling, symbols) pairs ``words`` as trial stacks, one group
    per word length, shortest first: (index, s, symbols) with the positions
    of the group's words in ``words``, their couplings and, per letter,
    the (T, ...) stack of their symbols."""
    lengths = {}
    for i, (_, symbols) in enumerate(words):
        lengths.setdefault(len(symbols), []).append(i)
    for n, index in sorted(lengths.items()):
        s = np.array([words[i][0] for i in index], dtype=float)
        stacks = [np.array([words[i][1][j] for i in index]) for j in range(n)]
        yield np.array(index), s, stacks


def _worst(residuals):
    """The largest of an array of residuals, 0 when it is empty."""
    return float(np.max(residuals, initial=0.0))


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
        factor = np.conj(coords) @ self._pairing @ coords.T
        factor *= self.gamma
        return factor

    def gram(self, k):
        """Grade-k Gram matrix G_k = sum_(m=1..k) F_m (x) G_(k-m), summed
        over the length m of the first interval; cached and hermitized.

        Each F_m (x) G_(k-m) is added into the grade's matrix one row of
        F_m at a time, so no Kronecker product of the grade's size is
        formed; the products and sums are those of ``np.kron``'s, in the
        same order, so the bits are too.  The matrix is hermitized in
        place, so it is the one array of the grade's size held."""
        self._check_grade(k)
        if k not in self._gram:
            mat = self._factor(k) if k else np.ones((1, 1), dtype=complex)
            for m in range(1, k):
                factor, tail = self._factor(m), self.gram(k - m)
                # row i of F_m feeds the rows (i, r) of G_k, columns (j, s)
                rows = mat.reshape(len(factor), len(tail), len(factor), len(tail))
                for i, row in enumerate(factor):
                    rows[i] += row[None, :, None] * tail[:, None, :]
            self._gram[k] = hermitize_in_place(mat)
        return self._gram[k]

    # -- operators ----------------------------------------------------------

    def _symbol_tensors(self, kind, symbol):
        """The leading factors of the operator of ``kind`` at ``symbol``:
        creation's column of the symbol's coordinates (D x 1), the number
        operator's left multiplication (D x D), and annihilation's gamma
        times the state row on grade 1 (1 x D) and, above, that row on the
        first slot plus the merge of the first two (D x D**2)."""
        alg = self.algebra
        if kind == CREATION:
            return (alg.coords(symbol)[:, None],)
        if kind == NUMBER:
            return (alg.left_mult_matrix(symbol),)
        if kind == ANNIHILATION:
            dim = alg.dim
            starred = alg.star(symbol)
            basis = alg.basis()
            row = self.gamma * alg.state(alg.mul(starred, basis))[None, :]
            # merge[c, (a1, a2)]: coordinate c of symbol* e_a1 e_a2
            prod = alg.mul(starred, alg.mul(basis[:, None], basis[None, :]))
            merge = alg.coords(prod).reshape(dim * dim, dim).T
            return row, np.kron(row, np.eye(dim)) + merge
        raise ValueError("unknown operator kind %r" % (kind,))

    def _stacked_kernel(self, kind, data, block, k):
        factor = _at_grade(data, k)
        image = factor @ block.reshape(len(block), factor.shape[2], -1)
        return image.reshape(len(block), -1, block.shape[2])

    def _leading(self, kind, coeffs, k):
        """The leading factor F of the operator of ``kind`` leaving grade k
        whose basis operators ``coeffs`` weighs: its letter's factor at
        grade k, with no kernel run.  The operator is F (x) I by
        construction, F reading the leading slots its width spans."""
        return _at_grade(self._letter(kind, coeffs), k)

    # -- field combinations and moments -------------------------------------

    def _fields(self, s, symbols):
        """The walk letters of field factors, creation + annihilation of
        the starred symbol + s * number, for the trials' couplings s, of
        shape (T,), and symbols, each a (T, ...) stack: the coupling scales
        each row of the number term, which is left out when every
        coupling is 0."""
        star = self.algebra.star
        letters = []
        for symbol in symbols:
            coords = self._coefficients(CREATION, symbol)
            letter = [
                (CREATION, coords, None),
                (ANNIHILATION, self._coefficients(ANNIHILATION, star(symbol)), None),
            ]
            if s.any():
                letter.append((NUMBER, coords, s))
            letters.append(letter)
        return letters

    def moment_operator(self, s, symbols):
        """Vacuum moment of a product of field factors, operator route.

        For a coupling s and symbols, the moment; for couplings s of shape
        (T,) and each symbol a (T, ...) stack of elements, the T moments of
        the trials, from one walk (``_walk``)."""
        s, symbols, batched = _trial_stacks(s, symbols)
        moments = self._vacuum_walk(self._fields(s, symbols), len(s))
        return moments if batched else complex(moments[0])

    def moment_formula(self, s, symbols):
        """Same moment by the noncrossing expansion, each block weighed once;
        over trials as ``moment_operator`` takes them."""
        s, symbols, batched = _trial_stacks(s, symbols)
        if not symbols:
            return np.ones(len(s), dtype=complex) if batched else 1.0 + 0.0j
        alg = self.algebra
        weights, arities = {}, {}
        total = np.zeros(len(s), dtype=complex)
        for blocks in noncrossing_blocks(len(symbols)):
            term = np.ones(len(s), dtype=complex)
            for block in blocks:
                if block not in weights:
                    prod = functools.reduce(alg.mul, [symbols[i - 1] for i in block])
                    if len(block) not in arities:
                        arities[len(block)] = _cumulant_weights(len(block), s)
                    weights[block] = self.gamma * alg.state(prod) * arities[len(block)]
                term *= weights[block]
            total += term
        return total if batched else complex(total[0])

    def cumulant_closed_form(self, s, symbols):
        """Joint free cumulant of field factors: gamma * state of the
        product, times the arity weight; over trials as
        ``moment_operator`` takes them."""
        s, symbols, batched = _trial_stacks(s, symbols)
        prod = functools.reduce(self.algebra.mul, symbols)
        value = self.gamma * self.algebra.state(prod)
        value = value * _cumulant_weights(len(symbols), s)
        return value if batched else complex(value[0])

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
        coupling = np.array([s], dtype=float)
        vec = [np.ones((1, 1), dtype=complex)] + [None] * self.max_grade
        remaining = total_len
        for g, center in zip(reversed(groups), reversed(centers)):
            letters = self._fields(coupling, [np.asarray(x)[None] for x in g])
            walked = self._walk(letters, vec, remaining)
            remaining -= len(g)
            vec = [
                a if b is None else -center * b if a is None else a - center * b
                for a, b in zip(walked, vec)
            ]
        return 0j if vec[0] is None else complex(vec[0][0, 0])

    # -- verification checks -------------------------------------------------

    def check_relations(self, tol=1e-12):
        """The four exact relations of the free quadratic operators, on the
        basis pairs (e_a, e_b) of the algebra, a the outer symbol:

            b(e_a) b*(e_b) = gamma state(e_a* e_b) + n(e_a* e_b),
            n(e_a) b*(e_b) = b*(e_a e_b),
            b(e_a) n(e_b) = b(e_b* e_a),
            n(e_a) n(e_b) = n(e_a e_b).

        Each side is linear in both symbols (annihilation conjugate-linearly),
        so the basis pairs prove the relations for all symbols.  Every
        operator is its ``_leading`` factor tensored with the identity, so
        each side is one too: the left side's factor is the outer factor
        times the inner one, padded with the identity on the slots the
        outer factor reads beyond those the inner one reaches, and the
        factors are compared at every grade.
        """
        alg = self.algebra
        dim = alg.dim
        units = np.eye(dim)
        basis = alg.basis()
        pairs = alg.mul(alg.star(basis)[:, None], basis[None, :])
        pairing = self.gamma * alg.state(pairs)
        pair_coords = alg.coords(pairs)
        product_coords = alg.coords(alg.mul(basis[:, None], basis[None, :]))
        worst = dict.fromkeys(
            (
                "contract_creation",
                "number_creation",
                "annihilation_number",
                "number_multiplicative",
            ),
            0.0,
        )

        def relation(name, outer, a, inner, k, rhs):
            """One basis pair: the factor of ``outer`` at e_a leaving grade
            k times the ``inner`` factor."""
            factor = self._leading(outer, units[a], k)
            pad = np.eye(factor.shape[1] // inner.shape[0])
            lhs = factor @ np.kron(inner, pad)
            worst[name] = max(worst[name], scaled_gap(lhs, rhs))

        for k in range(self.max_grade):
            for b in range(dim):
                creation = self._leading(CREATION, units[b], k)
                for a in range(dim):
                    # the scalar on the vacuum, plus the number factor above
                    rhs = pairing[a, b] * np.eye(dim ** min(k, 1))
                    if k:
                        rhs = rhs + self._leading(NUMBER, pair_coords[a, b], k)
                    relation("contract_creation", ANNIHILATION, a, creation, k + 1, rhs)
                    rhs = self._leading(CREATION, product_coords[a, b], k)
                    relation("number_creation", NUMBER, a, creation, k + 1, rhs)
        for k in range(1, self.max_grade + 1):
            for b in range(dim):
                number = self._leading(NUMBER, units[b], k)
                for a in range(dim):
                    # b(z* psi) has the coefficients conj(coords(z* psi))
                    rhs = self._leading(ANNIHILATION, pair_coords[b, a].conj(), k)
                    relation("annihilation_number", ANNIHILATION, a, number, k, rhs)
                    rhs = self._leading(NUMBER, product_coords[a, b], k)
                    relation("number_multiplicative", NUMBER, a, number, k, rhs)
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
        phis = np.array([random_element(alg, rng) for _ in range(trials)])
        linf = alg.norm_linf(phis)
        bound = math.sqrt(self.gamma) * alg.norm_l2(phis) + linf
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
        """Operator moments against the noncrossing expansion, the trials
        of each word length in one walk."""
        alg = self.algebra
        s_values = (0.0, 1.0, 2.0, -0.5)
        words = []
        for trial in range(trials):
            length = 1 + int(rng.integers(max_length))
            symbols = [random_element(alg, rng) for _ in range(length)]
            words.append((s_values[trial % len(s_values)], symbols))
        worst = 0.0
        for _, s, symbols in _by_length(words):
            op = self.moment_operator(s, symbols)
            form = self.moment_formula(s, symbols)
            worst = max(worst, _worst(np.abs(op - form) / np.maximum(np.abs(form), 1.0)))
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
        """Closed-form cumulants against the moment-cumulant recursion, the
        moments of each order for all trials in one walk."""
        alg = self.algebra
        s_values = (0.0, 1.0, 2.0, -0.5)
        s = np.array([s_values[trial % len(s_values)] for trial in range(trials)])
        phis = np.array([random_element(alg, rng, real=True) for _ in range(trials)])
        moments = [self.moment_operator(s, [phis] * j) for j in range(1, order + 1)]
        recovered = moments_to_free_cumulants(moments)
        worst = 0.0
        for n in range(1, order + 1):
            if n == 1:
                expected = np.zeros(trials, dtype=complex)
            else:
                expected = self.cumulant_closed_form(s, [phis] * n)
            gap = np.abs(recovered[n - 1] - expected) / np.maximum(np.abs(expected), 1.0)
            worst = max(worst, _worst(gap))
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
        """Vacuum moments are tracial: cyclic rotation leaves them fixed.
        Both orders of the trials of each word length run in one walk."""
        alg = self.algebra
        words = []
        for trial in range(trials):
            s = (0.0, 1.0, -0.5)[trial % 3]
            p = 1 + int(rng.integers(3))
            q = 1 + int(rng.integers(3))
            left = [random_element(alg, rng) for _ in range(p)]
            right = [random_element(alg, rng) for _ in range(q)]
            words += [(s, left + right), (s, right + left)]
        worst = 0.0
        for _, s, symbols in _by_length(words):
            # each trial's two orders are adjacent rows
            moments = self.moment_operator(s, symbols)
            xy, yx = moments[0::2], moments[1::2]
            worst = max(worst, _worst(np.abs(xy - yx) / np.maximum(np.abs(xy), 1.0)))
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
        their vacuum moment.  Each product is scaled by its plain moment,
        those of each word length taken in one walk.
        """
        alg = self.algebra
        if alg.kind != "functions" or alg.dim < 2:
            raise ValueError("the freeness check needs >= 2 points")
        half = alg.dim // 2
        supports = (range(half), range(half, alg.dim))
        values, words = [], []
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
            values.append(self.centered_product_expectation(s, groups))
            words.append((s, [x for g in groups for x in g]))
        values = np.abs(values)
        worst = 0.0
        for index, s, symbols in _by_length(words):
            plain = self.moment_operator(s, symbols)
            worst = max(worst, _worst(values[index] / np.maximum(np.abs(plain), 1.0)))
        return [
            residual_record(
                "free.freeness.alternating_centered",
                "free independence over disjoint supports",
                worst,
                tol,
                notes="up to 6 alternating centered factors, %d trials" % trials,
            )
        ]
