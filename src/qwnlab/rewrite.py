"""Symbolic normal ordering for the abstract white-noise relation algebras.

Words over the five generator kinds (quadratic creation, number and
annihilation, plus linear creation and annihilation) are rewritten into
normal form: creators leftmost, then number operators, then annihilators,
with runs of one kind sorted canonically by symbol.  Every rewrite rule
swaps one out-of-order adjacent pair and adds lower-complexity terms, so
rewriting terminates; a step budget of 4**length is enforced as a belt.

Unlike the concrete Fock modules, the relations here live in a table of
coefficients.  The default table carries the abstract coefficients
(2, 4, 2); a second constructor installs the measured concrete-operator
value for the number/creation coefficient, which is 1.  Both worlds are
computable on purpose, because they disagree and the disagreement itself
is one of the things this package measures.

The backing algebra must be commutative: canonical sorting of number-run
symbols silently assumes symbols commute, and everything downstream here
(field moments, classical laws, the obstruction certificate) lives over
function algebras anyway.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .algebra import FunctionAlgebra, random_element
from .bosonic import ANNIHILATION, CREATION, NUMBER, BosonicSpace
from .report import reported_record, residual_record

LINEAR_CREATION = "a*"
LINEAR_ANNIHILATION = "a"

KINDS = (CREATION, LINEAR_CREATION, NUMBER, LINEAR_ANNIHILATION, ANNIHILATION)
_RANK = {kind: index for index, kind in enumerate(KINDS)}

MAX_WORD_LENGTH = 14


class UnsupportedRelationError(RuntimeError):
    """The fixed rule set has no relation for the required swap."""


class RewriteBudgetError(RuntimeError):
    """The step counter exceeded the 4**length termination budget."""


class SymbolTable:
    """Interning table for algebra elements with cached products.

    Interning keys are the raw bytes of the coefficient array (with any
    negative zeros flushed), so identical elements share an id and the
    canonical normal form is well defined.
    """

    def __init__(self, algebra):
        if not algebra.commutative:
            raise ValueError("the rewrite engine needs a commutative backing algebra")
        self.algebra = algebra
        self._elements = []
        self._keys = []
        self._zero = []
        self._by_key = {}
        self._mul = {}
        self._star = {}
        self._pairing = {}

    def intern(self, element):
        arr = np.asarray(element, dtype=complex) + 0.0
        key = arr.tobytes()
        sid = self._by_key.get(key)
        if sid is None:
            sid = len(self._elements)
            self._by_key[key] = sid
            self._elements.append(arr)
            self._keys.append(key)
            self._zero.append(not arr.any())
        return sid

    def element(self, sid):
        return self._elements[sid]

    def sort_key(self, sid):
        return self._keys[sid]

    def is_zero(self, sid):
        return self._zero[sid]

    def mul(self, left, right):
        out = self._mul.get((left, right))
        if out is None:
            # Evaluate in a fixed operand order: elementwise complex products
            # can differ by an ulp between x*y and y*x when the platform uses
            # fused multiply-adds, and cancellation in normal forms needs the
            # two to intern identically.
            a, b = left, right
            if self._keys[b] < self._keys[a]:
                a, b = b, a
            out = self.intern(self.algebra.mul(self._elements[a], self._elements[b]))
            self._mul[(left, right)] = out
        return out

    def star(self, sid):
        out = self._star.get(sid)
        if out is None:
            out = self.intern(self.algebra.star(self._elements[sid]))
            self._star[sid] = out
        return out

    def pairing(self, left, right):
        """State of star(left) * right, the scalar the relations produce."""
        out = self._pairing.get((left, right))
        if out is None:
            out = complex(
                self.algebra.state(
                    self.algebra.mul(
                        self.algebra.star(self._elements[left]),
                        self._elements[right],
                    )
                )
            )
            self._pairing[(left, right)] = out
        return out


@dataclass(frozen=True)
class RelationTable:
    """Coefficients of the commutation rules.

    pair_scalar and pair_number are the scalar and number coefficients in
    the annihilation/creation rule (the scalar one is also multiplied by
    gamma0); number_shift is the coefficient kappa in the number/creation
    rule and its adjoint; linear_pair is the scalar in the linear-sector
    rule; mixed_shift is the coefficient in both mixed linear/quadratic
    rules.
    """

    gamma0: float = 1.0
    pair_scalar: float = 2.0
    pair_number: float = 4.0
    number_shift: float = 2.0
    linear_pair: float = 1.0
    mixed_shift: float = 2.0

    @classmethod
    def from_measured(cls, gamma0=1.0):
        """Coefficients measured on the concrete quadratic operators: the
        number/creation coefficient there is 1, not the tabled 2."""
        return cls(gamma0=gamma0, number_shift=1.0)


@dataclass
class NormalForm:
    """Linear combination of normally ordered words, plus the step count."""

    terms: dict = field(default_factory=dict)
    steps: int = 0

    def coefficient(self, word=()):
        return self.terms.get(tuple(word), 0j)

    def max_abs_coefficient(self):
        if not self.terms:
            return 0.0
        return max(abs(value) for value in self.terms.values())


class RewriteEngine:
    """Normal-ordering engine over an interning symbol table."""

    def __init__(self, symbols, table=None):
        self.symbols = symbols
        self.table = table if table is not None else RelationTable()
        self._moment_cache = {}
        self._rule_cache = {}

    # -- rules ----------------------------------------------------------------

    def _replacements(self, left, right):
        """Terms replacing the out-of-order adjacent pair (left, right).

        Cached, and already stripped of terms that are exactly zero
        (vanishing scalar factors or operators with zero symbols).
        """
        cached = self._rule_cache.get((left, right))
        if cached is None:
            cached = tuple(
                (factor, middle)
                for factor, middle in self._build_replacements(left, right)
                if factor != 0
                and not any(self.symbols.is_zero(sid) for _, sid in middle)
            )
            self._rule_cache[(left, right)] = cached
        return cached

    def _build_replacements(self, left, right):
        kind_a, sym_a = left
        kind_b, sym_b = right
        syms = self.symbols
        table = self.table
        swap = (right, left)
        if kind_a == kind_b:
            return [(1.0 + 0j, swap)]
        pair = (kind_a, kind_b)
        if pair == (ANNIHILATION, CREATION):
            scalar = (
                table.pair_scalar * table.gamma0 * syms.pairing(sym_a, sym_b)
            )
            product = syms.mul(syms.star(sym_a), sym_b)
            return [
                (1.0 + 0j, swap),
                (scalar, ()),
                (table.pair_number + 0j, ((NUMBER, product),)),
            ]
        if pair == (NUMBER, CREATION):
            product = syms.mul(sym_a, sym_b)
            return [
                (1.0 + 0j, swap),
                (table.number_shift + 0j, ((CREATION, product),)),
            ]
        if pair == (ANNIHILATION, NUMBER):
            product = syms.mul(sym_a, syms.star(sym_b))
            return [
                (1.0 + 0j, swap),
                (table.number_shift + 0j, ((ANNIHILATION, product),)),
            ]
        if pair == (LINEAR_ANNIHILATION, LINEAR_CREATION):
            return [
                (1.0 + 0j, swap),
                (table.linear_pair * syms.pairing(sym_a, sym_b), ()),
            ]
        if pair == (LINEAR_ANNIHILATION, CREATION):
            product = syms.mul(syms.star(sym_a), sym_b)
            return [
                (1.0 + 0j, swap),
                (table.mixed_shift + 0j, ((LINEAR_CREATION, product),)),
            ]
        if pair == (ANNIHILATION, LINEAR_CREATION):
            product = syms.mul(sym_a, syms.star(sym_b))
            return [
                (1.0 + 0j, swap),
                (table.mixed_shift + 0j, ((LINEAR_ANNIHILATION, product),)),
            ]
        if pair in (
            (LINEAR_CREATION, CREATION),
            (ANNIHILATION, LINEAR_ANNIHILATION),
        ):
            return [(1.0 + 0j, swap)]
        raise UnsupportedRelationError(
            "no relation for the pair (%s, %s)" % (kind_a, kind_b)
        )

    # -- normal ordering ------------------------------------------------------

    def normal_order(
        self, word, coefficient=1.0, strategy="leftmost", rng=None, max_steps=None
    ):
        word = tuple((kind, sid) for kind, sid in word)
        if len(word) > MAX_WORD_LENGTH:
            raise ValueError("word length capped at %d" % MAX_WORD_LENGTH)
        for kind, sid in word:
            if kind not in _RANK:
                raise ValueError("unknown operator kind %r" % (kind,))
        if strategy == "random" and rng is None:
            raise ValueError("the random strategy needs an rng")
        if max_steps is None:
            max_steps = 4 ** max(len(word), 1)
        if coefficient == 0 or any(self.symbols.is_zero(s) for _, s in word):
            return NormalForm(terms={}, steps=0)
        terms = {}
        steps = 0
        # pending maps word -> (accumulated coefficient, scan hint); words
        # reachable along several reduction paths are processed once per
        # visit with their merged coefficient, FIFO for determinism
        pending = {word: (complex(coefficient), 0)}
        queue = deque((word,))
        leftmost = strategy == "leftmost"
        while queue:
            current = queue.popleft()
            entry = pending.pop(current, None)
            if entry is None:
                continue
            coeff, hint = entry
            if coeff == 0:
                continue
            position = self._find_position(current, hint, strategy, rng)
            if position is None:
                terms[current] = terms.get(current, 0j) + coeff
                continue
            steps += 1
            if steps > max_steps:
                raise RewriteBudgetError(
                    "exceeded %d rewrite steps on a word of length %d"
                    % (max_steps, len(word))
                )
            prefix = current[:position]
            suffix = current[position + 2 :]
            new_hint = position - 1 if leftmost and position > 0 else 0
            for factor, middle in self._replacements(
                current[position], current[position + 1]
            ):
                new_word = prefix + middle + suffix
                previous = pending.get(new_word)
                if previous is None:
                    pending[new_word] = (coeff * factor, new_hint)
                    queue.append(new_word)
                else:
                    pending[new_word] = (
                        previous[0] + coeff * factor,
                        new_hint if new_hint < previous[1] else previous[1],
                    )
        return NormalForm(
            terms={w: c for w, c in terms.items() if c != 0}, steps=steps
        )

    def _find_position(self, word, hint, strategy, rng):
        rank = _RANK
        keys = self.symbols._keys
        candidates = []
        for position in range(hint, len(word) - 1):
            kind_a, sym_a = word[position]
            kind_b, sym_b = word[position + 1]
            if rank[kind_a] > rank[kind_b] or (
                kind_a == kind_b and keys[sym_a] > keys[sym_b]
            ):
                if strategy == "leftmost":
                    return position
                candidates.append(position)
        if not candidates:
            return None
        if strategy == "rightmost":
            return candidates[-1]
        if strategy == "random":
            return candidates[int(rng.integers(len(candidates)))]
        raise ValueError("unknown strategy %r" % (strategy,))

    def vacuum_moment(self, word, **kwargs):
        """Scalar term of the normal form: the vacuum state of the word."""
        return self.normal_order(word, **kwargs).coefficient(())

    # -- quadratic fields -----------------------------------------------------

    def quadratic_field(self, sid, s=2.0):
        """Terms of the self-adjoint quadratic field: creation plus
        annihilation of the starred symbol plus s times the number."""
        return [
            (1.0 + 0j, ((ANNIHILATION, self.symbols.star(sid)),)),
            (1.0 + 0j, ((CREATION, sid),)),
            (complex(s), ((NUMBER, sid),)),
        ]

    def field_moment(self, sids, s=2.0):
        """Vacuum moment of a product of quadratic fields."""
        key = (complex(s), tuple(sids))
        if key in self._moment_cache:
            return self._moment_cache[key]
        factors = [self.quadratic_field(sid, s) for sid in sids]
        total = 0j
        stack = [(1.0 + 0j, ())]
        for factor in factors:
            stack = [
                (coeff * fc, word + fw) for coeff, word in stack for fc, fw in factor
            ]
        for coeff, word in stack:
            if coeff == 0:
                continue
            total += coeff * self.vacuum_moment(word)
        self._moment_cache[key] = total
        return total

    @staticmethod
    def _product_terms(left_terms, right_terms):
        return [
            (lc * rc, lw + rw) for lc, lw in left_terms for rc, rw in right_terms
        ]

    def _adjoint_terms(self, terms):
        flips = {
            CREATION: ANNIHILATION,
            ANNIHILATION: CREATION,
            LINEAR_CREATION: LINEAR_ANNIHILATION,
            LINEAR_ANNIHILATION: LINEAR_CREATION,
        }
        out = []
        for coeff, word in terms:
            flipped = tuple(
                (flips.get(kind, kind), self.symbols.star(sid))
                for kind, sid in reversed(word)
            )
            out.append((np.conj(coeff), flipped))
        return out

    def _combination_residual(self, terms):
        merged = {}
        for coeff, word in terms:
            if coeff == 0:
                continue
            form = self.normal_order(word)
            for w, c in form.terms.items():
                merged[w] = merged.get(w, 0j) + coeff * c
        if not merged:
            return 0.0
        return max(abs(value) for value in merged.values())

    # -- checks ---------------------------------------------------------------

    def check_commuting_family(self, s, phi, psi, tol=1e-12):
        """Two quadratic fields commute identically, and the field of a
        real symbol is normal."""
        sid_phi = self.symbols.intern(phi)
        sid_psi = self.symbols.intern(psi)
        left = self.quadratic_field(sid_phi, s)
        right = self.quadratic_field(sid_psi, s)
        bracket = self._product_terms(left, right) + [
            (-c, w) for c, w in self._product_terms(right, left)
        ]
        commute = self._combination_residual(bracket)
        real_phi = np.asarray(phi).real.astype(complex)
        sid_real = self.symbols.intern(real_phi)
        real_field = self.quadratic_field(sid_real, s)
        adjoint = self._adjoint_terms(real_field)
        normal = self._product_terms(real_field, adjoint) + [
            (-c, w) for c, w in self._product_terms(adjoint, real_field)
        ]
        normality = self._combination_residual(normal)
        return [
            residual_record(
                "classical.commuting_family",
                "commuting family of quadratic field operators",
                commute,
                tol,
                notes="bracket of two quadratic fields, s=%g" % s,
            ),
            residual_record(
                "classical.field_normality",
                "commuting family of quadratic field operators",
                normality,
                tol,
                notes="field of a real symbol commutes with its adjoint",
            ),
        ]

    def check_factorization(self, s, phi1, phi2, powers, tol=1e-10):
        """Moments of fields with disjoint supports factor."""
        p, q = powers
        if p + q > 8:
            raise ValueError("total power capped at 8")
        arr1 = np.asarray(phi1, dtype=complex)
        arr2 = np.asarray(phi2, dtype=complex)
        if np.any((np.abs(arr1) > 0) & (np.abs(arr2) > 0)):
            raise ValueError("factors must have disjoint supports")
        sid1 = self.symbols.intern(arr1)
        sid2 = self.symbols.intern(arr2)
        joint = self.field_moment((sid1,) * p + (sid2,) * q, s)
        separate = self.field_moment((sid1,) * p, s) * self.field_moment(
            (sid2,) * q, s
        )
        residual = abs(joint - separate) / max(abs(separate), 1.0)
        return [
            residual_record(
                "classical.factorization_p%d_q%d" % (p, q),
                "independence of field functionals on disjoint sets",
                residual,
                tol,
                notes="joint %.6g vs product %.6g, s=%g"
                % (joint.real, separate.real, s),
            )
        ]


def make_function_engine(weights, table=None):
    """Engine over a function algebra with the given point weights."""
    return RewriteEngine(SymbolTable(FunctionAlgebra(weights)), table)


def gamma_moment_check(gamma0, t, m_max=6, table=None, tol=1e-9):
    """Moments of the shifted, scaled quadratic field of an indicator.

    With the abstract relation table, X = (1/gamma0) Q + t has the raw
    moments of a gamma law with shape gamma0*t/2 and scale 2/gamma0 (the
    chi-squared law when gamma0 = t = 1).  The variance-matched scaling
    1/gamma0 is asserted; the literal scaling gamma0*Q + t printed in the
    source derivation is evaluated too and reported, because the two only
    agree at gamma0 = 1.
    """
    if m_max > 6:
        raise ValueError("moment order capped at 6")
    if table is None:
        table = RelationTable(gamma0=gamma0)
    engine = make_function_engine([float(t)], table)
    chi = engine.symbols.intern(np.ones(1))
    alpha = gamma0 * t / 2.0
    theta = 2.0 / gamma0
    field_moments = [engine.field_moment((chi,) * j, 2.0) for j in range(m_max + 1)]

    def shifted_moment(scale, m):
        return sum(
            math.comb(m, j) * scale**j * t ** (m - j) * field_moments[j]
            for j in range(m + 1)
        )

    def gamma_raw_moment(m):
        return theta**m * math.prod(alpha + i for i in range(m))

    worst_matched = 0.0
    worst_literal = 0.0
    anchor = None
    for m in range(1, m_max + 1):
        target = gamma_raw_moment(m)
        matched = shifted_moment(1.0 / gamma0, m)
        literal = shifted_moment(gamma0, m)
        scale = max(abs(target), 1.0)
        worst_matched = max(worst_matched, abs(matched - target) / scale)
        worst_literal = max(worst_literal, abs(literal - target) / scale)
        if m == 3 and gamma0 == 1.0 and t == 1.0:
            anchor = matched
    records = [
        residual_record(
            "classical.gamma_moments",
            "gamma distribution of the quadratic field",
            worst_matched,
            tol,
            notes="variance-matched scaling, m<=%d, gamma0=%g, t=%g"
            % (m_max, gamma0, t),
        ),
        reported_record(
            "classical.gamma_literal_scaling",
            "gamma distribution of the quadratic field",
            measured=worst_literal,
            expected=0.0 if gamma0 == 1.0 else None,
            notes=(
                "worst relative gap of the literally printed scaling"
                " gamma0*Q+t; scalings coincide only at gamma0=1"
                " (variance-matched gap %.3e)" % worst_matched
            ),
        ),
    ]
    if anchor is not None:
        records.append(
            residual_record(
                "classical.chi_squared_third_moment",
                "gamma distribution of the quadratic field",
                abs(anchor - 15.0),
                0.0,
                notes="third raw moment of the unit chi-squared law",
            )
        )
    return records


def nogo_certificate(gamma0, l, c):
    """Quadratic form certifying the linear/quadratic obstruction.

    Returns (value, minimizer, min_value) for the squared length of
    (c a* a* + b*) applied to the vacuum over a single cell of measure l:
    value = 2 c**2 l**2 + 4 c l + 2 gamma0 l, minimized at c = -1/l with
    minimum 2 gamma0 l - 2, which is negative exactly when l < 1/gamma0.
    """
    if l <= 0 or gamma0 <= 0:
        raise ValueError("the cell measure and gamma0 must be positive")
    value = 2.0 * c**2 * l**2 + 4.0 * c * l + 2.0 * gamma0 * l
    return value, -1.0 / l, 2.0 * gamma0 * l - 2.0


def _nogo_symbolic(gamma0, l, c):
    engine = make_function_engine([float(l)], RelationTable(gamma0=gamma0))
    chi = engine.symbols.intern(np.ones(1))
    a = (LINEAR_ANNIHILATION, chi)
    a_star = (LINEAR_CREATION, chi)
    b = (ANNIHILATION, chi)
    b_star = (CREATION, chi)
    return (
        c**2 * engine.vacuum_moment((a, a, a_star, a_star))
        + c * engine.vacuum_moment((a, a, b_star))
        + c * engine.vacuum_moment((b, a_star, a_star))
        + engine.vacuum_moment((b, b_star))
    ).real


def check_nogo(gamma0, l, c, tol=1e-12):
    """Closed form against the symbolic evaluation, plus the sign law."""
    value, minimizer, min_value = nogo_certificate(gamma0, l, c)
    symbolic = _nogo_symbolic(gamma0, l, c)
    symbolic_min = _nogo_symbolic(gamma0, l, minimizer)
    sign_ok = (min_value < 0) == (l < 1.0 / gamma0)
    return [
        residual_record(
            "nogo.closed_vs_symbolic",
            "obstruction to a joint linear and quadratic representation",
            abs(value - symbolic),
            tol,
            notes="gamma0=%g, l=%g, c=%g, value=%.12g" % (gamma0, l, c, value),
        ),
        residual_record(
            "nogo.minimum_value",
            "obstruction to a joint linear and quadratic representation",
            abs(symbolic_min - min_value),
            tol,
            notes="minimizer c*=%.12g, minimum %.12g" % (minimizer, min_value),
        ),
        residual_record(
            "nogo.negativity_sign",
            "obstruction to a joint linear and quadratic representation",
            0.0 if sign_ok else 1.0,
            0.0,
            notes="minimum negative iff the cell measure is below 1/gamma0",
        ),
    ]


def check_nogo_grid(rng, pairs=20, tol=1e-12):
    """Sign of the certified minimum across a grid of (gamma0, l) pairs."""
    worst = 0.0
    failures = 0
    for _ in range(pairs):
        gamma0 = 2.0 ** rng.integers(-2, 3)
        l = 2.0 ** rng.integers(-3, 3)
        if abs(l - 1.0 / gamma0) < 1e-9:
            l *= 0.5
        _, minimizer, min_value = nogo_certificate(gamma0, l, 0.0)
        symbolic_min = _nogo_symbolic(gamma0, l, minimizer)
        worst = max(worst, abs(symbolic_min - min_value))
        if (min_value < 0) != (l < 1.0 / gamma0):
            failures += 1
    records = [
        residual_record(
            "nogo.grid_closed_vs_symbolic",
            "obstruction to a joint linear and quadratic representation",
            worst,
            tol,
            notes="%d (gamma0, l) pairs" % pairs,
        ),
        residual_record(
            "nogo.grid_sign",
            "obstruction to a joint linear and quadratic representation",
            float(failures),
            0.0,
            notes="sign of the minimum against the threshold 1/gamma0",
        ),
    ]
    return records


def _random_dyadic_weights(rng, dim):
    return (1.0 + rng.integers(0, 4, size=dim)) / 4.0


def check_termination(rng, words=10000, max_len=10, dim=2):
    """Step counts stay within the 4**length budget on random words."""
    weights = _random_dyadic_weights(rng, dim)
    engine = make_function_engine(weights)
    algebra = engine.symbols.algebra
    pool = [
        engine.symbols.intern(random_element(algebra, rng, dyadic=True))
        for _ in range(4)
    ]
    kinds = (CREATION, NUMBER, ANNIHILATION)
    worst_ratio = 0.0
    for _ in range(words):
        length = 1 + int(rng.integers(max_len))
        word = tuple(
            (kinds[int(rng.integers(3))], pool[int(rng.integers(len(pool)))])
            for _ in range(length)
        )
        form = engine.normal_order(word)
        worst_ratio = max(worst_ratio, form.steps / 4.0**length)
    return [
        residual_record(
            "classical.rewrite_termination",
            "terminating normal-order rewriting",
            worst_ratio,
            1.0,
            notes="worst steps/4**length over %d words of length <= %d"
            % (words, max_len),
        )
    ]


def check_strategy_independence(rng, trials=10, max_len=6, dim=2, tol=1e-12):
    """Twenty rule-application orders produce one normal form."""
    weights = _random_dyadic_weights(rng, dim)
    engine = make_function_engine(weights)
    algebra = engine.symbols.algebra
    pool = [
        engine.symbols.intern(random_element(algebra, rng, dyadic=True))
        for _ in range(3)
    ]
    kinds = (CREATION, NUMBER, ANNIHILATION)
    worst = 0.0
    for _ in range(trials):
        length = 2 + int(rng.integers(max_len - 1))
        word = tuple(
            (kinds[int(rng.integers(3))], pool[int(rng.integers(len(pool)))])
            for _ in range(length)
        )
        baseline = engine.normal_order(word, strategy="leftmost").terms
        others = [engine.normal_order(word, strategy="rightmost").terms]
        for _ in range(18):
            others.append(
                engine.normal_order(word, strategy="random", rng=rng).terms
            )
        for terms in others:
            keys = set(baseline) | set(terms)
            for key in keys:
                worst = max(
                    worst, abs(baseline.get(key, 0j) - terms.get(key, 0j))
                )
    return [
        residual_record(
            "classical.rewrite_strategy_independence",
            "order-independent normal forms",
            worst,
            tol,
            notes="20 rule orders per word, %d words" % trials,
        )
    ]


def check_engine_vs_operators(rng, trials=30, max_len=6, dim=2, tol=1e-9):
    """Engine vacuum moments against the concrete quadratic operators.

    The table uses the measured number/creation coefficient 1, because
    that is what the concrete operators satisfy.
    """
    weights = _random_dyadic_weights(rng, dim)
    gamma0 = 0.5 + 0.5 * float(rng.integers(1, 4))
    algebra = FunctionAlgebra(weights)
    space = BosonicSpace(algebra, max_grade=4, gamma0=gamma0)
    engine = RewriteEngine(
        SymbolTable(algebra), RelationTable.from_measured(gamma0)
    )
    kinds = (CREATION, NUMBER, ANNIHILATION)
    worst = 0.0
    for _ in range(trials):
        length = 1 + int(rng.integers(max_len))
        elements = [random_element(algebra, rng) for _ in range(length)]
        word_kinds = [kinds[int(rng.integers(3))] for _ in range(length)]
        concrete = space.vacuum_expectation(list(zip(word_kinds, elements)))
        symbolic = engine.vacuum_moment(
            tuple(
                (kind, engine.symbols.intern(element))
                for kind, element in zip(word_kinds, elements)
            )
        )
        scale = max(abs(concrete), 1.0)
        worst = max(worst, abs(symbolic - concrete) / scale)
    return [
        residual_record(
            "classical.engine_vs_operators",
            "normal form against the concrete operator representation",
            worst,
            tol,
            notes="measured-coefficient table, %d words of length <= %d,"
            " gamma0=%g" % (trials, max_len, gamma0),
        )
    ]
