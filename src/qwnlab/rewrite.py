"""Symbolic normal ordering for the abstract white-noise relation algebras.

Words over the five generator kinds (quadratic creation, number and
annihilation, plus linear creation and annihilation) are rewritten into
normal form: creators leftmost, then number operators, then annihilators,
with runs of one kind sorted canonically by symbol.  Every rewrite rule
swaps one out-of-order adjacent pair and adds lower-complexity terms, so
rewriting terminates; a step budget of 4**length is enforced as a belt.

One breadth-first core does all rewriting and queues only what its caller
reads: every word for a normal form, the words that are not normal for a
step count, and the live words for the vacuum moment of a quadratic word.
A word is live if it is empty, or starts with an annihilator and ends with
a creator.  No rule makes a word live that was not: a rule at the first
pair yields a word starting with an annihilator only if its left letter is
one, at the last pair a word ending with a creator only if its right
letter is one, and only (b, b*) yields a scalar.  So every descendant of a
word that is not live is a nonempty word that is not live, and leaving
those words out changes no vacuum moment, bit for bit.

Unlike the concrete Fock modules, the relations here are one table of
abstract coefficients (2, 4, 2) at a given gamma0.  The concrete quadratic
operators measure the number/creation coefficient 1, not 2, yet they obey
the same table: with B = sqrt2 b and N = 2n, their relations at gamma0 are
the table's at 2 gamma0.  ``measured_coefficient`` maps a normal form
computed at 2 gamma0 back to the concrete operators, exactly.

The backing algebra must be commutative: canonical sorting of number-run
symbols silently assumes symbols commute, and everything downstream here
(field moments, classical laws, the obstruction certificate) lives over
function algebras anyway.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .algebra import FunctionAlgebra, random_element, random_weights
from .bosonic import ANNIHILATION, CREATION, NUMBER, BosonicSpace
from .report import reported_record, residual_record

LINEAR_CREATION = "a*"
LINEAR_ANNIHILATION = "a"

KINDS = (CREATION, LINEAR_CREATION, NUMBER, LINEAR_ANNIHILATION, ANNIHILATION)
_RANK = {kind: index for index, kind in enumerate(KINDS)}
_STRATEGIES = ("leftmost", "rightmost", "random")
_QUADRATIC = (CREATION, NUMBER, ANNIHILATION)

# What a caller of the rewrite core reads, which decides the words it
# queues: the normal form, the step count, or the vacuum moment.
_READS_FORM, _READS_STEPS, _READS_VACUUM = "form", "steps", "vacuum"

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


# Coefficients of the commutation rules.  PAIR_SCALAR and PAIR_NUMBER are
# the scalar and number coefficients in the annihilation/creation rule (the
# scalar one is also multiplied by the engine's gamma0); NUMBER_SHIFT is the
# coefficient kappa in the number/creation rule and its adjoint;
# LINEAR_PAIR is the scalar in the linear-sector rule; MIXED_SHIFT is the
# coefficient in both mixed linear/quadratic rules.
PAIR_SCALAR = 2.0
PAIR_NUMBER = 4.0
NUMBER_SHIFT = 2.0
LINEAR_PAIR = 1.0
MIXED_SHIFT = 2.0


@dataclass
class NormalForm:
    """Linear combination of normally ordered words, plus the step count."""

    terms: dict = field(default_factory=dict)
    steps: int = 0

    def coefficient(self, word=()):
        return self.terms.get(tuple(word), 0j)


class RewriteEngine:
    """Normal-ordering engine over an interning symbol table."""

    def __init__(self, symbols, gamma0=1.0):
        self.symbols = symbols
        self.gamma0 = gamma0
        self._moment_cache = {}
        # The rewrite core works on words of int codes, one per letter
        # (kind, sid).  Per code: the letter; its order key, the rank byte
        # then the symbol key, which compares as the pair (rank, symbol
        # key) would, so a pair (a, b) is out of order iff
        # _order[a] > _order[b]; the rules _rules[a][b] with it on the
        # left; and whether it is a quadratic annihilator (_opens) or
        # creator (_closes).
        self._codes = {}
        self._letters = []
        self._order = []
        self._rules = []
        self._opens = []
        self._closes = []

    # -- rules ----------------------------------------------------------------

    def _code(self, letter):
        code = self._codes.get(letter)
        if code is None:
            code = self._codes[letter] = len(self._letters)
            self._letters.append(letter)
            rank = bytes((_RANK[letter[0]],))
            self._order.append(rank + self.symbols.sort_key(letter[1]))
            self._rules.append({})
            self._opens.append(letter[0] == ANNIHILATION)
            self._closes.append(letter[0] == CREATION)
        return code

    def _rule(self, a, b):
        """Coded terms replacing the out-of-order pair of codes (a, b).

        Cached in ``_rules[a][b]``, and already stripped of terms that are
        exactly zero (vanishing scalar factors or operators with zero
        symbols).
        """
        letters = self._letters
        is_zero = self.symbols.is_zero
        rule = tuple(
            (factor, tuple(self._code(letter) for letter in middle))
            for factor, middle in self._build_replacements(letters[a], letters[b])
            if factor != 0 and not any(is_zero(sid) for _, sid in middle)
        )
        self._rules[a][b] = rule
        return rule

    def _build_replacements(self, left, right):
        """Terms replacing the out-of-order pair of letters (left, right):
        the swapped pair with factor 1, then the shorter terms of its rule."""
        kind_a, sym_a = left
        kind_b, sym_b = right
        syms = self.symbols
        shift = NUMBER_SHIFT + 0j
        pair = (kind_a, kind_b)
        if kind_a == kind_b or pair in (
            (LINEAR_CREATION, CREATION),
            (ANNIHILATION, LINEAR_ANNIHILATION),
        ):
            lower = []
        elif pair == (ANNIHILATION, CREATION):
            scalar = PAIR_SCALAR * self.gamma0 * syms.pairing(sym_a, sym_b)
            product = syms.mul(syms.star(sym_a), sym_b)
            lower = [(scalar, ()), (PAIR_NUMBER + 0j, ((NUMBER, product),))]
        elif pair == (NUMBER, CREATION):
            lower = [(shift, ((CREATION, syms.mul(sym_a, sym_b)),))]
        elif pair == (ANNIHILATION, NUMBER):
            lower = [(shift, ((ANNIHILATION, syms.mul(sym_a, syms.star(sym_b))),))]
        elif pair == (LINEAR_ANNIHILATION, LINEAR_CREATION):
            lower = [(LINEAR_PAIR * syms.pairing(sym_a, sym_b), ())]
        elif pair == (LINEAR_ANNIHILATION, CREATION):
            product = syms.mul(syms.star(sym_a), sym_b)
            lower = [(MIXED_SHIFT + 0j, ((LINEAR_CREATION, product),))]
        elif pair == (ANNIHILATION, LINEAR_CREATION):
            product = syms.mul(sym_a, syms.star(sym_b))
            lower = [(MIXED_SHIFT + 0j, ((LINEAR_ANNIHILATION, product),))]
        else:
            raise UnsupportedRelationError(
                "no relation for the pair (%s, %s)" % (kind_a, kind_b)
            )
        return [(1.0 + 0j, (right, left))] + lower

    # -- normal ordering ------------------------------------------------------

    def normal_order(
        self, word, coefficient=1.0, strategy="leftmost", rng=None, max_steps=None
    ):
        """Normal form of ``coefficient`` times ``word``, with its step count.

        Breadth first: words are popped in FIFO order, and each one that is
        not normal takes one step, replacing its chosen out-of-order pair by
        the terms of its rule.  A word reached again while it waits merges
        into one entry, coefficients summed; an entry summing to exactly 0
        is dropped without a step.  More than ``max_steps`` steps (default
        4**length) raise ``RewriteBudgetError``.  Under ``leftmost`` the
        pair is the leftmost descent, a function of the word alone.
        """
        if strategy not in _STRATEGIES:
            raise ValueError("unknown strategy %r" % (strategy,))
        if strategy == "random" and rng is None:
            raise ValueError("the random strategy needs an rng")
        start = self._coded(word)
        if coefficient == 0 or start is None:
            return NormalForm(terms={}, steps=0)
        steps, terms = self._rewrite(
            start, _READS_FORM, coefficient, strategy, rng, max_steps
        )
        letters = self._letters
        terms = {tuple(letters[c] for c in w): x for w, x in terms.items() if x != 0}
        return NormalForm(terms=terms, steps=steps)

    def count_steps(self, word):
        """``normal_order(word).steps``, without building the normal form."""
        start = self._coded(word)
        if start is None:
            return 0
        return self._rewrite(start, _READS_STEPS)[0]

    def vacuum_moment(self, word):
        """Scalar term of the normal form: the vacuum state of the word.

        On a word of quadratic letters alone (b*, n, b) the rewrite queues
        only live words: the empty word, and words that start with an
        annihilator b and end with a creator b*.  No rule makes a word live
        that was not (see the module docstring), so the scalar term is the
        same sum, added in the same order, as
        ``normal_order(word).coefficient(())``, in no more steps; the
        4**length budget counts those steps.  A word with a linear letter
        takes the full rewrite, so an unsupported pair still raises.
        """
        start = self._coded(word)
        if start is None:
            return 0j
        if any(self._letters[c][0] not in _QUADRATIC for c in start):
            return self.normal_order(word).coefficient(())
        scalar = self._rewrite(start, _READS_VACUUM)[1].get((), 0j)
        # as in normal_order, a scalar summing to zero (of either sign) is 0j
        return scalar if scalar != 0 else 0j

    def _coded(self, word):
        """Letter codes of a checked word, or None if a symbol is zero."""
        word = tuple((kind, sid) for kind, sid in word)
        if len(word) > MAX_WORD_LENGTH:
            raise ValueError("word length capped at %d" % MAX_WORD_LENGTH)
        for kind, sid in word:
            if kind not in _RANK:
                raise ValueError("unknown operator kind %r" % (kind,))
        if any(self.symbols.is_zero(sid) for _, sid in word):
            return None
        return tuple(self._code(letter) for letter in word)

    def _rewrite(
        self,
        start,
        reads,
        coefficient=1.0,
        strategy="leftmost",
        rng=None,
        max_steps=None,
    ):
        """``(steps, terms)`` of the rewrite of the coded word ``start``,
        ``terms`` mapping the normal words popped to their coefficients.

        ``reads`` says what the caller reads, and with it which words are
        queued: every word for the normal form (``_READS_FORM``); under
        leftmost only words that are not normal for the step count
        (``_READS_STEPS``), since a normal word has no descendants and costs
        no step; only live words, the start included, for the vacuum moment
        of a quadratic word (``_READS_VACUUM``).  More than ``max_steps``
        steps (default 4**length) raise ``RewriteBudgetError``.
        """
        if max_steps is None:
            max_steps = 4 ** max(len(start), 1)
        order, rules = self._order, self._rules
        opens, closes = self._opens, self._closes
        leftmost = strategy == "leftmost"
        counting = reads == _READS_STEPS
        vacuum = reads == _READS_VACUUM
        terms = {}
        if vacuum and start and not (opens[start[0]] and closes[start[-1]]):
            return 0, terms
        # pending maps a queued word to its accumulated coefficient; spots
        # holds, beside each queued word, its leftmost descent (>= len - 1
        # if normal); other strategies choose at pop
        steps, p, last = 0, 0, len(start) - 1
        while leftmost and p < last and order[start[p]] <= order[start[p + 1]]:
            p += 1
        pending = {start: complex(coefficient)}
        queue, spots = deque((start,)), deque((p,))
        popleft, append = queue.popleft, queue.append
        pop_spot, add_spot = spots.popleft, spots.append
        take, setdefault = pending.pop, pending.setdefault
        while queue:
            w = popleft()
            position = pop_spot()
            coeff = take(w)
            if coeff == 0:
                continue
            last = len(w) - 1
            if not leftmost:
                descents = [p for p in range(last) if order[w[p]] > order[w[p + 1]]]
                if not descents:
                    position = last
                elif strategy == "rightmost":
                    position = descents[-1]
                else:
                    position = descents[int(rng.integers(len(descents)))]
            if position >= last:
                terms[w] = terms.get(w, 0j) + coeff
                continue
            steps += 1
            if steps > max_steps:
                raise RewriteBudgetError(
                    "exceeded %d rewrite steps on a word of length %d"
                    % (max_steps, len(start))
                )
            a, b = w[position], w[position + 1]
            rule = rules[a].get(b) or self._rule(a, b)
            prefix, suffix = w[:position], w[position + 2 :]
            # the pairs of the prefix stay in order, so a new word's
            # leftmost descent is at position - 1 or later
            hint = position - 1 if position > 0 else 0
            for factor, middle in rule:
                new = prefix + middle + suffix
                if vacuum and new and not (opens[new[0]] and closes[new[-1]]):
                    continue
                p = hint
                if leftmost:
                    end = len(new) - 1
                    while p < end and order[new[p]] <= order[new[p + 1]]:
                        p += 1
                    if counting and p >= end:
                        continue
                # setdefault hands back the fresh term itself only if the
                # word was not waiting; a waiting word keeps its spot
                term = coeff * factor
                previous = setdefault(new, term)
                if previous is not term:
                    pending[new] = previous + term
                    continue
                append(new)
                add_spot(p)
        return steps, terms

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


def make_function_engine(weights, gamma0=1.0):
    """Engine over a function algebra with the given point weights."""
    return RewriteEngine(SymbolTable(FunctionAlgebra(weights)), gamma0)


def measured_coefficient(coeff, word, term=()):
    """``coeff`` of ``term`` in the normal form of the quadratic ``word`` at
    2 gamma0, mapped to the concrete operators at gamma0.

    As B = sqrt2 b and N = 2n those obey the table at 2 gamma0, so a word w
    of them is 2**e(w) times the word of B, B* and N, where e(w) is
    -(#b + #b*)/2 - #n, and ``coeff`` gains 2**(e(word) - e(term)): a power
    of two, since every rule changes #b + #b* by 0 or 2, so the map is
    exact.  The default ``term`` maps the vacuum moment.
    """
    size = {CREATION: 1, NUMBER: 2, ANNIHILATION: 1}
    twice = sum(size[k] for k, _ in term) - sum(size[k] for k, _ in word)
    scale = 2.0 ** (twice / 2)
    return complex(coeff.real * scale, coeff.imag * scale)


def check_measured_table_map(gamma0=1.0, tol=1e-9):
    """The concrete operators obey the abstract table at 2 gamma0, on every
    live quadratic word of length <= 4, with no random draw.

    The letters are b*, n and b at the point indicators of the dyadic
    two-point algebra with weights (1/2, 1/4).  Each word's vacuum moment
    in the table at 2 gamma0, mapped by ``measured_coefficient``, is
    compared with ``BosonicSpace.vacuum_expectation`` at gamma0.  A word
    that is not live has vacuum moment 0 on both sides (see the module
    docstring), so the live words are every word with a moment to map, and
    each kind's weight in the map shows in some of them.
    """
    algebra = FunctionAlgebra([0.5, 0.25])
    space = BosonicSpace(algebra, max_grade=2, gamma0=gamma0)
    engine = RewriteEngine(SymbolTable(algebra), 2.0 * gamma0)
    points = algebra.basis()
    sids = [engine.symbols.intern(point) for point in points]
    letters = [(kind, p) for kind in _QUADRATIC for p in range(len(points))]
    worst, count = 0.0, 0
    for length in range(5):
        for word in itertools.product(letters, repeat=length):
            if word and (word[0][0] != ANNIHILATION or word[-1][0] != CREATION):
                continue
            concrete = space.vacuum_expectation([(k, points[p]) for k, p in word])
            coded = tuple((k, sids[p]) for k, p in word)
            symbolic = measured_coefficient(engine.vacuum_moment(coded), coded)
            worst = max(worst, abs(symbolic - concrete) / max(abs(concrete), 1.0))
            count += 1
    return [
        residual_record(
            "classical.measured_table_map",
            "the concrete quadratic operators obey the relation table at 2 gamma0",
            worst,
            tol,
            notes="%d live quadratic words of length <= 4 at the point"
            " indicators of weights (0.5, 0.25), gamma0=%g" % (count, gamma0),
        )
    ]


def gamma_moment_check(gamma0, t, m_max=6, tol=1e-9):
    """Moments of the shifted, scaled quadratic field of an indicator.

    With the abstract relation table, X = (1/gamma0) Q + t has the raw
    moments of a gamma law with shape gamma0*t/2 and scale 2/gamma0 (the
    chi-squared law when gamma0 = t = 1).  The variance-matched scaling
    1/gamma0 is asserted; the literal scaling gamma0*Q + t printed in the
    source derivation is evaluated too and reported, because the two only
    agree at gamma0 = 1.  Both record names end in ``[gamma0=..,t=..]``,
    so each (gamma0, t) gets its own pair of records in a report.
    """
    if m_max > 6:
        raise ValueError("moment order capped at 6")
    engine = make_function_engine([float(t)], gamma0)
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
    suffix = "[gamma0=%g,t=%g]" % (gamma0, t)
    records = [
        residual_record(
            "classical.gamma_moments" + suffix,
            "gamma distribution of the quadratic field",
            worst_matched,
            tol,
            notes="variance-matched scaling, m<=%d, gamma0=%g, t=%g"
            % (m_max, gamma0, t),
        ),
        reported_record(
            "classical.gamma_literal_scaling" + suffix,
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
    engine = make_function_engine([float(l)], gamma0)
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


# Words per task of the termination sweep, and the most worker processes
# one sweep starts.  Word costs vary by orders of magnitude with length, so
# many small chunks, handed out as workers come free, keep the load even.
_SWEEP_CHUNK = 50
_MAX_SWEEP_WORKERS = 8

# (engine, words) of the sweep, installed in each worker process only.
_worker_sweep = None


def _worst_ratio(engine, words):
    """Largest steps/4**length over ``words``, counted by ``count_steps``."""
    return max((engine.count_steps(w) / 4.0 ** len(w) for w in words), default=0.0)


def _install_sweep(engine, words):
    global _worker_sweep
    _worker_sweep = (engine, words)


def _worst_ratio_of_chunk(start):
    engine, words = _worker_sweep
    return _worst_ratio(engine, words[start : start + _SWEEP_CHUNK])


def _sweep_workers(chunks):
    """Worker processes for a sweep of ``chunks`` chunks: one per usable
    CPU, at most one per chunk and at most ``_MAX_SWEEP_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, chunks, _MAX_SWEEP_WORKERS))


def _sweep(engine, words):
    """Worst steps/4**length over ``words``, fanned out over worker processes.

    Step counts depend on the word alone, and ``max`` is exact in any order,
    so the result does not depend on the worker count or the word order.
    Chunks are handed out longest words first, so the last chunks, taken
    while other workers finish, are the cheap ones.  Workers are forked:
    they inherit the engine and the word list, run only the pure-Python
    rewrite loop, and send back one float per chunk.
    """
    words = sorted(words, key=len, reverse=True)
    starts = range(0, len(words), _SWEEP_CHUNK)
    workers = _sweep_workers(len(starts))
    if workers > 1:
        # Imported here: the CLI's start-up time should not pay for them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_install_sweep,
                initargs=(engine, words),
            ) as pool:
                return max(pool.map(_worst_ratio_of_chunk, starts), default=0.0)
    return _worst_ratio(engine, words)


def check_termination(rng, words=10000, max_len=10, dim=2):
    """Step counts stay within the 4**length budget on random words.

    Every word is drawn before any is rewritten, so the draws taken from
    ``rng`` do not depend on how the sweep runs.
    """
    weights = random_weights(rng, dim)
    engine = make_function_engine(weights)
    algebra = engine.symbols.algebra
    pool = [
        engine.symbols.intern(random_element(algebra, rng, dyadic=True))
        for _ in range(4)
    ]
    kinds = (CREATION, NUMBER, ANNIHILATION)
    drawn = []
    for _ in range(words):
        length = 1 + int(rng.integers(max_len))
        drawn.append(
            tuple(
                (kinds[int(rng.integers(3))], pool[int(rng.integers(len(pool)))])
                for _ in range(length)
            )
        )
    return [
        residual_record(
            "classical.rewrite_termination",
            "terminating normal-order rewriting",
            _sweep(engine, drawn),
            1.0,
            notes="worst steps/4**length over %d words of length <= %d"
            % (words, max_len),
        )
    ]


def check_strategy_independence(rng, trials=10, max_len=6, dim=2, tol=1e-12):
    """Twenty rule-application orders produce one normal form."""
    weights = random_weights(rng, dim)
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

    The operators at gamma0 measure the number/creation coefficient 1; as
    B = sqrt2 b and N = 2n they obey the abstract table at 2 gamma0, so
    each moment is read there and mapped by ``measured_coefficient``.
    """
    weights = random_weights(rng, dim)
    gamma0 = 0.5 + 0.5 * float(rng.integers(1, 4))
    algebra = FunctionAlgebra(weights)
    space = BosonicSpace(algebra, max_grade=4, gamma0=gamma0)
    engine = RewriteEngine(SymbolTable(algebra), 2.0 * gamma0)
    kinds = (CREATION, NUMBER, ANNIHILATION)
    worst = 0.0
    for _ in range(trials):
        length = 1 + int(rng.integers(max_len))
        elements = [random_element(algebra, rng) for _ in range(length)]
        word_kinds = [kinds[int(rng.integers(3))] for _ in range(length)]
        concrete = space.vacuum_expectation(list(zip(word_kinds, elements)))
        word = tuple(
            (kind, engine.symbols.intern(element))
            for kind, element in zip(word_kinds, elements)
        )
        symbolic = measured_coefficient(engine.vacuum_moment(word), word)
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
