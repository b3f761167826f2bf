"""Graded state vectors and the shared scaffold of the Fock-space models.

A :class:`GradedVector` stores one flat complex coordinate block per grade
0..max_grade over a base space of dimension ``dim`` (grade k holds dim**k
coordinates; grade 0 is the scalar multiple of the vacuum).  The truncation
is a hard wall: any operation that would populate a grade beyond the cap
raises :class:`GradeOverflowError` instead of silently dropping weight.

:class:`GradedFockSpace` is the operator scaffolding the quadratic bosonic,
free and q-deformed spaces share: all three live on the same graded tensor
powers of a base algebra and differ only in the scalar product and in how
each operator acts on a block of columns of one grade (its kernel).  That
kernel is the only way the scaffold acts with an operator: an operator word
runs each letter's kernel on a column block, the identity or the columns a
check needs, which costs O(n w k D) for a block of width w in a grade of
size n = D**k where a dense product of operator matrices costs O(n**2 w).
An operator is linear in the coordinates of its symbol (annihilation
conjugate-linear, through the starred symbol), so the kernel's symbol
tensors are built at the basis elements of the algebra once per kind, and
each letter's are their weighted sum.  Operator norms and the adjointness
check go one step further: what they compute of an operator (its whitened
compression, or one side of the adjoint identity) is linear in it too, so
a check runs the kernels of the dim basis operators of a grade on the
compressed columns and applies the left factor of that fixed map to each.
An adjointness trial is a dim-term sum of this per-grade basis stack; the
norms of all trials come from one batched Lanczos run on the stack, which
forms no trial's operator.  The stacks live for one check and grade only.

The symmetric subspace of each grade is spanned by the indicators of its
index orbits under slot permutations, with no eigendecomposition and no
loop over the k! permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import random_element
from .linalg import gram_whitening, hermitize, krylov_operator_norms
from .report import STATUS_FAIL, residual_record

CREATION = "b*"
ANNIHILATION = "b"
NUMBER = "n"

_SHIFTS = {CREATION: 1, NUMBER: 0, ANNIHILATION: -1}


class GradeOverflowError(RuntimeError):
    """A creation-type operator tried to step past the truncation grade."""


def check_grade(k, max_grade):
    if not 0 <= k <= max_grade:
        raise GradeOverflowError("grade %d outside [0, %d]" % (k, max_grade))


def _weighted(coeffs, stack):
    """The slices of ``stack`` along its first axis summed with weights
    ``coeffs``, as one matrix product."""
    return (coeffs @ stack.reshape(len(coeffs), -1)).reshape(stack.shape[1:])


@dataclass
class GradedVector:
    dim: int
    parts: list  # parts[k] is a 1-d complex array of length dim**k

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.parts:
            raise ValueError("need at least the vacuum grade")
        fixed = []
        for k, p in enumerate(self.parts):
            arr = np.asarray(p, dtype=complex).reshape(-1)
            if arr.size != self.dim**k:
                raise ValueError(
                    f"grade {k} must have {self.dim**k} coordinates, got {arr.size}"
                )
            fixed.append(arr)
        self.parts = fixed

    @property
    def max_grade(self) -> int:
        return len(self.parts) - 1

    @classmethod
    def vacuum(cls, dim: int, max_grade: int) -> "GradedVector":
        parts = [np.zeros(dim**k, dtype=complex) for k in range(max_grade + 1)]
        parts[0][0] = 1.0
        return cls(dim, parts)

    @classmethod
    def zero(cls, dim: int, max_grade: int) -> "GradedVector":
        return cls(dim, [np.zeros(dim**k, dtype=complex) for k in range(max_grade + 1)])

    def copy(self) -> "GradedVector":
        return GradedVector(self.dim, [p.copy() for p in self.parts])

    def scaled(self, c) -> "GradedVector":
        return GradedVector(self.dim, [c * p for p in self.parts])

    def add(self, other: "GradedVector") -> "GradedVector":
        self._compatible(other)
        return GradedVector(
            self.dim, [a + b for a, b in zip(self.parts, other.parts)]
        )

    def vacuum_component(self) -> complex:
        return complex(self.parts[0][0])

    def _compatible(self, other: "GradedVector"):
        if self.dim != other.dim or self.max_grade != other.max_grade:
            raise ValueError("graded vectors live on different spaces")


class GradedFockSpace:
    """Quadratic creation, annihilation and number operators on the grades
    0..max_grade of a truncated Fock space over ``algebra``, and the dense
    matrices of their products (``word_matrix``).

    A subclass supplies two hooks:

    * ``_symbol_tensors(kind, symbol)``: what the operator of that kind
      needs of its symbol, linear in the symbol for creation and number
      and in its star for annihilation;
    * ``_kernel(kind, data, block, k)``: its action on a block of columns
      in grade-k coordinates, an array of shape (dim**k, width), giving
      the block of its images in the coordinates of the grade it reaches;

    and, for the metric and the shared adjointness check, ``gram(k)`` and
    the class attributes of its records: ``_prefix`` of the record names,
    ``_adjoint_claim``, and ``_adjoint_notes``, a %-format of the trial
    count.  ``_compression(k)`` gives the columns of the grade-k subspace
    that relations, adjointness and operator norms are checked on, or None
    for the whole grade; it defaults to the symmetric subspace, and
    ``_compress(mat, k_out, k_in)`` restricts a map between grades to it.
    ``_metric(k)``, the compressed Gram that positivity is checked and
    operator norms are whitened against, follows from the two.

    These two hooks are the only definition of each operator, and
    ``_kernel`` on a block of columns is the only way the scaffold acts
    with one: ``word_matrix`` runs each letter's kernel on a block that
    starts as the requested columns (the identity by default),
    ``operator_matrix`` is the one-letter word, and ``apply`` runs the
    kernel on one column per grade.  ``_symbol_tensors`` runs only at the
    basis elements of the algebra, once per kind; a letter's tensors are
    their sum weighed by ``_coefficients``.  Operator norms
    (``_operator_norms``) and ``check_adjointness`` never build an
    operator matrix: each works from a ``_basis_stack`` of one grade, the
    basis operators on the compressed columns under the fixed map the
    check applies; the adjointness check sums its trials from it, and the
    norms run one Lanczos iteration on it for all trials at once.
    """

    def __init__(self, algebra, max_grade):
        if max_grade < 1:
            raise ValueError("max_grade must be at least 1")
        self.algebra = algebra
        self.max_grade = int(max_grade)
        self._whitenings = {}
        self._orbit_cache = {}
        self._metrics = {}
        self._basis_tensors = {}

    def _check_grade(self, k):
        check_grade(k, self.max_grade)

    def _orbits(self, k):
        """The index orbits of grade k under slot permutations (cached):
        the 0/1 matrix (dim**k by orbits) of the orbit of each flat index,
        the orbit sizes, and the normalized indicators, an exact orthonormal
        basis of the symmetric subspace.  The orbit of an index tuple is its
        sorted tuple, one per multiset of indices."""
        self._check_grade(k)
        if k not in self._orbit_cache:
            dim = self.algebra.dim
            tuples = np.indices((dim,) * k).reshape(k, dim**k)
            _, orbit, sizes = np.unique(
                np.sort(tuples, axis=0), axis=1, return_inverse=True, return_counts=True
            )
            indicator = np.eye(sizes.size)[orbit.reshape(-1)]
            self._orbit_cache[k] = indicator, sizes, indicator / np.sqrt(sizes)
        return self._orbit_cache[k]

    def symmetrizer(self, k):
        """Projection onto the symmetric part of grade k, as a matrix: each
        coordinate goes to the mean over its orbit."""
        indicator, sizes, _ = self._orbits(k)
        return (indicator / sizes) @ indicator.T

    def symmetric_basis(self, k):
        """Orthonormal (coordinate-wise) basis of the symmetric subspace."""
        return self._orbits(k)[2]

    def _compression(self, k):
        """Columns spanning the grade-k subspace that relations, adjointness
        and operator norms are checked on, or None for the whole grade;
        the symmetric subspace by default."""
        return self.symmetric_basis(k)

    def _left_compressed(self, mat, k):
        """mat restricted on the left to the ``_compression`` of grade k."""
        basis = self._compression(k)
        return mat if basis is None else basis.conj().T @ mat

    def _right_compressed(self, mat, k):
        """mat restricted on the right to the ``_compression`` of grade k."""
        basis = self._compression(k)
        return mat if basis is None else mat @ basis

    def _compress(self, mat, k_out, k_in):
        """Restriction of a map from grade k_in to grade k_out to the
        subspaces of ``_compression``."""
        return self._right_compressed(self._left_compressed(mat, k_out), k_in)

    def _coefficients(self, kind, symbol):
        """Coordinates of the symbol that weigh the basis operators of
        ``kind``: annihilation is conjugate-linear, since it depends on the
        symbol only through its star, so its coefficients are conjugated."""
        coeffs = self.algebra.coords(symbol)
        return coeffs.conj() if kind == ANNIHILATION else coeffs

    def _letter(self, kind, coeffs):
        """The ``_symbol_tensors`` of the operator of ``kind`` whose basis
        operators are weighed by ``coeffs``: the tensors of the basis
        elements, built once per kind and flattened side by side into one
        row per element, summed with these weights."""
        if kind not in self._basis_tensors:
            per_element = [
                self._symbol_tensors(kind, element) for element in self.algebra.basis()
            ]
            rows = [np.concatenate([t.reshape(-1) for t in ts]) for ts in per_element]
            pieces, start = [], 0
            for tensor in per_element[0]:
                pieces.append((start, start + tensor.size, tensor.shape))
                start += tensor.size
            self._basis_tensors[kind] = np.array(rows), pieces
        rows, pieces = self._basis_tensors[kind]
        flat = coeffs @ rows
        return [flat[start:stop].reshape(shape) for start, stop, shape in pieces]

    def _basis_operators(self, kind, k):
        """The operators of ``kind`` leaving grade k at the basis elements
        of the algebra, one at a time, each restricted on the right to the
        ``_compression`` of grade k: ``_kernel`` on those columns."""
        dim = self.algebra.dim
        columns = self._compression(k)
        block = np.eye(dim**k) if columns is None else columns
        for unit in np.eye(dim):
            yield self._kernel(kind, self._letter(kind, unit), block, k)

    def operator_matrix(self, kind, symbol, k):
        """Dense matrix of the operator leaving grade k, in flat
        coordinates: the word of one letter."""
        self._check_grade(k)
        if kind == ANNIHILATION and k == 0:
            raise ValueError("annihilation is undefined on the vacuum grade")
        if kind == CREATION and k == self.max_grade:
            raise GradeOverflowError("creation out of the top grade")
        return self.word_matrix([(kind, symbol)], k)

    def _basis_stack(self, kind, k, transform):
        """``transform`` of each basis operator of ``kind`` leaving grade k,
        restricted on the right to the ``_compression`` of grade k, stacked
        along a new first axis, so that the transformed operator of a
        symbol is ``_weighted(coefficients, stack)``.

        A check builds the stack of one grade, sums its trials from it and
        drops it before the next grade: it holds dim transformed operators,
        too many to keep for every grade.
        """
        stack = None
        for b, op in enumerate(self._basis_operators(kind, k)):
            mapped = transform(op)
            if stack is None:
                stack = np.empty((self.algebra.dim,) + mapped.shape, dtype=complex)
            stack[b] = mapped
        return stack

    def word_matrix(self, word, k, columns=None):
        """Dense matrix of an operator product leaving grade k, applied to
        ``columns`` (a dim**k by width block; the identity when None).

        word is a sequence of (kind, symbol) pairs, the last acting first:
        each letter's ``_kernel`` runs on the block the letters to its right
        produced, at the grade they reach.  A word that annihilates the
        vacuum on the way is the zero matrix, and then no kernel runs.
        """
        return self._run(self._letters(word), k, columns)

    def _letters(self, word):
        """The (kind, ``_letter``) pairs of a word of (kind, symbol) pairs."""
        return [
            (kind, self._letter(kind, self._coefficients(kind, symbol)))
            for kind, symbol in word
        ]

    def _run(self, letters, k, columns):
        """``word_matrix`` of (kind, ``_letter``) pairs."""
        steps, grade, top, vanishes = [], k, k, False
        for kind, data in reversed(letters):
            steps.append((kind, data, grade))
            vanishes = vanishes or (grade == 0 and kind != CREATION)
            grade += _SHIFTS[kind]
            top = max(top, grade)
        for reached in (k, grade, top):
            self._check_grade(reached)
        dim = self.algebra.dim
        block = np.eye(dim**k) if columns is None else columns
        if block.ndim != 2 or block.shape[0] != dim**k:
            raise ValueError("columns must have %d rows" % dim**k)
        if vanishes:
            return np.zeros((dim**grade, block.shape[1]), dtype=complex)
        for kind, data, grade in steps:
            block = self._kernel(kind, data, block, grade)
        return block

    def commutator(self, left, right, k, q=1.0, columns=None):
        """Matrix of left right - q right left leaving grade k, for two
        words, applied to ``columns`` as in ``word_matrix``."""
        return self._commute(self._letters(left), self._letters(right), k, q, columns)

    def _commute(self, left, right, k, q=1.0, columns=None):
        """``commutator`` of two words of (kind, ``_letter``) pairs, so that
        a check builds the letters of its symbols once for every grade."""
        forward = self._run([*left, *right], k, columns)
        backward = self._run([*right, *left], k, columns)
        return forward - (backward if q == 1.0 else q * backward)

    def apply(self, kind, symbol, vec):
        """Apply one operator to a graded vector, returning a new vector."""
        dim = self.algebra.dim
        out = GradedVector.zero(dim, vec.max_grade)
        data = self._letter(kind, self._coefficients(kind, symbol))
        shift = _SHIFTS[kind]
        for k, part in enumerate(vec.parts):
            if not part.any():
                continue
            if kind == CREATION and (k == self.max_grade or k == vec.max_grade):
                raise GradeOverflowError(
                    "creation pushes grade %d past the cutoff" % k
                )
            if k == 0 and kind != CREATION:
                continue
            res = self._kernel(kind, data, part.reshape(-1, 1), k)
            out.parts[k + shift] = out.parts[k + shift] + res.reshape(-1)
        return out

    def vacuum_expectation(self, word):
        """Vacuum state of a product of operators.

        word is a sequence of (kind, symbol) pairs, applied so that the last
        pair acts first.
        """
        return self._vacuum_walk([[(1.0, kind, symbol)] for kind, symbol in word])

    def _vacuum_walk(self, letters):
        """Vacuum state of a product of letters, the last acting first.

        A letter is a sequence of (coeff, kind, symbol) terms and stands for
        the sum of the operators scaled by their coefficients.  Grades that
        can no longer return to the vacuum within the remaining letters are
        pruned, which keeps words of length up to twice the grade cutoff
        inside the truncation exactly.
        """
        letters = list(letters)
        if len(letters) > 2 * self.max_grade:
            raise GradeOverflowError(
                "word of length %d needs more than %d grades"
                % (len(letters), self.max_grade)
            )
        vec = GradedVector.vacuum(self.algebra.dim, self.max_grade)
        return self._walk(letters, vec, len(letters)).vacuum_component()

    def _walk(self, letters, vec, remaining):
        """Apply letters to vec, the last first; `remaining` counts the
        letters, these included, still to act before the vacuum is read."""
        for letter in reversed(letters):
            out = None
            for coeff, kind, symbol in letter:
                term = self.apply(kind, symbol, self._prune(vec, kind, remaining))
                if coeff != 1.0:
                    term = term.scaled(coeff)
                out = term if out is None else out.add(term)
            vec = out
            remaining -= 1
        return vec

    def _prune(self, vec, kind, remaining):
        # Keep only grades that some suffix of length `remaining` (the
        # current operator included) can still map back down to grade 0:
        # after this operator's shift, each later one lowers the grade by
        # at most one.
        cap = remaining - 1 - _SHIFTS[kind]
        out = vec.copy()
        for k in range(vec.max_grade + 1):
            if k > cap:
                out.parts[k] = np.zeros_like(out.parts[k])
        return out

    def _metric(self, k):
        """Gram matrix of grade k in the coordinates of ``_compression``,
        hermitized (cached); positivity is checked and operator norms are
        whitened against it."""
        if k not in self._metrics:
            self._metrics[k] = hermitize(self._compress(self.gram(k), k, k))
        return self._metrics[k]

    def _whitening(self, k):
        """Whitening of the grade-k metric (cached)."""
        if k not in self._whitenings:
            self._whitenings[k] = gram_whitening(self._metric(k))
        return self._whitenings[k]

    def _positivity_sweep(self, top, label="k"):
        """Lowest eigenvalue of ``_metric`` over grades 0..top, and the
        per-grade note."""
        worst = math.inf
        details = []
        for k in range(top + 1):
            eigs = np.linalg.eigvalsh(self._metric(k))
            low = float(eigs.min())
            worst = min(worst, low)
            details.append("%s=%d min_eig=%.3e" % (label, k, low))
        return worst, "; ".join(details)

    def _operator_norms(self, kind, symbols, k):
        """Norms of the compressed operators of ``kind`` leaving grade k at
        each of ``symbols``, measured against the metrics of both grades,
        and the relative residual of the Ritz pair each was read from.

        With W the whitener of a grade, G its metric and S its compression,
        the whitened operator W_out^H G_out S_out^H B S_in W_in is linear in
        B, so the stack of whitened basis operators, each of which arrives
        as B S_in, and the symbols' coefficients define it; one batched
        Lanczos run (``krylov_operator_norms``) takes every symbol's norm
        from them without forming the operator.
        """
        k_out = k + _SHIFTS[kind]
        out, into = self._whitening(k_out), self._whitening(k)
        if into.whitener.shape[1] == 0 or out.left.shape[0] == 0:
            return np.zeros(len(symbols)), np.zeros(len(symbols))
        stack = self._basis_stack(
            kind,
            k,
            lambda mat: out.left @ (self._left_compressed(mat, k_out) @ into.whitener),
        )
        coeffs = np.array([self._coefficients(kind, s) for s in symbols])
        return krylov_operator_norms(stack, coeffs)

    def _norm_records(self, prefix, claim, cases, symbols, slack):
        """Norm-bound records: ``cases`` are (name, kind, grade, bound)
        tuples, bound an array over ``symbols``, and the record
        ``<prefix>.<name>_bound`` holds the worst norm minus bound over the
        cases of that name and the symbols, against ``slack``.

        A Ritz value is a lower bound on the norm it estimates, so every
        record fails, and does not pass, when the worst relative Ritz
        residual of the norms is above the slack.  The notes name the
        trials, that residual, and the negative metric directions the
        whitenings of grades 0..max_grade drop.
        """
        excess, ritz = {}, 0.0
        for name, kind, k, bound in cases:
            norms, residuals = self._operator_norms(kind, symbols, k)
            worst = float((norms - bound).max())
            excess[name] = max(excess.get(name, -math.inf), worst)
            ritz = max(ritz, float(residuals.max()))
        negative = sum(self._whitening(k).negative for k in range(self.max_grade + 1))
        notes = (
            "worst norm minus bound, %d trials; worst relative Ritz residual: %.2e;"
            " negative metric directions dropped: %d" % (len(symbols), ritz, negative)
        )
        records = []
        for name, value in excess.items():
            record = residual_record(
                "%s.%s_bound" % (prefix, name), claim, value, slack, notes=notes
            )
            if not ritz <= slack:
                record = replace(record, status=STATUS_FAIL)
            records.append(record)
        return records

    def _adjoint_pair_gap(self, symbols, grams, gap):
        """Worst ``gap`` over the grades below the top and over ``symbols``
        between the two sides of creation against annihilation as adjoints
        for ``grams``, the Grams of every grade restricted on the right to
        ``_compression``: S_(k+1)^H A^H G_k S_k = (A S_(k+1))^H (G_k S_k) and,
        with G hermitian, S_(k+1)^H G_(k+1) C S_k = (G_(k+1) S_(k+1))^H (C S_k).
        Both sides are linear in the symbol, so each is summed per symbol
        from a stack of its basis sides, built once per grade."""
        worst = 0.0
        for k in range(self.max_grade):
            left = self._basis_stack(
                ANNIHILATION, k + 1, lambda mat: mat.conj().T @ grams[k]
            )
            right = self._basis_stack(
                CREATION, k, lambda mat: grams[k + 1].conj().T @ mat
            )
            for symbol in symbols:
                lhs = _weighted(self._coefficients(ANNIHILATION, symbol).conj(), left)
                rhs = _weighted(self._coefficients(CREATION, symbol), right)
                worst = max(worst, gap(lhs, rhs))
            del left, right
        return worst

    def check_adjointness(self, rng, trials=50, tol=1e-9):
        """Creation against annihilation and number against the number of
        the starred symbol, as adjoints for the Gram, compared after
        ``_compress`` (see ``_adjoint_pair_gap`` for the pair).

        The number pair needs one stack: with G_k hermitian, the right side
        at a basis element, S_k^H G_k N S_k, is the adjoint of the left one,
        (N S_k)^H (G_k S_k).
        """
        alg = self.algebra
        zetas = [random_element(alg, rng) for _ in range(trials)]
        compressed_gram = [
            self._right_compressed(self.gram(k), k) for k in range(self.max_grade + 1)
        ]

        def gap(lhs, rhs):
            scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
            return np.linalg.norm(lhs - rhs) / scale

        worst_pair = self._adjoint_pair_gap(zetas, compressed_gram, gap)
        worst_number = 0.0
        for k in range(1, self.max_grade + 1):
            left = self._basis_stack(
                NUMBER, k, lambda mat: mat.conj().T @ compressed_gram[k]
            )
            for zeta in zetas:
                lhs = _weighted(self._coefficients(NUMBER, zeta).conj(), left)
                rhs = _weighted(self._coefficients(NUMBER, alg.star(zeta)).conj(), left)
                worst_number = max(worst_number, gap(lhs, rhs.conj().T))
            del left
        notes = self._adjoint_notes % trials
        return [
            residual_record(
                self._prefix + ".adjoint.creation_annihilation",
                self._adjoint_claim,
                worst_pair,
                tol,
                notes=notes,
            ),
            residual_record(
                self._prefix + ".adjoint.number",
                self._adjoint_claim,
                worst_number,
                tol,
                notes=notes,
            ),
        ]
