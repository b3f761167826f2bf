"""The shared scaffold of the Fock-space models.

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
each letter's are their weighted sum.

Linearity also lets the checks prove an identity on the basis instead of
sampling it.  An identity linear in one symbol holds for every symbol once
it holds at the dim basis elements, and one linear in each of two symbols
once it holds at the dim**2 basis pairs, up to rounding: random symbols
would re-sum the same basis operators and could detect nothing more.  So
the adjointness checks compare the sides of each basis element, and the
relation checks of the spaces run on basis pairs: the free space
multiplies the leading factors of each pair, the bosonic space its cached
basis matrices, and the q-deformed space runs the ``commutator`` of each
pair of basis modes on the columns it checks.  Operator norms and the
q-deformed squared relation are not linear and keep their random symbols.

Each space checks its adjointness, norms and positivity in coordinates of
its own; ``_metric(k)`` is the Gram of grade k in them.  In those
coordinates every operator the checks read is a leading factor tensored
with an identity, F (x) I, and ``_leading`` gives F: the free space checks
on the whole grade, where F is the factor on the first one or two slots
its operators are built from; the bosonic space on the symmetric
subspace, in its orthonormal orbit basis, where F is the whole compressed
operator; the q-deformed space on flat rows against the ``_columns`` it
checks on.  What the checks compute of an operator is linear in it, so
each builds the stack of the basis factors of one (kind, grade) once: the
adjointness check contracts each factor's F^H with the metric's leading
axes and compares the sides of each basis element a block of rows at a
time (``_side_blocks``), and the norms of all
trials come from the stack with no operator matrix and no free kernel.  An
operator with no identity tail, F (x) I = F, as every bosonic one and the
free ones whose factor spans the grade, is small: its whitened basis
operators are formed once, and each trial's norm is exact, the top
eigenvalue of its smaller Gram.  The others, the free operators with a
tail, take their norms from one batched Lanczos run on the stack's
products with vectors, without forming the whitened operator.

The symmetric subspace of each grade is spanned by the indicators of its
index orbits under slot permutations, with no eigendecomposition and no
loop over the k! permutations.

A graded vector, as ``apply`` takes it, is a plain list whose entry k
holds the dim**k coordinates of grade k, or None for an empty grade.  The
vacuum walks carry a graded block instead, entry k a (T, dim**k) array
with one row per trial, so the moments of T words of one length come from
one walk.  Each term of a letter builds the letters of all T trials at
once, a stack along a leading axis, and runs one stacked kernel on the
block, each trial's letter on its own row: a walk makes the same kernel
calls at one trial or a hundred, and each trial's arithmetic is that of
its own letter on its own vector, whichever trials share its block.  A
walk holds at most ``_WALK_BLOCK`` entries of a grade at once, taking the
trials in chunks.  The truncation is a hard wall: an operator that would
populate a grade beyond the cap raises :class:`GradeOverflowError` instead
of silently dropping weight.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .linalg import gram_whitening, krylov_operator_norms, stack_operator_norms
from .report import STATUS_FAIL, residual_record

CREATION = "b*"
ANNIHILATION = "b"
NUMBER = "n"

_SHIFTS = {CREATION: 1, NUMBER: 0, ANNIHILATION: -1}

# Symbols per Lanczos run of the norm checks of the operators with an
# identity tail.  A run's basis holds a vector per step, side and symbol,
# so batches keep its memory flat in the trials.
_NORM_BATCH = 128

# Entries of one row block of an adjointness side (``_side_blocks``): every
# side at truncation 4 or below is a single block, and a grade-6 side over
# M_2 (4096 x 4096) is 64 of them.
_SIDE_BLOCK = 2**18

# Entries of one trial batch of the exact norms of the operators with no
# identity tail (``stack_operator_norms``): the batch's operators, their
# adjoints and Grams together, 512 KiB of complex entries.  A batch holds
# 17 grade-4 number operators over M_2 (25 x 25 whitened directions), and
# one over M_3 at truncation 4, a side of hundreds of directions.
_NORM_BLOCK = 2**15

# Entries of one trial chunk of a vacuum walk (``_vacuum_walk``) in the top
# grade it reaches or in its largest letter tensor, 1 MiB of complex
# entries: a walk's memory stays flat in the trials.  A chunk holds 256
# trials over M_2 at truncation 4, every word length of a free pass, and
# 89 of a six-letter walk over M_3.
_WALK_BLOCK = 2**16


class GradeOverflowError(RuntimeError):
    """A creation-type operator tried to step past the truncation grade."""


def check_grade(k, max_grade):
    if not 0 <= k <= max_grade:
        raise GradeOverflowError("grade %d outside [0, %d]" % (k, max_grade))


def _product(mat, block):
    """mat @ block, a real mat on the block's real and imaginary parts."""
    if np.iscomplexobj(mat):
        return mat @ block
    return (mat @ np.ascontiguousarray(block).view(float)).view(complex)


def _squared(block):
    """The squared Frobenius norm of a block, as ``np.linalg.norm`` sums
    it."""
    flat = block.ravel(order="K")
    return flat.real @ flat.real + flat.imag @ flat.imag


def _right(block, factor):
    """block (F (x) I): F contracts the leading axes of the block's
    columns."""
    if factor.shape[0] == block.shape[1]:
        return block @ factor
    split = block.reshape(len(block), factor.shape[0], -1)
    return np.matmul(factor.T, split).reshape(len(block), -1)


def _side_blocks(left, metric, right, adjoint):
    """The two sides (L (x) I)^H M and A (R (x) I) of an adjointness pair,
    row block by row block, L = ``left`` and R = ``right`` leading factors,
    M = ``metric`` on the rows of the grade L reaches and A = ``adjoint``
    the adjoint of the metric on the other side (the metric itself when it
    is Hermitian).

    Row (j, t) of the left side, j a column of L and t a row of the
    identity's slots, is L[:, j]^H times the rows (i, t) of M, so a block
    of its rows reads contiguous rows of M in each of the len(L) groups,
    and the same block of the right side reads contiguous rows of A.  A
    block holds about ``_SIDE_BLOCK`` entries: whole columns of L when a
    group's rows fit, else one column of L and a run of t.
    """
    cols = metric.shape[1]
    tail = metric.shape[0] // left.shape[0]
    heads = left.conj().T
    groups = metric.reshape(left.shape[0], -1)
    span = max(1, _SIDE_BLOCK // cols)
    width, step = min(tail, span), max(1, span // tail)
    for j in range(0, len(heads), step):
        for t in range(0, tail, width):
            lhs = heads[j : j + step] @ groups[:, t * cols : (t + width) * cols]
            lhs = lhs.reshape(-1, cols)
            start = j * tail + t
            yield lhs, _right(adjoint[start : start + len(lhs)], right)


class GradedFockSpace:
    """Quadratic creation, annihilation and number operators on the grades
    0..max_grade of a truncated Fock space over ``algebra``, and the dense
    matrices of their products (``word_matrix``).

    A subclass supplies two hooks:

    * ``_symbol_tensors(kind, symbol)``: what the operator of that kind
      needs of its symbol, linear in the symbol for creation and number
      and in its star for annihilation;
    * ``_stacked_kernel(kind, data, block, k)``: the action of a stack of
      L operators of one kind on a block of shape (L, dim**k, width) in
      grade-k coordinates, operator l on the columns of block[l], whose
      tensors ``data`` carry the stack along a leading axis; it gives the
      (L, dim**j, width) block of their images in the coordinates of the
      grade j they reach.  ``_kernel(kind, data, block, k)`` is the stack
      of one, an unstacked letter on a (dim**k, width) block;

    and, for the metric and the shared checks, ``gram(k)``, the class
    attributes of the records (``_prefix`` of their names,
    ``_adjoint_claim``, and ``_adjoint_notes``, a %-format of the number of
    basis elements) and ``_leading(kind, coeffs, k)``: the leading factor F
    of the operator of ``kind`` leaving grade k whose basis operators
    ``coeffs`` weighs (its ``_coefficients``, conjugated for
    annihilation), the operator being F (x) I in the coordinates of
    ``_metric``.  ``_metric(k)`` is the one hook through which the
    scaffold reads a Gram: positivity is checked, operator norms are
    whitened and adjointness is compared against it.  It defaults to the
    hermitized ``gram(k)`` of the whole grade; a space that checks on a
    subspace returns the Gram in an orthonormal basis of it.

    ``_symbol_tensors`` and ``_stacked_kernel`` are the only definition of
    each operator (the free space's tensors are its leading factors, and
    its kernel is their product with a block), and the kernel is the only
    way the scaffold acts with one: ``word_matrix`` runs each letter's
    ``_kernel`` on a block that starts as the requested columns (the
    identity by default), ``operator_matrix`` is the one-letter word, and a
    vacuum walk (``_walk``) runs each term's stacked letters, one per
    trial, on the trial rows of each grade present in a graded block (see
    the module docstring); ``apply`` is its step on one graded vector.
    ``_symbol_tensors`` runs only at the basis elements of the algebra,
    once per kind; a letter's tensors are their sum weighed by
    ``_coefficients``.  The linear claims are checked on the basis of the
    algebra (see the module docstring): the relation checks of the
    subclasses on the basis pairs, and the adjointness check
    (``_adjoint_gaps``) and the operator norms (``_whitened_products``)
    on the ``_leading_stack`` of each (kind, grade), the one route to the
    operators both take.  Neither builds an operator matrix: the
    adjointness check compares the contracted sides of each basis element,
    and the norms (``_operator_norms``) form the whitened basis operators
    of an operator with no identity tail and take exact norms of their
    sums, or run one Lanczos iteration on the stack for all trials at once
    where there is a tail.
    """

    def __init__(self, algebra, max_grade):
        if max_grade < 1:
            raise ValueError("max_grade must be at least 1")
        self.algebra = algebra
        self.max_grade = int(max_grade)
        self._whitenings = {}
        self._orbit_cache = {}
        self._basis_tensors = {}

    def _check_grade(self, k):
        check_grade(k, self.max_grade)

    def _orbits(self, k):
        """The index orbits of grade k under slot permutations (cached):
        the 0/1 matrix (dim**k by orbits) of the orbit of each flat index,
        the orbit sizes, each orbit's representative flat index and each
        flat index's orbit.  The orbit of an index tuple is its sorted
        tuple, whose flat index is the orbit's smallest, its representative."""
        self._check_grade(k)
        if k not in self._orbit_cache:
            dim = self.algebra.dim
            tuples = np.indices((dim,) * k).reshape(k, dim**k)
            _, reps, orbit, sizes = np.unique(
                np.sort(tuples, axis=0),
                axis=1,
                return_index=True,
                return_inverse=True,
                return_counts=True,
            )
            orbit = orbit.reshape(-1)
            indicator = np.eye(sizes.size)[orbit]
            self._orbit_cache[k] = indicator, sizes, reps, orbit
        return self._orbit_cache[k]

    def symmetrizer(self, k):
        """Projection onto the symmetric part of grade k, as a matrix: each
        coordinate goes to the mean over its orbit."""
        indicator, sizes = self._orbits(k)[:2]
        return (indicator / sizes) @ indicator.T

    def symmetric_basis(self, k):
        """Orthonormal (coordinate-wise) basis of the symmetric subspace:
        the normalized orbit indicators, an exact basis, complex as the
        kernels take it."""
        indicator, sizes = self._orbits(k)[:2]
        return (indicator / np.sqrt(sizes)).astype(complex)

    def _coefficients(self, kind, symbol):
        """Coordinates of the symbol that weigh the basis operators of
        ``kind``: annihilation is conjugate-linear, since it depends on the
        symbol only through its star, so its coefficients are conjugated."""
        coeffs = self.algebra.coords(symbol)
        return coeffs.conj() if kind == ANNIHILATION else coeffs

    def _letter(self, kind, coeffs):
        """The ``_symbol_tensors`` of the operator of ``kind`` whose basis
        operators are weighed by ``coeffs``: each tensor's values at the
        basis elements, built once per kind and stacked along a first axis,
        summed with these weights.  Coefficients of shape (..., dim) give
        tensors with the same leading axes, one letter per row, each summed
        as the letter of that row alone."""
        stacks = self._basis_stacks(kind)
        lead = np.shape(coeffs)[:-1]
        rows = np.asarray(coeffs)[..., None, :]
        return [
            (rows @ stack.reshape(len(stack), -1)).reshape(lead + stack.shape[1:])
            for stack in stacks
        ]

    def _basis_stacks(self, kind):
        """The ``_symbol_tensors`` of ``kind`` at the basis elements, each
        stacked along a first axis (cached)."""
        if kind not in self._basis_tensors:
            per_element = [
                self._symbol_tensors(kind, element) for element in self.algebra.basis()
            ]
            self._basis_tensors[kind] = [np.array(t) for t in zip(*per_element)]
        return self._basis_tensors[kind]

    def _basis_letters(self, kind):
        """The letters of ``kind`` at the basis elements of the algebra,
        views of the basis stacks."""
        stacks = self._basis_stacks(kind)
        return [[stack[b] for stack in stacks] for b in range(self.algebra.dim)]

    def operator_matrix(self, kind, symbol, k):
        """Dense matrix of the operator leaving grade k, in flat
        coordinates: the word of one letter."""
        self._check_grade(k)
        if kind == ANNIHILATION and k == 0:
            raise ValueError("annihilation is undefined on the vacuum grade")
        if kind == CREATION and k == self.max_grade:
            raise GradeOverflowError("creation out of the top grade")
        return self.word_matrix([(kind, symbol)], k)

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

    def _kernel(self, kind, data, block, k):
        """The operator whose tensors are ``data`` on a (dim**k, width)
        block: the ``_stacked_kernel`` of a stack of one."""
        stacked = [tensor[None] for tensor in data]
        return self._stacked_kernel(kind, stacked, block[None], k)[0]

    def commutator(self, left, right, k, q=1.0, columns=None):
        """Matrix of left right - q right left leaving grade k, for two
        words, applied to ``columns`` as in ``word_matrix``."""
        left, right = self._letters(left), self._letters(right)
        forward = self._run([*left, *right], k, columns)
        backward = self._run([*right, *left], k, columns)
        return forward - (backward if q == 1.0 else q * backward)

    def apply(self, kind, symbol, vec):
        """Apply one operator to a graded vector: a list of at most
        max_grade + 1 entries, entry k the dim**k coordinates of grade k or
        None when that grade is empty, and missing entries empty.  Returns
        a new list of max_grade + 1 entries."""
        dim, top = self.algebra.dim, self.max_grade
        if len(vec) > top + 1:
            raise ValueError("graded vector has more than %d grades" % (top + 1))
        block = []
        for k, part in enumerate(vec):
            if part is not None:
                if np.size(part) != dim**k:
                    raise ValueError("grade %d must have %d coordinates" % (k, dim**k))
                part = np.asarray(part, dtype=complex).reshape(1, -1)
            block.append(part)
        coeffs = self._coefficients(kind, symbol)[None]
        out = self._step([(kind, coeffs, None)], block, len(block) + 1)
        return [None if part is None else part.reshape(-1) for part in out]

    def vacuum_expectation(self, word):
        """Vacuum state of a product of operators.

        word is a sequence of (kind, symbol) pairs, applied so that the last
        pair acts first.
        """
        letters = [
            [(kind, self._coefficients(kind, symbol)[None], None)]
            for kind, symbol in word
        ]
        return complex(self._vacuum_walk(letters, 1)[0])

    def _vacuum_walk(self, letters, trials):
        """Vacuum states of ``trials`` products of letters at once, the last
        letter acting first, one per row of the letters' terms (see
        ``_walk``).

        Grades that can no longer return to the vacuum within the remaining
        letters are pruned, which keeps words of length up to twice the
        grade cutoff inside the truncation exactly.  So a word of n letters
        reaches grade n // 2 at most, and the trials are walked in chunks
        that hold about ``_WALK_BLOCK`` entries in a grade there or in a
        stacked letter tensor, whichever is larger.
        """
        letters = list(letters)
        n = len(letters)
        if n > 2 * self.max_grade:
            raise GradeOverflowError(
                "word of length %d needs more than %d grades" % (n, self.max_grade)
            )
        kinds = {kind for letter in letters for kind, _, _ in letter}
        sizes = [stack[0].size for kind in kinds for stack in self._basis_stacks(kind)]
        chunk = max(1, _WALK_BLOCK // max([self.algebra.dim ** (n // 2)] + sizes))
        moments = np.zeros(trials, dtype=complex)
        for start in range(0, trials, chunk):
            rows = slice(start, start + chunk)
            part = letters
            if trials > chunk:
                part = [
                    [(kind, c[rows], None if w is None else w[rows]) for kind, c, w in letter]
                    for letter in letters
                ]
            vacuum = np.ones((min(chunk, trials - start), 1), dtype=complex)
            vacuum = self._walk(part, [vacuum], n)[0]
            if vacuum is not None:
                moments[rows] = vacuum[:, 0]
        return moments

    def _walk(self, letters, block, remaining):
        """Apply letters to the graded block ``block``, the last first;
        ``remaining`` counts the letters, these included, still to act
        before the vacuum is read.

        A graded block is a list whose entry k holds a (T, dim**k) array,
        one row per trial, or None for an empty grade.  A letter is a
        sequence of (kind, coeffs, scale) terms and stands for their sum:
        ``coeffs`` is the (T, dim) stack of the trials' ``_coefficients``,
        row t weighing the basis operators of ``kind`` for trial t, and
        ``scale``, when not None, a (T,) factor of each row's image.  Each
        term builds its T letters once and runs one ``_stacked_kernel`` per
        grade it sees, so a walk runs the same kernels at one trial or many
        (``_step``).

        A term sees only the grades that some suffix of ``remaining``
        letters, its own included, can still map back down to grade 0:
        after its shift, each later letter lowers the grade by at most one.
        """
        for letter in reversed(letters):
            block = self._step(letter, block, remaining)
            remaining -= 1
        return block

    def _step(self, terms, block, remaining):
        """One letter of ``_walk`` on a graded block: each term's stack of
        letters, one per trial, acts on the trial rows of each grade it
        sees."""
        top = self.max_grade
        out = [None] * (top + 1)
        for kind, coeffs, scale in terms:
            shift, data = _SHIFTS[kind], None
            for k, part in enumerate(block[: remaining - shift]):
                if part is None or (k == 0 and kind != CREATION):
                    continue
                if kind == CREATION and k == top:
                    raise GradeOverflowError("creation pushes grade %d past the cutoff" % k)
                if data is None:
                    data = self._letter(kind, coeffs)
                image = self._stacked_kernel(kind, data, part[:, :, None], k)[:, :, 0]
                if scale is not None:
                    image *= scale[:, None]
                if out[k + shift] is None:
                    out[k + shift] = image
                else:
                    out[k + shift] += image
        return out

    def _metric(self, k):
        """Gram matrix of grade k in the coordinates the checks run in,
        hermitian; positivity is checked and operator norms are whitened
        against it.  The hermitized Gram of the whole grade by default."""
        return self.gram(k)

    def _whitening(self, k):
        """Whitening of the grade-k metric (cached)."""
        if k not in self._whitenings:
            self._whitenings[k] = gram_whitening(self._metric(k))
        return self._whitenings[k]

    def _metric_eigenvalues(self, k):
        """Eigenvalues of the grade-k metric, those of its whitening, so
        that the norms and the positivity sweep share one eigensolve."""
        return self._whitening(k).eigenvalues

    def _positivity_sweep(self, top, label="k"):
        """Lowest eigenvalue of ``_metric`` over grades 0..top, and the
        per-grade note."""
        worst = math.inf
        details = []
        for k in range(top + 1):
            low = float(self._metric_eigenvalues(k).min())
            worst = min(worst, low)
            details.append("%s=%d min_eig=%.3e" % (label, k, low))
        return worst, "; ".join(details)

    def _operator_norms(self, kind, coeffs, k):
        """Norms of the operators of ``kind`` leaving grade k, restricted to
        the subspaces the space checks on, at each row of ``coeffs``, the
        (T, dim) stack of the trials' ``_coefficients``, measured
        against the metrics of both grades, and the relative residual of
        the Ritz pair each was read from, or None where the norms are exact
        or the operators ``_empty``.

        With W the whitener of a grade and L its left factor, the whitened
        operator L_out (F (x) I) W_in is linear in the leading factor F, so
        the whitened basis operators and the symbols' coefficients define
        it.  The route follows the shape of the ``_leading_stack``:

        * no identity tail (F (x) I = F, as for every bosonic operator and
          the free ones whose factor spans the whole grade): the whitened
          basis operators are formed once, and ``stack_operator_norms``
          takes exact norms of their weighted sums, in trial batches of
          about ``_NORM_BLOCK`` entries;
        * an identity tail (the other free operators): the whitened
          operators are never formed, and one batched Lanczos run
          (``krylov_operator_norms``) per ``_NORM_BATCH`` symbols takes the
          norms from their products with vectors (``_whitened_products``).
        """
        if self._empty(kind, k):
            return np.zeros(len(coeffs)), None
        out, into = self._whitening(k + _SHIFTS[kind]), self._whitening(k)
        factors = self._leading_stack(kind, k)
        if into.whitener.shape[0] == factors.shape[2]:
            # the transposes W_in^T (L_out F_b)^T, which have the same norms,
            # so that a real whitening acts in real arithmetic on both sides
            left = _product(out.left, factors)
            whitened = _product(into.whitener.T, left.transpose(0, 2, 1))
            del left
            return stack_operator_norms(whitened, coeffs, _NORM_BLOCK), None
        products = self._whitened_products(factors, out, into)
        # no trials still make one (empty) run, for two empty arrays
        batches = [
            krylov_operator_norms(*products, coeffs[start : start + _NORM_BATCH])
            for start in range(0, max(len(coeffs), 1), _NORM_BATCH)
        ]
        return tuple(np.concatenate(part) for part in zip(*batches))

    def _empty(self, kind, k):
        """Whether the operators of ``kind`` leaving grade k map whitened
        coordinates of which one side has no direction, so that every norm
        is 0 with nothing to compute."""
        out = self._whitening(k + _SHIFTS[kind])
        return self._whitening(k).whitener.shape[1] == 0 or out.left.shape[0] == 0

    def _leading_stack(self, kind, k):
        """The ``_leading`` factors of the basis operators of ``kind``
        leaving grade k, stacked along a new first axis: a symbol's factor
        is the sum of the slices weighed by its ``_coefficients``.  A check
        builds the stack of each (kind, grade) once and drops it before the
        next.  It is filled in place, so no list of the factors is held
        beside it."""
        stack = None
        for b, unit in enumerate(np.eye(self.algebra.dim)):
            factor = self._leading(kind, unit, k)
            if stack is None:
                stack = np.empty((len(unit),) + factor.shape, dtype=complex)
            stack[b] = factor
        return stack

    def _whitened_products(self, factors, out, into):
        """``krylov_operator_norms``'s products and shape for the whitened
        operators L_out (F_t (x) I) W_in, F_t the trials' leading factors
        weighed from the stack ``factors`` of basis factors: W_in on the
        vectors, one product of the flattened stack with their leading
        axes, the trials' coefficients contracted, and L_out, the adjoint
        in reverse."""
        dim, rows, cols = factors.shape
        flat = factors.reshape(dim * rows, cols)
        flat_h = factors.conj().transpose(0, 2, 1).reshape(dim * cols, rows)
        left_h, whitener_h = out.left.conj().T, into.whitener.conj().T

        def forward(x, c):
            head = _product(into.whitener, x).reshape(cols, -1)
            image = (flat @ head).reshape(dim, rows, -1, len(c))
            image = np.einsum("tb,bist->ist", c, image)
            return _product(out.left, image.reshape(-1, len(c)))

        def backward(y, c):
            head = _product(left_h, y).reshape(rows, -1)
            image = (flat_h @ head).reshape(dim, cols, -1, len(c))
            image = np.einsum("tb,bist->ist", c.conj(), image)
            return _product(whitener_h, image.reshape(-1, len(c)))

        return forward, backward, (out.left.shape[0], into.whitener.shape[1])

    def _norm_records(self, prefix, claim, cases, symbols, slack):
        """Norm-bound records: ``cases`` are (name, kind, grade, bound)
        tuples, bound an array over ``symbols``, a (T, ...) stack of
        algebra elements whose coefficients are taken once per kind, and
        the record ``<prefix>.<name>_bound`` holds the worst norm minus
        bound over the cases of that name and the symbols, against
        ``slack``.

        A Ritz value is a lower bound on the norm it estimates, so every
        record fails, and does not pass, when the worst relative Ritz
        residual of the Lanczos norms is above the slack.  The notes name
        the trials, how many cases had exact norms, how many ``_empty``
        ones (when any) and how many Lanczos ones (``_operator_norms``),
        the worst Ritz residual when there were any, and the negative
        metric directions the whitenings of grades 0..max_grade drop.
        """
        excess, ritz, lanczos, empty = {}, 0.0, 0, 0
        coeffs = {kind: self._coefficients(kind, symbols) for kind in _SHIFTS}
        for name, kind, k, bound in cases:
            norms, residuals = self._operator_norms(kind, coeffs[kind], k)
            worst = float((norms - bound).max())
            excess[name] = max(excess.get(name, -math.inf), worst)
            if residuals is not None:
                lanczos += 1
                ritz = max(ritz, float(residuals.max()))
            elif self._empty(kind, k):
                empty += 1
        notes = "worst norm minus bound, %d trials; " % len(symbols)
        notes += "norms exact (eigvalsh) in %d of %d cases" % (
            len(cases) - lanczos - empty,
            len(cases),
        )
        if empty:
            notes += ", 0 with an empty whitening in %d" % empty
        if lanczos:
            notes += ", by Lanczos in %d" % lanczos
            notes += "; worst relative Ritz residual: %.2e" % ritz
        negative = sum(self._whitening(k).negative for k in range(self.max_grade + 1))
        notes += "; negative metric directions dropped: %d" % negative
        records = []
        for name, value in excess.items():
            record = residual_record(
                "%s.%s_bound" % (prefix, name), claim, value, slack, notes=notes
            )
            if not ritz <= slack:
                record = replace(record, status=STATUS_FAIL)
            records.append(record)
        return records

    def _ladder_gap(self, metrics, gap, adjoints=None):
        """Worst ``gap`` over the grades below the top between A_b^H M_k
        and M_(k+1)^H C_b, creation against annihilation as adjoints, one
        basis element b at a time, for ``metrics`` the Grams on the rows of
        the ``_leading`` factors and ``adjoints`` their adjoints, the
        metrics themselves by default, as they are Hermitian.  ``gap``
        takes the (left, right) row blocks of one pair of sides
        (``_side_blocks``), so no whole side is held.

        With S_k the orthonormal columns grade k is checked on and
        M_k = S_k^H G_k S_k, every Gram here commutes with S_k S_k^H, so
        S_(k+1)^H A^H G_k S_k = S_(k+1)^H G_(k+1) C S_k reads
        (S_k^H A S_(k+1))^H M_k = M_(k+1)^H (S_(k+1)^H C S_k), whatever the
        operators do off the subspace; on flat rows, with the Grams
        restricted on the right, it reads
        (A S_(k+1))^H (G_k S_k) = (G_(k+1) S_(k+1))^H (C S_k).
        """
        adjoints = metrics if adjoints is None else adjoints
        worst = 0.0
        for k in range(self.max_grade):
            lefts = self._leading_stack(ANNIHILATION, k + 1)
            rights = self._leading_stack(CREATION, k)
            for a, c in zip(lefts, rights):
                sides = _side_blocks(a, metrics[k], c, adjoints[k + 1])
                worst = max(worst, gap(sides))
        return worst

    def _adjoint_gaps(self, metrics, gap):
        """Worst ``gap`` of the ladder pair (``_ladder_gap``) and of the
        number pair: N_b^H M_k against M_k N_(star e_b), the right side of
        the starred element, whose factor the stack sums at the coordinates
        of star(e_b); the metrics are Hermitian, so M_k is its own
        adjoint.  Both pairs are compared by row blocks."""
        alg = self.algebra
        starred = alg.coords(alg.star(alg.basis()))
        worst = 0.0
        for k in range(1, self.max_grade + 1):
            factors = self._leading_stack(NUMBER, k)
            for factor, coeffs in zip(factors, starred):
                star = np.tensordot(coeffs, factors, axes=1)
                sides = _side_blocks(factor, metrics[k], star, metrics[k])
                worst = max(worst, gap(sides))
        return self._ladder_gap(metrics, gap), worst

    def check_adjointness(self, tol=1e-9):
        """Creation against annihilation and number against the number of
        the starred symbol, as adjoints for the Gram, compared in the
        coordinates of ``_metric`` at each basis element of the algebra (see
        ``_adjoint_gaps``).  Both identities are linear in the symbol, so the
        basis proves them for every symbol.
        """
        alg = self.algebra
        metrics = [self._metric(k) for k in range(self.max_grade + 1)]

        def gap(sides):
            """Frobenius norm of the difference of two sides, relative to
            the larger side's, from the squared norms of their blocks."""
            squares = np.zeros(3)
            for lhs, rhs in sides:
                squares += [_squared(lhs - rhs), _squared(lhs), _squared(rhs)]
            diff, *norms = np.sqrt(squares)
            return diff / max(*norms, 1.0)

        worst_pair, worst_number = self._adjoint_gaps(metrics, gap)
        notes = self._adjoint_notes % alg.dim
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
