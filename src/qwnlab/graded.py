"""Graded state vectors and the shared scaffold of the Fock-space models.

A :class:`GradedVector` stores one flat complex coordinate block per grade
0..max_grade over a base space of dimension ``dim`` (grade k holds dim**k
coordinates; grade 0 is the scalar multiple of the vacuum).  The truncation
is a hard wall: any operation that would populate a grade beyond the cap
raises :class:`GradeOverflowError` instead of silently dropping weight.

:class:`GradedFockSpace` is the operator scaffolding the quadratic bosonic
and free spaces share: both live on the same graded tensor powers of a base
algebra and differ only in the scalar product and in how each operator acts
on one grade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import random_element
from .linalg import gram_whitening, whitened_operator_norm
from .report import residual_record

CREATION = "b*"
ANNIHILATION = "b"
NUMBER = "n"

_SHIFTS = {CREATION: 1, NUMBER: 0, ANNIHILATION: -1}


class GradeOverflowError(RuntimeError):
    """A creation-type operator tried to step past the truncation grade."""


def check_grade(k, max_grade):
    if not 0 <= k <= max_grade:
        raise GradeOverflowError("grade %d outside [0, %d]" % (k, max_grade))


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
    0..max_grade of a truncated Fock space over ``algebra``.

    A subclass supplies ``gram(k)`` and four hooks:

    * ``_symbol_tensors(kind, symbol)``: what the operator of that kind
      needs of its symbol, computed once per operator;
    * ``_kernel(kind, data, arr, k)``: its action on a grade-k array of
      shape (dim,)*k, with any trailing axes carried along;
    * ``_compress(mat, k_out, k_in)``: the restriction of a map from grade
      k_in to grade k_out that adjointness and operator norms are checked
      on;
    * ``_metric(k)``: the Gram matrix in the compressed coordinates of
      grade k, which operator norms are whitened against;

    and the class attributes of its adjointness records: ``_prefix`` of
    the record names, ``_adjoint_claim``, and ``_adjoint_notes``, a
    %-format of the trial count.
    """

    def __init__(self, algebra, max_grade):
        if max_grade < 1:
            raise ValueError("max_grade must be at least 1")
        self.algebra = algebra
        self.max_grade = int(max_grade)
        self._whitenings = {}

    def _check_grade(self, k):
        check_grade(k, self.max_grade)

    def operator_matrix(self, kind, symbol, k):
        """Dense matrix of the operator leaving grade k, in flat coordinates."""
        self._check_grade(k)
        dim = self.algebra.dim
        size = dim**k
        if kind == NUMBER and k == 0:
            return np.zeros((1, 1), dtype=complex)
        if kind == ANNIHILATION and k == 0:
            raise ValueError("annihilation is undefined on the vacuum grade")
        if kind == CREATION and k == self.max_grade:
            raise GradeOverflowError("creation out of the top grade")
        arr = np.eye(size, dtype=complex).reshape((dim,) * k + (size,))
        res = self._kernel(kind, self._symbol_tensors(kind, symbol), arr, k)
        return np.asarray(res).reshape(-1, size)

    def apply(self, kind, symbol, vec):
        """Apply one operator to a graded vector, returning a new vector."""
        dim = self.algebra.dim
        out = GradedVector.zero(dim, vec.max_grade)
        data = self._symbol_tensors(kind, symbol)
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
            res = self._kernel(kind, data, part.reshape((dim,) * k), k)
            out.parts[k + shift] = out.parts[k + shift] + np.asarray(res).reshape(-1)
        return out

    def vacuum_expectation(self, word):
        """Vacuum state of a product of operators.

        word is a sequence of (kind, symbol) pairs, applied so that the last
        pair acts first.  Grades that can no longer return to the vacuum
        within the remaining factors are pruned, which keeps words of length
        up to twice the grade cutoff inside the truncation exactly.
        """
        word = list(word)
        if len(word) > 2 * self.max_grade:
            raise GradeOverflowError(
                "word of length %d needs more than %d grades"
                % (len(word), self.max_grade)
            )
        vec = GradedVector.vacuum(self.algebra.dim, self.max_grade)
        for pos, (kind, symbol) in enumerate(reversed(word)):
            remaining = len(word) - pos
            vec = self._prune(vec, kind, remaining)
            vec = self.apply(kind, symbol, vec)
        return vec.vacuum_component()

    def _prune(self, vec, kind, remaining):
        # Keep only grades that some suffix of length `remaining` (the
        # current operator included) can still map back down to grade 0.
        if kind == CREATION:
            cap = remaining - 2
        elif kind == NUMBER:
            cap = remaining - 1
        else:
            cap = remaining
        out = vec.copy()
        for k in range(vec.max_grade + 1):
            if k > cap:
                out.parts[k] = np.zeros_like(out.parts[k])
        return out

    def _whitening(self, k):
        """Whitening of the grade-k metric (cached)."""
        if k not in self._whitenings:
            self._whitenings[k] = gram_whitening(self._metric(k))
        return self._whitenings[k]

    def _operator_norm(self, kind, symbol, k):
        """Norm of the compressed operator leaving grade k, measured
        against the metrics of both grades."""
        k_out = k + _SHIFTS[kind]
        mat = self._compress(self.operator_matrix(kind, symbol, k), k_out, k)
        return whitened_operator_norm(mat, self._whitening(k_out), self._whitening(k))

    def check_adjointness(self, rng, trials=50, tol=1e-9):
        """Creation against annihilation and number against the number of
        the starred symbol, as adjoints for the Gram, compared after
        ``_compress``."""
        alg = self.algebra
        worst_pair = 0.0
        worst_number = 0.0
        for _ in range(trials):
            zeta = random_element(alg, rng)
            for k in range(self.max_grade):
                create = self.operator_matrix(CREATION, zeta, k)
                annihilate = self.operator_matrix(ANNIHILATION, zeta, k + 1)
                lhs = self._compress(annihilate.conj().T @ self.gram(k), k + 1, k)
                rhs = self._compress(self.gram(k + 1) @ create, k + 1, k)
                scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
                worst_pair = max(worst_pair, np.linalg.norm(lhs - rhs) / scale)
            for k in range(1, self.max_grade + 1):
                num = self.operator_matrix(NUMBER, zeta, k)
                num_star = self.operator_matrix(NUMBER, alg.star(zeta), k)
                lhs = self._compress(num.conj().T @ self.gram(k), k, k)
                rhs = self._compress(self.gram(k) @ num_star, k, k)
                scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
                worst_number = max(worst_number, np.linalg.norm(lhs - rhs) / scale)
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
