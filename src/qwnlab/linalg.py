"""Dense linear algebra helpers shared by the Fock-space modules.

Everything here acts on explicit matrices over the grade-k coordinate space
of dimension D**k.  The recurring wrinkle is that inner products are given
by Gram matrices that are frequently singular (symmetrization kills most of
the tensor space), so operator norms are computed against a whitened
restriction to the Gram matrix's numerical range rather than against a
matrix inverse.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

RANGE_CUTOFF = 1e-12


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Average away the anti-Hermitian part left by floating-point noise."""
    return 0.5 * (mat + mat.conj().T)


def scaled_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest entry of ``|lhs - rhs|``, relative to the largest entry of
    ``|rhs|`` once that exceeds 1."""
    return np.abs(lhs - rhs).max() / max(np.abs(rhs).max(), 1.0)


def axis_permutation_matrix(dim: int, perm) -> np.ndarray:
    """Matrix of the map permuting tensor slots of (C^dim)**k.

    Input slot s feeds output slot ``perm[s]``: the returned matrix sends
    the basis vector with index tuple i to the one with index tuple j where
    j[perm[s]] = i[s].  On coefficient tensors this is a transpose by the
    inverse permutation.
    """
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError("perm must be a permutation of 0..k-1")
    size = dim**k
    mat = np.eye(size).reshape((dim,) * (2 * k))
    # reorder the *input* axes (the second group of k)
    mat = np.transpose(mat, tuple(range(k)) + tuple(k + p for p in perm))
    return mat.reshape(size, size)


def symmetrizer_matrix(dim: int, k: int) -> np.ndarray:
    """Projection onto the symmetric subspace of (C^dim)**k, summed over the
    k! slot permutations: the oracle of ``GradedFockSpace.symmetrizer``."""
    if k == 0:
        return np.eye(1)
    size = dim**k
    acc = np.zeros((size, size))
    flat = np.arange(size).reshape((dim,) * k)
    columns = np.arange(size)
    count = 0
    for perm in itertools.permutations(range(k)):
        # the row of input basis tuple i is that of j with j[perm[s]] = i[s],
        # as in axis_permutation_matrix; each permutation hits each cell once
        acc[flat.transpose(perm).reshape(-1), columns] += 1.0
        count += 1
    return acc / count


def orthonormal_range(projection: np.ndarray) -> np.ndarray:
    """Orthonormal column basis for the range of an orthogonal projection.

    Eigenvalues of a projection cluster at 0 and 1, so selecting
    eigenvalues above 1/2 is unambiguous.
    """
    vals, vecs = np.linalg.eigh(hermitize(projection))
    return vecs[:, vals > 0.5]


def gram_whitener(gram: np.ndarray, cutoff: float = RANGE_CUTOFF) -> np.ndarray:
    """Columns W with W* G W = I on the numerical range of G.

    Eigenvalues at or below ``cutoff`` times the largest eigenvalue are
    treated as exact zeros (a degenerate Gram matrix means genuinely
    dependent vectors, not an error).
    """
    vals, vecs = np.linalg.eigh(hermitize(gram))
    top = float(vals[-1]) if vals.size else 0.0
    if top <= 0.0:
        return np.zeros((gram.shape[0], 0))
    keep = vals > cutoff * top
    return vecs[:, keep] / np.sqrt(vals[keep])


class Whitening(NamedTuple):
    """A Gram matrix's whitener, the left factor W^H hermitize(G), and the
    count of eigenvalues below ``-cutoff`` times the largest one, which
    the whitener drops with the null directions."""

    whitener: np.ndarray
    left: np.ndarray
    negative: int


def gram_whitening(gram: np.ndarray, cutoff: float = RANGE_CUTOFF) -> Whitening:
    """Whitener of ``gram``, its left factor and its negative inertia, for
    repeated norms.

    A space that norms many operators against one Gram matrix per grade
    computes this once per grade and hands it to
    :func:`whitened_operator_norm`.
    """
    w = gram_whitener(gram, cutoff)
    herm = hermitize(gram)
    vals = np.linalg.eigvalsh(herm)
    top = max(float(vals[-1]), 0.0) if vals.size else 0.0
    negative = int(np.count_nonzero(vals < -cutoff * top))
    return Whitening(w, w.conj().T @ herm, negative)


def whitened_operator_norm(
    op: np.ndarray, out: Whitening, into: Whitening
) -> float:
    """Operator norm of ``op`` from the range behind ``into`` to the range
    behind ``out``, evaluated as ``(W_out^H G_out) @ (op @ W_in)``."""
    if into.whitener.shape[1] == 0 or out.left.shape[0] == 0:
        return 0.0
    middle = out.left @ (op @ into.whitener)
    return float(np.linalg.norm(middle, ord=2))


def gram_operator_norm(
    op: np.ndarray,
    gram_out: np.ndarray,
    gram_in: np.ndarray,
    cutoff: float = RANGE_CUTOFF,
) -> float:
    """Operator norm of ``op`` between spaces with the given Gram matrices.

    Both domain and codomain are restricted to the numerical ranges of
    their Gram matrices; vectors of zero length neither contribute norm
    nor blow it up.
    """
    return whitened_operator_norm(
        op, gram_whitening(gram_out, cutoff), gram_whitening(gram_in, cutoff)
    )
