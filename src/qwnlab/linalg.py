"""Dense linear algebra helpers shared by the Fock-space modules.

Everything here acts on explicit matrices over the grade-k coordinate space
of dimension D**k.  The recurring wrinkle is that inner products are given
by Gram matrices that are frequently singular (symmetrization kills most of
the tensor space), so operator norms are computed against a whitened
restriction to the Gram matrix's numerical range rather than against a
matrix inverse; a positive definite one is whitened by Cholesky.  The
spaces take many such norms at once, of operators that are weighted sums
of whitened basis operators: one batched Lanczos run on their products
with vectors gives them all, without forming any of the operators; the
norm of one matrix by one SVD is the oracle of the tests.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import NamedTuple

import numpy as np

RANGE_CUTOFF = 1e-12
# A Krylov norm stops once its top Ritz residual is at most this fraction
# of its Ritz value.  The whitened operators have clusters of singular
# values spread by rounding (1.8e-13 relative over 128 values for the free
# number operator over a rotated M_2 at grade 4); a Ritz value with a
# residual at the spread's level can sit anywhere inside its cluster, so
# the threshold is an order below it.
KRYLOV_TOL = 1e-14
_KRYLOV_SEED = 2003


# Triangular factors up to this many rows are inverted by ``np.linalg.inv``;
# larger ones by halves (``lower_inverse``).
_INVERSE_LEAF = 256


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Average away the anti-Hermitian part left by floating-point noise.

    The bits of ``0.5 * (mat + mat.conj().T)``, with the real and the
    imaginary part averaged straight into the one output array: no
    conjugate copy and no summed temporary.  The real part of the output
    is exactly symmetric and its imaginary part exactly antisymmetric, so
    hermitizing it again returns the same bits.
    """
    mat = np.asarray(mat)
    out = np.empty(mat.shape, np.result_type(mat.dtype, 0.5))
    if np.iscomplexobj(mat):
        np.add(mat.real, mat.real.T, out=out.real)
        np.subtract(mat.imag, mat.imag.T, out=out.imag)
    else:
        np.add(mat, mat.T, out=out)
    out *= 0.5
    return out


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


def gram_whitener(gram: np.ndarray, cutoff: float = RANGE_CUTOFF) -> tuple:
    """Columns W with W* G W = I on the numerical range of G, and the
    eigenvalues of hermitize(G), ascending, from the one ``eigh`` that
    gives W.

    Eigenvalues at or below ``cutoff`` times the largest eigenvalue are
    treated as exact zeros (a degenerate Gram matrix means genuinely
    dependent vectors, not an error).
    """
    vals, vecs = np.linalg.eigh(hermitize(gram))
    top = float(vals[-1]) if vals.size else 0.0
    if top <= 0.0:
        return np.zeros((gram.shape[0], 0)), vals
    keep = vals > cutoff * top
    return vecs[:, keep] / np.sqrt(vals[keep]), vals


class Whitening(NamedTuple):
    """A Gram matrix's whitener W, the left factor W^H hermitize(G), the
    count of eigenvalues below ``-cutoff`` times the largest one, which
    the whitener drops with the null directions, and all the eigenvalues,
    ascending."""

    whitener: np.ndarray
    left: np.ndarray
    negative: int
    eigenvalues: np.ndarray


def lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular matrix with a nonzero diagonal, by
    halves: inv([[A, 0], [B, C]]) = [[inv(A), 0], [-inv(C) B inv(A), inv(C)]],
    in matrix products of about the cost of a Cholesky factorization of
    the same size.  Blocks of at most ``_INVERSE_LEAF`` rows go to
    ``np.linalg.inv``, so a factor that small gets its bits."""
    n = len(lower)
    if n <= _INVERSE_LEAF:
        return np.linalg.inv(lower)
    h = n // 2
    out = np.zeros_like(lower)
    out[:h, :h] = lower_inverse(lower[:h, :h])
    out[h:, h:] = lower_inverse(lower[h:, h:])
    corner = out[h:, :h]
    np.matmul(out[h:, h:], lower[h:, :h] @ out[:h, :h], out=corner)
    np.negative(corner, out=corner)
    return out


def gram_whitening(gram: np.ndarray, cutoff: float = RANGE_CUTOFF) -> Whitening:
    """Whitener of the Hermitian ``gram``, its left factor, its negative
    inertia and its eigenvalues, for repeated norms.

    ``gram`` must be Hermitian: a :func:`hermitize` output, as every
    ``_metric`` of the spaces is.  It is not hermitized again.

    A Gram matrix whose lowest eigenvalue (``eigvalsh``) is above
    ``cutoff`` times its top one is whitened by Cholesky, G = L L^H, with
    W = inv(L)^H (:func:`lower_inverse`) and the left factor L^H, both
    real when G is.  Any other keeps the eigendecomposition of
    :func:`gram_whitener`, and its eigenvalues.
    """
    # a Gram matrix with no imaginary part is factored in real arithmetic
    real = gram if np.iscomplexobj(gram) and gram.imag.any() else gram.real
    vals = np.linalg.eigvalsh(real)
    if vals.size and vals[0] > cutoff * vals[-1]:
        with contextlib.suppress(np.linalg.LinAlgError):
            lower = np.linalg.cholesky(real)
            return Whitening(lower_inverse(lower).conj().T, lower.conj().T, 0, vals)
    w, vals = gram_whitener(gram, cutoff)
    top = max(float(vals[-1]), 0.0) if vals.size else 0.0
    negative = int(np.count_nonzero(vals < -cutoff * top))
    return Whitening(w, w.conj().T @ gram, negative, vals)


def krylov_operator_norms(forward, backward, shape, coeffs: np.ndarray) -> tuple:
    """Largest singular value of each ``M_t = sum_b coeffs[t, b] M_b``,
    and the relative residual of the Ritz pair it was read from.

    ``forward(x, c)`` and ``backward(y, c)`` give ``M_t x_t`` and
    ``M_t^H y_t`` for the trials' vectors, the columns of x and y, with
    their coefficients c; no ``M_t`` is formed.  One Lanczos run, batched
    over the rows of ``coeffs``, on ``H = M^H M`` or ``M M^H``.
    The basis is fully reorthogonalized (twice, which is enough).  A trial
    stops once its top Ritz residual ``|beta_j y_j|`` is at most
    ``KRYLOV_TOL`` times its top Ritz value, or once its Krylov space
    fills the side, where the Ritz values are exact.  The start vector,
    shared by all trials, comes from a generator of its own with a fixed
    seed, so no caller's random stream is drawn from.

    A Ritz value is a lower bound on the norm; the residual bounds the
    distance to an eigenvalue of H, so a caller trusts a norm only as far
    as its residual.
    """
    rows, cols = shape
    coeffs = np.asarray(coeffs)
    trials = coeffs.shape[0]
    norms, residuals = np.zeros(trials), np.zeros(trials)
    if trials == 0 or rows == 0 or cols == 0:
        return norms, residuals
    side = min(rows, cols)
    first, second = (forward, backward) if cols <= rows else (backward, forward)
    start = np.random.default_rng(_KRYLOV_SEED).standard_normal(side)
    vec = np.repeat((start / np.linalg.norm(start))[:, None], trials, axis=1)
    vec = vec.astype(complex)
    active = np.arange(trials)
    basis, alphas, betas = [], [], []
    for size in range(1, side + 1):
        basis.append(vec)
        c = coeffs[active]
        w = second(first(vec, c), c)
        q = np.stack(basis)
        alpha = np.zeros(len(active))
        for _ in range(2):
            h = np.einsum("jst,st->jt", q.conj(), w)
            w = w - np.einsum("jst,jt->st", q, h)
            alpha += h[-1].real
        beta = np.linalg.norm(w, axis=0)
        alphas.append(alpha)
        tri = np.zeros((len(active), size, size))
        steps = np.arange(size)
        tri[:, steps, steps] = np.transpose(alphas)
        if size > 1:
            tri[:, steps[1:], steps[:-1]] = np.transpose(betas)
        vals, vecs = np.linalg.eigh(tri)
        top = np.maximum(vals[:, -1], 0.0)
        residual = beta * np.abs(vecs[:, -1, -1])
        relative = np.divide(residual, top, out=np.zeros_like(top), where=top > 0)
        done = residual <= KRYLOV_TOL * top
        if size == side:
            done[:] = True
        norms[active[done]] = np.sqrt(top[done])
        residuals[active[done]] = relative[done]
        keep = ~done
        if not keep.any():
            break
        active = active[keep]
        basis = [b[:, keep] for b in basis]
        alphas = [a[keep] for a in alphas]
        betas = [b[keep] for b in betas] + [beta[keep]]
        vec = w[:, keep] / beta[keep]
    return norms, residuals


def gram_operator_norm(
    op: np.ndarray,
    gram_out: np.ndarray,
    gram_in: np.ndarray,
    cutoff: float = RANGE_CUTOFF,
) -> float:
    """Operator norm of ``op`` between spaces with the given Gram matrices.

    Both domain and codomain are restricted to the numerical ranges of
    their Gram matrices; vectors of zero length neither contribute norm
    nor blow it up.  The norm is that of ``(W_out^H G_out) @ (op @ W_in)``,
    by one SVD, with both Grams hermitized first.
    """
    out = gram_whitening(hermitize(gram_out), cutoff)
    into = gram_whitening(hermitize(gram_in), cutoff)
    if into.whitener.shape[1] == 0 or out.left.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(out.left @ (op @ into.whitener), ord=2))
