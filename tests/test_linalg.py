"""Dense helpers: slot permutations, symmetrizers, Gram-aware norms."""

import itertools

import numpy as np
import pytest

from qwnlab.linalg import (
    axis_permutation_matrix,
    gram_operator_norm,
    gram_whitener,
    gram_whitening,
    hermitize,
    orthonormal_range,
    symmetrizer_matrix,
    whitened_operator_norm,
)


def _basis_tensor(dim, indices):
    vec = np.zeros(dim ** len(indices))
    flat = 0
    for i in indices:
        flat = flat * dim + i
    vec[flat] = 1.0
    return vec


def test_axis_permutation_matrix_basis_action():
    # input slot s feeds output slot perm[s]
    dim = 2
    perm = (1, 2, 0)
    mat = axis_permutation_matrix(dim, perm)
    for idx in np.ndindex(*(dim,) * 3):
        image = mat @ _basis_tensor(dim, idx)
        target = [None] * 3
        for s in range(3):
            target[perm[s]] = idx[s]
        assert np.array_equal(image, _basis_tensor(dim, tuple(target)))
    # on coefficient tensors this is transpose by the inverse permutation
    t = np.arange(8.0).reshape(2, 2, 2)
    out = (mat @ t.reshape(-1)).reshape(2, 2, 2)
    assert np.allclose(out, np.transpose(t, np.argsort(perm)))
    with pytest.raises(ValueError):
        axis_permutation_matrix(2, (0, 0, 1))


def test_symmetrizer_is_projection_onto_symmetric_tensors():
    p = symmetrizer_matrix(2, 3)
    assert np.allclose(p @ p, p)
    assert np.allclose(p, p.conj().T)
    assert np.allclose(symmetrizer_matrix(3, 0), np.eye(1))
    # rank equals the number of multisets: C(dim + k - 1, k) = C(4, 3) = 4
    assert round(np.trace(p).real) == 4
    # symmetric vectors are fixed
    v = np.zeros(8)
    v[1] = v[2] = v[4] = 1.0  # e001 + e010 + e100 symmetrized already
    assert np.allclose(p @ v, v)


def test_orthonormal_range_of_projection():
    p = symmetrizer_matrix(2, 2)
    basis = orthonormal_range(p)
    assert basis.shape == (4, 3)
    assert np.allclose(basis.conj().T @ basis, np.eye(3))
    assert np.allclose(p @ basis, basis)


def test_gram_whitener_handles_degenerate_gram():
    gram = np.diag([4.0, 1.0, 0.0])
    w = gram_whitener(gram)
    assert w.shape == (3, 2)
    assert np.allclose(w.conj().T @ gram @ w, np.eye(2))
    assert gram_whitener(np.zeros((2, 2))).shape == (2, 0)


def test_whitening_counts_the_negative_eigenvalues_it_drops():
    # -1 and -2 lie below -cutoff * top; -1e-20 is a numerical zero
    gram = np.diag([4.0, 1.0, 0.0, -1.0, -2.0, -1e-20])
    whitening = gram_whitening(gram)
    assert whitening.whitener.shape == (6, 2)
    assert whitening.negative == 2
    assert gram_whitening(np.eye(3)).negative == 0
    assert gram_whitening(np.zeros((2, 2))).negative == 0


def test_gram_operator_norm_weighted_case():
    # multiplication by diag(3, 1) between identical weighted spaces: the
    # Gram weights cancel and the norm is the largest absolute entry.
    gram = np.diag([0.5, 2.0])
    op = np.diag([3.0, 1.0])
    assert gram_operator_norm(op, gram, gram) == pytest.approx(3.0)
    # a map into a direction of zero length contributes nothing
    gram_out = np.diag([1.0, 0.0])
    op = np.array([[0.0, 0.0], [5.0, 0.0]])
    assert gram_operator_norm(op, gram_out, np.eye(2)) == pytest.approx(0.0)


def test_cached_whitening_norm_equals_gram_operator_norm():
    # degenerate Gram matrices on both sides: the cached path must give
    # the very same float as the one-shot wrapper
    rng = np.random.default_rng(5)
    basis = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    gram_in = basis @ basis.conj().T
    gram_out = np.diag([2.0, 0.5, 0.0]).astype(complex)
    out, into = gram_whitening(gram_out), gram_whitening(gram_in)
    assert into.whitener.shape == (4, 2)
    for _ in range(5):
        op = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        cached = whitened_operator_norm(op, out, into)
        assert cached == gram_operator_norm(op, gram_out, gram_in)
        assert cached > 0.0
    zero = gram_whitening(np.zeros((3, 3)))
    assert whitened_operator_norm(op, zero, into) == 0.0


def _symmetrizer_by_dense_sum(dim, k):
    acc = np.zeros((dim**k, dim**k))
    perms = list(itertools.permutations(range(k)))
    for perm in perms:
        acc += axis_permutation_matrix(dim, perm)
    return acc / len(perms)


def test_symmetrizer_matches_dense_permutation_sum():
    for dim in (2, 3, 4):
        for k in range(1, 5):
            assert np.array_equal(
                symmetrizer_matrix(dim, k), _symmetrizer_by_dense_sum(dim, k)
            )


def test_hermitize():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    h = hermitize(m)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0], [1.0, 1.0]])
