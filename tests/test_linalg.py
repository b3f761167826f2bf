"""Dense helpers: slot permutations, symmetrizers, Gram-aware norms, and
the batched Krylov norms against the SVD."""

import itertools
import warnings

import numpy as np
import pytest

from qwnlab.linalg import (
    KRYLOV_TOL,
    axis_permutation_matrix,
    gram_operator_norm,
    gram_whitener,
    gram_whitening,
    hermitize,
    krylov_operator_norms,
    lower_inverse,
    orthonormal_range,
    symmetrizer_matrix,
)


def whitened_operator_norm(op, out, into):
    """Operator norm of ``op`` from the range behind the whitening ``into``
    to the range behind ``out``, as ``(W_out^H G_out) @ (op @ W_in)`` by
    one SVD: ``gram_operator_norm`` on cached whitenings, and the oracle of
    the Krylov norms."""
    if into.whitener.shape[1] == 0 or out.left.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(out.left @ (op @ into.whitener), ord=2))


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
    w, eigenvalues = gram_whitener(gram)
    assert w.shape == (3, 2)
    assert np.allclose(w.conj().T @ gram @ w, np.eye(2))
    assert np.array_equal(eigenvalues, [0.0, 1.0, 4.0])
    assert gram_whitener(np.zeros((2, 2)))[0].shape == (2, 0)


def test_whitening_counts_the_negative_eigenvalues_it_drops():
    # -1 and -2 lie below -cutoff * top; -1e-20 is a numerical zero
    gram = np.diag([4.0, 1.0, 0.0, -1.0, -2.0, -1e-20])
    whitening = gram_whitening(gram)
    assert whitening.whitener.shape == (6, 2)
    assert whitening.negative == 2
    assert np.array_equal(whitening.eigenvalues, np.linalg.eigvalsh(gram))
    assert gram_whitening(np.eye(3)).negative == 0
    assert gram_whitening(np.zeros((2, 2))).negative == 0


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_a_definite_gram_is_whitened_by_cholesky(real, monkeypatch):
    # W^H G W = I and W^H G = L^H from one eigvalsh and one Cholesky, no
    # eigh; a real Gram stored as complex is factored in real arithmetic;
    # the norms match those of the eigendecomposition's whitening
    rng = np.random.default_rng(7)
    size = 12
    raw = _complex(rng, (size, size))
    if real:
        raw = raw.real.astype(complex)
    gram = raw @ raw.conj().T + 0.1 * np.eye(size)

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    whitening = gram_whitening(gram)
    monkeypatch.undo()
    w, left = whitening.whitener, whitening.left
    assert np.isrealobj(w) == np.isrealobj(left) == real
    assert np.abs(w.conj().T @ gram @ w - np.eye(size)).max() <= 1e-13
    assert np.abs(left - w.conj().T @ gram).max() <= 1e-13 * np.abs(left).max()
    assert np.array_equal(np.tril(left.conj().T), left.conj().T)
    assert whitening.negative == 0
    assert np.abs(whitening.eigenvalues - np.linalg.eigvalsh(gram)).max() <= 1e-12
    vals, vecs = np.linalg.eigh(gram)
    eigen = vecs / np.sqrt(vals)
    for _ in range(3):
        op = _complex(rng, (size, size))
        expected = np.linalg.norm(eigen.conj().T @ gram @ op @ eigen, ord=2)
        norm = whitened_operator_norm(op, whitening, whitening)
        assert abs(norm - expected) <= 1e-13 * expected


def test_a_singular_or_indefinite_gram_keeps_the_eigendecomposition():
    # lowest eigenvalue at or below the cutoff times the top one: eigh,
    # and its eigenvalues
    rng = np.random.default_rng(8)
    basis = _complex(rng, (6, 3))
    for gram in (basis @ basis.conj().T, np.diag([3.0, 1.0, -1.0]), np.zeros((2, 2))):
        whitening = gram_whitening(gram)
        w, vals = gram_whitener(gram)
        assert np.array_equal(whitening.whitener, w)
        assert np.array_equal(whitening.eigenvalues, vals)


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


def test_gram_operator_norm_hermitizes_its_grams():
    # gram_whitening takes a Hermitian Gram as it is; the one-shot norm
    # hermitizes what it is given first
    rng = np.random.default_rng(23)
    raw = _complex(rng, (5, 5))
    gram = raw @ raw.conj().T + np.eye(5) + 1e-3 * _complex(rng, (5, 5))
    op = _complex(rng, (5, 5))
    herm = hermitize(gram)
    assert gram_operator_norm(op, gram, gram) == gram_operator_norm(op, herm, herm)
    out = gram_whitening(herm)
    assert gram_operator_norm(op, gram, gram) == whitened_operator_norm(op, out, out)


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


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_hermitize_has_the_bits_of_the_averaged_sum_and_is_idempotent(real):
    # written in place, it keeps the bits of 0.5 * (m + m^H); on its own
    # output it returns the same bits, so a metric is not hermitized twice
    rng = np.random.default_rng(17)
    for size in (1, 5, 64):
        m = _complex(rng, (size, size))
        if real:
            m = m.real
        h = hermitize(m)
        expected = 0.5 * (m + m.conj().T)
        assert h.dtype == expected.dtype
        assert np.array_equal(h, expected)
        again = hermitize(h)
        assert np.array_equal(again, h)
        assert np.array_equal(np.signbit(again.view(float)), np.signbit(h.view(float)))


def _lower_factor(rng, size, real):
    raw = rng.standard_normal((size, size))
    if not real:
        raw = raw + 1j * rng.standard_normal((size, size))
    return np.linalg.cholesky(raw @ raw.conj().T + size * np.eye(size))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_lower_inverse_keeps_inv_up_to_the_leaf_and_matches_it_above(real):
    rng = np.random.default_rng(19)
    for size in (1, 100, 256):
        lower = _lower_factor(rng, size, real)
        assert np.array_equal(lower_inverse(lower), np.linalg.inv(lower)), size
    # by halves above 256 rows: 300 splits once, 700 and 1100 twice
    for size in (300, 700, 1100):
        lower = _lower_factor(rng, size, real)
        expected = np.linalg.inv(lower)
        inverse = lower_inverse(lower)
        assert np.iscomplexobj(inverse) != real
        assert np.array_equal(np.triu(inverse, 1), np.zeros_like(inverse))
        gap = np.abs(inverse - expected).max() / np.abs(expected).max()
        assert gap <= 1e-13, (size, gap)


def stack_products(stack):
    """``krylov_operator_norms``'s products and shape for the operators
    weighed from the matrices ``stack[b]``: one matrix product of the stack
    with the trials' vectors, contracted with their coefficients.  The
    route the package's norms took on whole basis operators, kept as the
    oracle."""
    dim, rows, cols = stack.shape
    flat = stack.reshape(dim * rows, cols)

    def forward(x, c):
        return np.einsum("tb,bmt->mt", c, (flat @ x).reshape(dim, rows, -1))

    def backward(y, c):
        return np.einsum("tb,btn->nt", c, np.matmul(y.conj().T, stack)).conj()

    return forward, backward, (rows, cols)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _svd_norms(stack, coeffs):
    return np.array(
        [
            np.linalg.svd(np.tensordot(c, stack, axes=1), compute_uv=False)[0]
            for c in coeffs
        ]
    )


def _check_against_svd(stack, coeffs):
    """The Krylov norms within 1e-13 relative of the SVD, each with its
    residual at most the threshold; no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms, residuals = krylov_operator_norms(*stack_products(stack), coeffs)
    expected = _svd_norms(stack, coeffs)
    assert norms.shape == residuals.shape == (len(coeffs),)
    assert (np.abs(norms - expected) <= 1e-13 * expected).all(), (norms, expected)
    assert (residuals <= KRYLOV_TOL).all(), residuals
    return norms, residuals


def test_krylov_norm_of_an_all_zero_coefficient_row_is_exactly_zero():
    rng = np.random.default_rng(1)
    stack = _complex(rng, (3, 6, 5))
    coeffs = _complex(rng, (3, 3))
    coeffs[1] = 0.0
    norms, residuals = _check_against_svd(stack, coeffs)
    assert norms[1] == 0.0 and residuals[1] == 0.0
    assert (norms[[0, 2]] > 0).all()


def test_krylov_norms_on_a_one_column_side():
    # creation out of grade 0: one column, so the Ritz value is exact
    rng = np.random.default_rng(2)
    _check_against_svd(_complex(rng, (4, 9, 1)), _complex(rng, (5, 4)))
    _check_against_svd(_complex(rng, (4, 1, 9)), _complex(rng, (5, 4)))


@pytest.mark.parametrize("shape", [(3, 11, 4), (3, 4, 11), (2, 40, 17), (2, 17, 40)])
def test_krylov_norms_on_rectangular_stacks(shape):
    rng = np.random.default_rng(3)
    _check_against_svd(_complex(rng, shape), _complex(rng, (6, shape[0])))
    real = rng.standard_normal(shape)
    _check_against_svd(real, rng.standard_normal((6, shape[0])))


def test_krylov_norm_of_a_non_normal_matrix():
    # upper triangular with all eigenvalues 0.5 and a large complex strict
    # upper part: far from normal, its norm is not an eigenvalue's modulus
    rng = np.random.default_rng(4)
    size = 12
    mat = 0.5 * np.eye(size) + np.triu(3.0 * _complex(rng, (size, size)), 1)
    norms, _ = _check_against_svd(mat[None], np.ones((1, 1)))
    assert norms[0] > 10.0


def test_krylov_norm_with_the_top_pair_split_by_1e_9():
    rng = np.random.default_rng(5)
    rows, cols = 30, 20
    left, _ = np.linalg.qr(_complex(rng, (rows, cols)))
    right, _ = np.linalg.qr(_complex(rng, (cols, cols)))
    values = np.concatenate([[1.0, 1.0 - 1e-9], np.linspace(0.9, 0.1, cols - 2)])
    mat = (left * values) @ right.conj().T
    norms, _ = _check_against_svd(mat[None], np.ones((1, 1)))
    assert abs(norms[0] - 1.0) <= 1e-13
