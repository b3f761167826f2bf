"""Finite *-algebras carrying a state.

Two concrete carriers share one small interface:

* :class:`FunctionAlgebra` - complex functions on a finite weighted point
  set, pointwise product, conjugation as involution, state = integration
  against the weights.  Commutative, trivially tracial.
* :class:`MatrixAlgebra` - a full complex matrix algebra with the
  normalized trace.  Noncommutative (for n >= 2) but tracial.

Elements are plain numpy arrays: shape ``(dim,)`` for functions, ``(n, n)``
for matrices.  All operations broadcast over leading batch axes, which the
Fock-space builders rely on for vectorized Gram assembly.

Besides the carriers, this module holds the batched structure tensors the
graded spaces consume: interleaved pair-product state tensors (for the
partition-weighted Gram forms) and plain word-product tensors (for the
interval factors of the free Gram).
"""

from __future__ import annotations

import numpy as np


def _scalar(values):
    """A float for the value of one element, the array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


class FunctionAlgebra:
    """Functions on a finite set of points with strictly positive weights."""

    kind = "functions"
    commutative = True

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all(w > 0):
            raise ValueError("point weights must be strictly positive")
        self.weights = w
        self.dim = int(w.size)
        self.total_mass = float(w.sum())

    def __repr__(self):
        return f"FunctionAlgebra(dim={self.dim}, total_mass={self.total_mass:g})"

    def unit(self):
        return np.ones(self.dim, dtype=complex)

    def basis(self):
        """Delta functions at the points, stacked along the first axis."""
        return np.eye(self.dim, dtype=complex)

    def _check(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"element has wrong trailing shape for dim {self.dim}")
        return x

    def mul(self, x, y):
        return self._check(x) * self._check(y)

    def star(self, x):
        return np.conj(self._check(x))

    def state(self, x):
        """Weighted sum over the points; batched over leading axes."""
        return self._check(x) @ self.weights.astype(complex)

    def coords(self, x):
        return self._check(x)

    def left_mult_matrix(self, x):
        return np.diag(self._check(x))

    def norm_l2(self, x):
        # the state of each element as a (1, dim) row, one dot product as
        # for a single element, so that a stack does not change its bits
        prod = self.mul(self.star(x), x)
        return _scalar(np.sqrt(np.real(self.state(prod[..., None, :])[..., 0])))

    def norm_linf(self, x):
        """Operator norm of multiplication by x on the GNS space.

        For positive weights this is the plain sup of |x| over the points,
        independently of the weights.
        """
        return _scalar(np.abs(self._check(x)).max(axis=-1))


class MatrixAlgebra:
    """Full matrix algebra M_n(C) with the normalized trace as state."""

    kind = "matrices"

    def __init__(self, n):
        n = int(n)
        if n < 1:
            raise ValueError("matrix order must be >= 1")
        self.n = n
        self.dim = n * n
        self.commutative = n == 1

    def __repr__(self):
        return f"MatrixAlgebra(n={self.n})"

    def unit(self):
        return np.eye(self.n, dtype=complex)

    def basis(self):
        """Matrix units E_(r,s) stacked with index r*n + s."""
        return np.eye(self.dim, dtype=complex).reshape(self.dim, self.n, self.n)

    def _check(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape[-2:] != (self.n, self.n):
            raise ValueError(f"element has wrong trailing shape for order {self.n}")
        return x

    def mul(self, x, y):
        return np.matmul(self._check(x), self._check(y))

    def star(self, x):
        return np.conj(np.swapaxes(self._check(x), -1, -2))

    def state(self, x):
        return np.trace(self._check(x), axis1=-2, axis2=-1) / self.n

    def coords(self, x):
        x = self._check(x)
        return x.reshape(x.shape[:-2] + (self.dim,))

    def left_mult_matrix(self, x):
        return np.kron(self._check(x), np.eye(self.n, dtype=complex))

    def norm_l2(self, x):
        return _scalar(np.sqrt(np.real(self.state(self.mul(self.star(x), x)))))

    def norm_linf(self, x):
        # GNS multiplication norm for the trace = largest singular value.
        return _scalar(np.linalg.norm(self._check(x), ord=2, axis=(-2, -1)))


def random_element(alg, rng, real=False, dyadic=False, support=None):
    """Draw a random algebra element.

    ``dyadic`` restricts entries to multiples of 1/4 in [-1, 1] so that
    shallow products and pairings stay exact in floating point; the rewrite
    engine's confluence checks depend on that.  ``support`` (functions only)
    zeroes the element outside the given point indices.
    """
    shape = (alg.dim,) if alg.kind == "functions" else (alg.n, alg.n)
    if dyadic:
        def draw():
            v = rng.integers(-4, 5, size=shape).astype(float) / 4.0
            return v
    else:
        def draw():
            return rng.standard_normal(shape)
    x = draw().astype(complex)
    if not real:
        x = x + 1j * draw()
    if support is not None:
        if alg.kind != "functions":
            raise ValueError("support masks only make sense for function algebras")
        mask = np.zeros(alg.dim, dtype=bool)
        mask[list(support)] = True
        x = np.where(mask, x, 0.0)
    if not np.any(x):
        # avoid the zero element; retry deterministically
        return random_element(alg, rng, real=real, dyadic=dyadic, support=support)
    return x


def random_weights(rng, size=None):
    """Dyadic point weights, each one of 1/4, 1/2, 3/4 or 1."""
    return (1.0 + rng.integers(0, 4, size)) / 4.0


def pair_product_state_tensors(alg, kmax):
    """State tensors of interleaved pair products, for the graded Gram forms.

    Returns the list [M_1, ..., M_kmax]; M_m has shape (D,)*2m and entry

        M_m[i1..im, j1..jm] = state( star(e_i1) e_j1 ... star(e_im) e_jm )

    with the chain multiplied left to right.  The tensor depends only on the
    chain length, so every block of every partition reuses it; the block
    merely decides which global tensor slots wire to which axes.

    The state of a product x y is the bilinear form
    form[a, b] = state(e_a e_b) on the coordinates of x and y, so M_m
    contracts the coordinates of the length m - 1 chain against those of
    the last pair through it, and no chain is multiplied out to length
    kmax.  The largest array held is M_kmax itself, D**(2 kmax) entries.
    """
    D = alg.dim
    basis = alg.basis()
    # C[i, j] = star(e_i) e_j
    pair = alg.mul(alg.star(basis)[:, None], basis[None, :])
    form = alg.state(alg.mul(basis[:, None], basis[None, :]))
    # closing[i, x, j] = state(e_x star(e_i) e_j)
    closing = np.einsum("xy,ijy->ixj", form, alg.coords(pair))
    tensors, chain = [alg.state(pair)], pair
    for m in range(2, kmax + 1):
        if m > 2:
            a = chain.shape[0]
            grown = alg.mul(
                chain[:, None, :, None],
                pair[None, :, None, :],
            )
            chain = grown.reshape((a * D, a * D) + grown.shape[4:])
        # one (I, J) by x product per last pair i, written straight into
        # the (I, i, J, j) layout of the result
        coords = alg.coords(chain)
        product = np.matmul(coords[:, None], closing)
        tensors.append(product.reshape((D,) * (2 * m)))
    return tensors


def basis_word_products(alg, kmax):
    """Chain products of basis elements: L_m[i1..im] = e_i1 ... e_im.

    Returned flattened as shape (D**m, *element_shape) for m = 1..kmax.
    """
    basis = alg.basis()
    D = alg.dim
    out = [basis]
    chain = basis
    for _ in range(2, kmax + 1):
        a = chain.shape[0]
        chain = alg.mul(chain[:, None], basis[None, :]).reshape((a * D,) + basis.shape[1:])
        out.append(chain)
    return out
