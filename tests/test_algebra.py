"""Base *-algebras, random elements, graded vectors."""

import tracemalloc

import numpy as np
import pytest

from qwnlab.algebra import (
    FunctionAlgebra,
    MatrixAlgebra,
    basis_word_products,
    pair_product_state_tensors,
    random_element,
)
from qwnlab.graded import GradeOverflowError
from test_graded import RotatedMatrixAlgebra


def test_function_algebra_operations():
    alg = FunctionAlgebra([0.5, 0.25, 0.25])
    f = np.array([1.0, 2.0j, -1.0])
    g = np.array([2.0, 1.0, 1.0 + 1j])
    assert np.allclose(alg.mul(f, g), f * g)
    assert np.allclose(alg.star(f), np.conj(f))
    assert alg.state(alg.unit()) == pytest.approx(1.0)
    assert alg.state(f) == pytest.approx(0.5 + 0.5j - 0.25)
    # state is positive on star(x) * x
    assert alg.state(alg.mul(alg.star(f), f)).real > 0
    assert alg.norm_linf(f) == pytest.approx(2.0)
    assert alg.norm_l2(alg.unit()) == pytest.approx(1.0)


def test_function_algebra_validation():
    with pytest.raises(ValueError):
        FunctionAlgebra([])
    with pytest.raises(ValueError):
        FunctionAlgebra([1.0, -0.5])
    alg = FunctionAlgebra([1.0, 1.0])
    with pytest.raises(ValueError):
        alg.mul(np.ones(3), np.ones(3))


def test_matrix_algebra_operations():
    alg = MatrixAlgebra(2)
    assert alg.dim == 4
    assert not alg.commutative
    assert MatrixAlgebra(1).commutative
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    y = x.T
    assert np.allclose(alg.mul(x, y), [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(alg.star(x), y)
    assert alg.state(alg.unit()) == pytest.approx(1.0)
    assert alg.state(alg.mul(x, y)) == pytest.approx(0.5)
    # traciality of the normalized trace
    assert alg.state(alg.mul(x, y)) == pytest.approx(alg.state(alg.mul(y, x)))
    assert alg.norm_linf(x) == pytest.approx(1.0)


def test_matrix_coords_round_trip():
    alg = MatrixAlgebra(2)
    rng = np.random.default_rng(0)
    x = random_element(alg, rng)
    assert np.allclose(
        alg.left_mult_matrix(x) @ alg.coords(alg.unit()), alg.coords(x)
    )


def test_random_element_dyadic():
    alg = FunctionAlgebra([1.0, 1.0, 1.0])
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = random_element(alg, rng, dyadic=True)
        assert np.all(np.abs(x.real) <= 1.0)
        assert np.allclose(x.real * 4, np.round(x.real * 4))
        assert np.allclose(x.imag * 4, np.round(x.imag * 4))
        assert np.any(x)
    y = random_element(alg, rng, real=True)
    assert np.allclose(y.imag, 0.0)
    z = random_element(alg, rng, support=[0])
    assert np.all(z[1:] == 0)
    with pytest.raises(ValueError):
        random_element(MatrixAlgebra(2), rng, support=[0])


CHAIN_ALGEBRAS = {
    "f2": lambda: FunctionAlgebra([0.5, 1.5]),
    "m2": lambda: MatrixAlgebra(2),
    "rotated": lambda: RotatedMatrixAlgebra(2),
}


@pytest.mark.parametrize("name", sorted(CHAIN_ALGEBRAS))
def test_pair_product_state_tensors_against_loops(name):
    # the delta basis of a function algebra pairs only equal indices, so
    # only the matrix bases pin the axis order [i1..im, j1..jm]
    alg = CHAIN_ALGEBRAS[name]()
    tensors = pair_product_state_tensors(alg, 3)
    basis = alg.basis()
    for m, tensor in enumerate(tensors, 1):
        expected = np.empty(tensor.shape, dtype=complex)
        for index in np.ndindex(tensor.shape):
            word = alg.unit()
            for i, j in zip(index[:m], index[m:]):
                word = alg.mul(alg.mul(word, alg.star(basis[i])), basis[j])
            expected[index] = alg.state(word)
        np.testing.assert_allclose(tensor, expected, rtol=0, atol=1e-14)


def test_pair_product_state_tensors_hold_little_beyond_their_output():
    # the last tensor is contracted from the shorter chain and the state's
    # bilinear form: a chain multiplied out to length 4 over M_2 would be a
    # 4 MB array for a 1 MB output
    tracemalloc.start()
    try:
        tensors = pair_product_state_tensors(MatrixAlgebra(2), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(t.nbytes for t in tensors)
    assert peak <= 2 * returned, (peak, returned)


def test_basis_word_products_matrix_case():
    alg = MatrixAlgebra(2)
    words = basis_word_products(alg, 2)
    basis = alg.basis()
    assert words[0].shape == (4, 2, 2)
    # entry (i, j) of the length-2 list is e_i e_j flattened at index 4*i + j
    for i in range(4):
        for j in range(4):
            assert np.allclose(words[1][4 * i + j], alg.mul(basis[i], basis[j]))


def test_graded_vector_shapes_and_vacuum():
    from qwnlab.bosonic import CREATION, NUMBER, BosonicSpace

    # a graded vector is a list: entry k holds grade k, None an empty grade
    space = BosonicSpace(FunctionAlgebra([1.0, 0.5]), max_grade=3)
    chi = np.ones(2)
    vacuum = [np.ones(1)]
    out = space.apply(CREATION, chi, vacuum)
    assert len(out) == 4 and out[1].shape == (2,)
    assert out[0] is None and out[2] is None and out[3] is None
    assert space.apply(NUMBER, chi, vacuum) == [None] * 4
    assert space.vacuum_expectation(()) == 1.0
    with pytest.raises(ValueError):
        space.apply(CREATION, chi, [np.ones(1), np.ones(3)])
    with pytest.raises(ValueError):
        space.apply(CREATION, chi, [np.ones(1)] + [None] * 4)


def test_grade_overflow_error_is_raised_not_silenced():
    from qwnlab.bosonic import CREATION, BosonicSpace

    space = BosonicSpace(FunctionAlgebra([1.0]), max_grade=2)
    vec = [np.ones(1)]
    top = space.apply(CREATION, np.ones(1), space.apply(CREATION, np.ones(1), vec))
    with pytest.raises(GradeOverflowError):
        space.apply(CREATION, np.ones(1), top)
