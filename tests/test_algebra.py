"""Base *-algebras, random elements, graded vectors."""

import numpy as np
import pytest

from qwnlab.algebra import (
    FunctionAlgebra,
    MatrixAlgebra,
    basis_word_products,
    pair_product_state_tensors,
    random_element,
)
from qwnlab.graded import GradedVector, GradeOverflowError


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


def test_pair_product_state_tensors_against_loops():
    alg = FunctionAlgebra([0.5, 1.5])
    tensors = pair_product_state_tensors(alg, 2)
    basis = alg.basis()
    for i, j in np.ndindex(2, 2):
        direct = alg.state(alg.mul(alg.star(basis[i]), basis[j]))
        assert tensors[0][i, j] == pytest.approx(direct)
    for i1, j1, i2, j2 in np.ndindex(2, 2, 2, 2):
        word = alg.mul(
            alg.mul(alg.star(basis[i1]), basis[j1]),
            alg.mul(alg.star(basis[i2]), basis[j2]),
        )
        assert tensors[1][i1, j1, i2, j2] == pytest.approx(alg.state(word))


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
    vac = GradedVector.vacuum(2, 3)
    assert vac.max_grade == 3
    assert vac.vacuum_component() == 1.0
    assert all(p.size == 2**k for k, p in enumerate(vac.parts))
    zero = GradedVector.zero(2, 3)
    combo = vac.scaled(2.0).add(zero)
    assert combo.vacuum_component() == 2.0
    with pytest.raises(ValueError):
        GradedVector(2, [np.ones(3)])
    with pytest.raises(ValueError):
        vac.add(GradedVector.zero(2, 2))


def test_grade_overflow_error_is_raised_not_silenced():
    from qwnlab.bosonic import CREATION, BosonicSpace

    space = BosonicSpace(FunctionAlgebra([1.0]), max_grade=2)
    vec = GradedVector.vacuum(1, 2)
    top = space.apply(CREATION, np.ones(1), space.apply(CREATION, np.ones(1), vec))
    with pytest.raises(GradeOverflowError):
        space.apply(CREATION, np.ones(1), top)
