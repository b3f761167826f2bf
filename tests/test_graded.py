"""Operator words composed by the graded scaffold (GradedFockSpace.word_matrix)."""

import numpy as np
import pytest

from qwnlab.algebra import FunctionAlgebra, MatrixAlgebra, random_element
from qwnlab.bosonic import BosonicSpace
from qwnlab.free import FreeSpace
from qwnlab.graded import ANNIHILATION, CREATION, GradeOverflowError
from qwnlab.qdeform import QFockSpace

SPACES = {
    "bosonic": lambda: BosonicSpace(MatrixAlgebra(2), 4, 0.7),
    "free": lambda: FreeSpace(FunctionAlgebra([0.5, 0.75, 1.0]), 4, 0.7),
    "qdeform": lambda: QFockSpace(2, 0.5, 4),
}


@pytest.fixture(params=sorted(SPACES))
def space(request):
    return SPACES[request.param]()


def _symbols(space, count):
    rng = np.random.default_rng(11)
    return [random_element(space.algebra, rng) for _ in range(count)]


def test_word_matches_the_hand_written_product(space):
    a, b, c, d = _symbols(space, 4)
    word = [(ANNIHILATION, a), (ANNIHILATION, b), (CREATION, c), (CREATION, d)]
    om = space.operator_matrix
    expected = (
        om(ANNIHILATION, a, 2)
        @ om(ANNIHILATION, b, 3)
        @ om(CREATION, c, 2)
        @ om(CREATION, d, 1)
    )
    assert np.array_equal(space.word_matrix(word, 1), expected)


def test_annihilating_the_vacuum_gives_zero(space):
    (x,) = _symbols(space, 1)
    mat = space.word_matrix([(CREATION, x), (ANNIHILATION, x)], 0)
    assert mat.shape == (1, 1) and not mat.any()


def test_a_vanishing_word_builds_no_factor(space, monkeypatch):
    x, y = _symbols(space, 2)
    built = []

    def counting(kind, symbol, k):
        built.append((kind, k))
        return type(space).operator_matrix(space, kind, symbol, k)

    monkeypatch.setattr(space, "operator_matrix", counting)
    word = [(CREATION, x), (CREATION, y), (ANNIHILATION, x), (ANNIHILATION, y)]
    mat = space.word_matrix(word, 1)
    dim = space.algebra.dim
    assert mat.shape == (dim, dim) and not mat.any()
    assert built == []


def test_creation_past_the_top_grade_raises(space):
    (x,) = _symbols(space, 1)
    with pytest.raises(GradeOverflowError):
        space.word_matrix([(CREATION, x), (CREATION, x)], 3)
