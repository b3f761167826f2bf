"""Point-picture model: measure anchors and agreement with the tensor route."""

from collections import Counter

import numpy as np
import pytest

from qwnlab.algebra import FunctionAlgebra, MatrixAlgebra
from qwnlab.bosonic import BosonicSpace
from qwnlab.diagonal import DiagonalRepresentation
from qwnlab.graded import GradeOverflowError


def test_level_one_measure_is_twice_gamma0_weights():
    w = np.array([0.5, 1.25])
    g0 = 0.75
    rep = DiagonalRepresentation(FunctionAlgebra(w), max_grade=2, gamma0=g0)
    assert np.allclose(rep.measure(1), 2.0 * g0 * w)


def test_one_point_masses():
    # single point of weight 1: total masses 2, 4, 8 at grades 1, 2, 3
    rep = DiagonalRepresentation(FunctionAlgebra([1.0]), max_grade=3)
    assert rep.measure(0) == pytest.approx(1.0)
    assert rep.measure(1)[0] == pytest.approx(2.0)
    assert rep.measure(2)[0, 0] == pytest.approx(4.0)
    assert rep.measure(3)[0, 0, 0] == pytest.approx(8.0)


def test_measure_matches_tensor_gram():
    # the two routes sum the same partition terms in different orders, so
    # agreement is to rounding, a few ulp, not bit-exact
    rep = DiagonalRepresentation(
        FunctionAlgebra([0.5, 0.25]), max_grade=3, gamma0=0.5
    )
    records = rep.check_measure_is_gram_diagonal()
    assert records[0].status == "pass"
    assert records[0].residual < 1e-14


def test_inner_products_and_operators_match():
    rng = np.random.default_rng(21)
    rep = DiagonalRepresentation(FunctionAlgebra([1.0, 0.5]), max_grade=3)
    for record in rep.check_inner_products(rng, trials=5):
        assert record.status == "pass"
    for record in rep.check_operators(rng, trials=5):
        assert record.status == "pass"


def test_the_cross_checks_build_each_recursive_gram_once(monkeypatch):
    # the checks share one tensor space, whose hermitized Gram cache the
    # measure and inner-product checks both read
    calls = Counter()
    gram_matrix = BosonicSpace.gram_matrix

    def counting(self, k, *args, **kwargs):
        calls[k] += 1
        return gram_matrix(self, k, *args, **kwargs)

    monkeypatch.setattr(BosonicSpace, "gram_matrix", counting)
    rep = DiagonalRepresentation(FunctionAlgebra([0.5, 0.25]), max_grade=3)
    rng = np.random.default_rng(22)
    records = rep.check_measure_is_gram_diagonal()
    records += rep.check_inner_products(rng, trials=2)
    records += rep.check_operators(rng, trials=2)
    assert all(record.status == "pass" for record in records)
    assert calls == Counter({k: 1 for k in range(4)})


def test_annihilation_anchor_single_point():
    # integrating out the last slot of the pair tensor and doubling the
    # remaining slot gives 2 gamma0 w + 2 = 4 at w = gamma0 = 1
    rep = DiagonalRepresentation(FunctionAlgebra([1.0]), max_grade=2)
    f = np.ones((1, 1))
    out = rep.apply_annihilation(np.ones(1), f)
    assert out[0] == pytest.approx(4.0)


def test_rejects_wrong_inputs():
    with pytest.raises(ValueError):
        DiagonalRepresentation(MatrixAlgebra(2), max_grade=2)
    rep = DiagonalRepresentation(FunctionAlgebra([1.0]), max_grade=2)
    with pytest.raises(ValueError):
        rep.apply_annihilation(np.ones(1), np.ones(()))
    with pytest.raises(GradeOverflowError):
        rep.measure(5)
    with pytest.raises(ValueError):
        rep.inner_product(np.ones((1, 1)), np.ones(1))
