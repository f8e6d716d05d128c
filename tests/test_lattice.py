import numpy as np
import pytest

from riesz_sip.lattice import (
    DimensionMismatch,
    NonFinite,
    as_lattice_vector,
    cone_gap,
    in_positive_cone,
    rel_residual,
)
from riesz_sip.means import box_plus, box_times


def test_in_positive_cone():
    assert in_positive_cone(np.array([0.0, 2.0]), tol=0.0)
    assert in_positive_cone(np.array([-1e-12, 1.0]), tol=1e-10)
    assert not in_positive_cone(np.array([-1.0, 1.0]), tol=0.0)


def test_archimedean_at_desk_scale():
    """inf over n of u/n reaches 0 at desk scale for positive u."""
    u = np.array([7.0, 0.5, 3.0])
    acc = u.copy()
    for n in (1, 10, 100, 1000, 10_000, 100_000, 1_000_000):
        acc = np.minimum(acc, u / n)
    assert np.max(acc) <= 1e-5 * np.max(u)


def test_f_mul_positivity_and_disjointness():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(0, 5, 6)
        b = rng.uniform(0, 5, 6)
        assert in_positive_cone(a * b)
        # f-algebra compatibility: a ^ b = 0 implies (c*a) ^ b = 0 for c >= 0
        mask = rng.random(6) < 0.5
        a2 = np.where(mask, a, 0.0)
        b2 = np.where(mask, 0.0, b)
        assert np.array_equal(np.minimum(a2, b2), np.zeros(6))
        c = rng.uniform(0, 5, 6)
        assert np.array_equal(np.minimum(c * a2, b2), np.zeros(6))


def test_semiprime():
    # a*a = 0 forces a = 0, componentwise
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.uniform(-5, 5, 6)
        a[rng.random(6) < 0.4] = 0.0
        sq = a * a
        assert np.array_equal(sq == 0.0, a == 0.0)


def test_as_lattice_vector_validation():
    with pytest.raises(NonFinite):
        as_lattice_vector([1.0, np.nan])
    with pytest.raises(NonFinite):
        as_lattice_vector([np.inf])
    with pytest.raises(DimensionMismatch):
        as_lattice_vector([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        as_lattice_vector([])
    with pytest.raises(DimensionMismatch):
        as_lattice_vector([1.0, 2.0], dim=3)


def test_dimension_mismatch_raises():
    # the entry points that take raw values keep the check
    for entry in (box_times, box_plus, rel_residual):
        with pytest.raises(DimensionMismatch):
            entry(np.zeros(2), np.zeros(3))


def test_rel_residual_scale_awareness():
    assert rel_residual(np.array([1e6]), np.array([1e6 + 1.0])) == pytest.approx(1e-6, rel=1e-2)
    assert rel_residual(np.zeros(2), np.zeros(2)) == 0.0
    # near zero the absolute floor takes over
    assert rel_residual(np.array([0.0]), np.array([1e-14])) < 1e-1


def test_cone_violation():
    assert cone_gap(np.array([1.0, 2.0]), np.ones(2)) == 0.0
    assert cone_gap(np.array([-1.0, 2.0]), np.ones(2)) == 1.0
    # normalized by the caller's scale, worst coordinate wins
    assert cone_gap(np.array([-1e-7, -2.0]), np.array([1e-3, 1e3])) == pytest.approx(2e-3, rel=1e-12)
