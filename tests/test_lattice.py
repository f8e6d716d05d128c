import math

import numpy as np
import pytest

from riesz_sip.lattice import (
    DimensionMismatch,
    NonFinite,
    _nan_first,
    as_lattice_vector,
    cone_gap,
    excess,
    in_positive_cone,
    near,
    rel_residual,
)
from riesz_sip.means import box_times


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
    for entry in (box_times, rel_residual):
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


def test_excess_floors_at_zero_and_keeps_the_sign_of_a_zero():
    ones = np.ones(2)
    assert excess(np.array([-1.0, 2.0]), np.array([1.0, 4.0])) == 0.5
    assert excess(np.array([-1.0, -2.0]), ones) == 0.0
    # the worst entry is -0.0 and the floor keeps it; cone_gap(-a) would give +0.0
    assert math.copysign(1.0, excess(np.array([-1.0, -0.0]), ones)) == -1.0
    assert math.copysign(1.0, cone_gap(-np.array([-1.0, -0.0]), ones)) == 1.0
    assert math.isnan(excess(np.array([-1.0, np.nan]), ones))


def test_near_is_the_open_window_around_band():
    band = 1e-8
    assert near(band, band) and near(band / 7.0, band) and near(7.0 * band, band)
    for v in (0.0, band / 8.0, 8.0 * band, 1.0, math.nan):
        assert not near(v, band), v


@pytest.mark.parametrize("values", [
    [math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan],
    [0.0, math.inf, math.nan], [-math.inf, math.nan, -1.0]])
def test_nan_anywhere_wins_the_fold(values):
    assert math.isnan(max(values, key=_nan_first))
    assert math.isnan(max(reversed(values), key=_nan_first))


@pytest.mark.parametrize("pair", [(0.0, -0.0), (-0.0, 0.0)])
def test_fold_ties_keep_the_first_as_max_does(pair):
    got = max(pair, key=_nan_first)
    assert math.copysign(1.0, got) == math.copysign(1.0, max(pair))
    assert math.copysign(1.0, got) == math.copysign(1.0, pair[0])
    assert max([1.0, 3.0, 2.0], key=_nan_first) == 3.0
