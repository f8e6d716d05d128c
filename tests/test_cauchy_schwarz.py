import numpy as np
import pytest

from riesz_sip.cauchy_schwarz import (
    INEQ_FLOOR,
    LAMBDA_COUNT,
    LAMBDA_HI,
    LAMBDA_LO,
    Gram,
    cs_identity,
    cs_verdict,
    defect_grid,
)
from riesz_sip.lattice import rel_residual
from riesz_sip.means import LogGrid, box_times
from riesz_sip.sip import MultiplicationSip, PsdFamilySip, random_psd, sip_eval

GRID_GAP_REL_TOL = 1e-4  # frozen for the default 2001-point grid on [1e-6, 1e6]
LAMBDA = LogGrid.log_spaced(LAMBDA_LO, LAMBDA_HI, LAMBDA_COUNT)


def _scale(T, x, y):
    a = sip_eval(T, x, x)
    c = sip_eval(T, y, y)
    return float(max(np.max(np.abs(a)), np.max(np.abs(c)), 1e-10))


def test_defect_closed_vanishes_for_multiplication():
    T = MultiplicationSip(2)
    assert np.array_equal(Gram(T, [1.0, 2.0], [3.0, 1.0]).defect, [0.0, 0.0])
    rng = np.random.default_rng(30)
    for _ in range(100):
        x = rng.uniform(-10, 10, 2)
        y = rng.uniform(-10, 10, 2)
        d = Gram(T, x, y).defect
        assert np.max(np.abs(d)) <= 1e-14 * _scale(T, x, y)


def test_defect_closed_orthonormal_dot_pair():
    # dot product, orthonormal pair: a = c = 1, b = 0, defect exactly 2
    T = PsdFamilySip([np.eye(2)])
    assert np.array_equal(Gram(T, [1.0, 0.0], [0.0, 1.0]).defect, [2.0])


def test_defect_grid_orthonormal_dot_pair():
    # the default grid contains lambda = 1 exactly, where
    # T(x - y, x - y) = 2 is the true minimum
    T = PsdFamilySip([np.eye(2)])
    got = defect_grid(T, [1.0, 0.0], [0.0, 1.0], LAMBDA)
    assert abs(got[0] - 2.0) <= 1e-6
    assert got[0] >= 2.0


def test_defect_grid_colinear_pair():
    # y = 2x: the infimum 0 is attained at lambda = 2, which we place on
    # the grid exactly
    T = PsdFamilySip([np.eye(2), np.diag([1.0, 0.0])])
    x = np.array([1.0, 2.0])
    grid = LogGrid(np.array([0.5, 1.0, 2.0, 4.0]))
    got = defect_grid(T, x, 2.0 * x, grid=grid)
    assert np.max(np.abs(got)) <= 1e-8
    assert np.max(np.abs(Gram(T, x, 2.0 * x).defect)) <= 1e-8


def test_defect_grid_multiplication_near_zero():
    # closed form is identically 0 here, so the grid value is the gap
    T = MultiplicationSip(3)
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = rng.uniform(-10, 10, 3)
        y = rng.uniform(-10, 10, 3)
        got = defect_grid(T, x, y, LAMBDA)
        assert np.max(np.abs(got)) <= 1e-4 * _scale(T, x, y)


def test_defect_sandwich_and_gap():
    rng = np.random.default_rng(32)
    for trial in range(150):
        if trial % 2 == 0:
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 5))
            T = random_psd(np.random.default_rng(trial), m, n)
        else:
            m = int(rng.integers(1, 7))
            T = MultiplicationSip(m)
        x = rng.uniform(-10, 10, T.domain_dim)
        y = rng.uniform(-10, 10, T.domain_dim)
        closed = Gram(T, x, y).defect
        grid = defect_grid(T, x, y, LAMBDA)
        scale = max(np.max(closed), np.max(grid), _scale(T, x, y))
        assert np.min(grid - closed) >= -1e-10 * scale  # grid >= closed
        assert np.max(grid - closed) <= GRID_GAP_REL_TOL * scale


def test_defect_symmetry_and_scaling():
    rng = np.random.default_rng(33)
    T = random_psd(np.random.default_rng(2), 4, 3)
    for _ in range(100):
        x = rng.uniform(-10, 10, 4)
        y = rng.uniform(-10, 10, 4)
        alpha = rng.uniform(0.1, 4.0) * rng.choice([-1.0, 1.0])
        d = Gram(T, x, y).defect
        assert rel_residual(d, Gram(T, y, x).defect) <= 1e-10
        assert rel_residual(Gram(T, alpha * x, y).defect,
                            np.abs(alpha) * d) <= 1e-10


def test_defect_in_positive_cone():
    rng = np.random.default_rng(34)
    for trial in range(100):
        T = random_psd(np.random.default_rng(trial), 3, 2)
        x = rng.uniform(-10, 10, 3)
        y = rng.uniform(-10, 10, 3)
        d = Gram(T, x, y).defect
        assert np.min(d) >= -1e-10 * _scale(T, x, y)


def test_identity_residual_examples():
    # multiplication sip: |xy| = sqrt(x^2 y^2) exactly for integer entries
    T = MultiplicationSip(2)
    assert np.array_equal(cs_identity(Gram(T, [1.0, 2.0], [3.0, 1.0])), [0.0, 0.0])
    # zero second argument: both sides vanish
    assert np.array_equal(cs_identity(Gram(T, [1.0, 2.0], [0.0, 0.0])), [0.0, 0.0])
    # orthonormal dot pair: |b| = 0 and bound = 1 = D/2
    D = PsdFamilySip([np.eye(2)])
    assert np.max(np.abs(cs_identity(Gram(D, [1.0, 0.0], [0.0, 1.0])))) <= 1e-15


def test_identity_residual_random():
    rng = np.random.default_rng(35)
    for trial in range(200):
        if trial % 2 == 0:
            T = random_psd(np.random.default_rng(trial), int(rng.integers(1, 7)),
                           int(rng.integers(1, 5)))
        else:
            T = MultiplicationSip(int(rng.integers(1, 7)))
        x = rng.uniform(-10, 10, T.domain_dim)
        y = rng.uniform(-10, 10, T.domain_dim)
        resid = cs_identity(Gram(T, x, y))
        b = sip_eval(T, x, y)
        scale = max(_scale(T, x, y), float(np.max(np.abs(b))))
        assert np.max(np.abs(resid)) <= 1e-9 * scale


def test_inequality_random():
    rng = np.random.default_rng(36)
    for trial in range(200):
        T = random_psd(np.random.default_rng(trial), 4, 3)
        x = rng.uniform(-10, 10, 4)
        y = rng.uniform(-10, 10, 4)
        b = sip_eval(T, x, y)
        bound = box_times(sip_eval(T, x, x), sip_eval(T, y, y),
                          floor=1e-9 * _scale(T, x, y))
        slack = bound - np.abs(b)
        assert np.min(slack) >= -1e-10 * _scale(T, x, y)


def test_cs_check_multiplication_equality():
    # defect vanishes identically, so equality holds and is not borderline
    got = cs_verdict(Gram(MultiplicationSip(2), [1.0, 2.0], [3.0, 1.0]))
    assert got.inequality <= INEQ_FLOOR
    assert got.equality_holds
    assert got.defect_zero
    assert not got.borderline


def test_cs_check_strict_inequality():
    got = cs_verdict(Gram(PsdFamilySip([np.eye(2)]), [1.0, 0.0], [0.0, 1.0]))
    assert got.inequality <= INEQ_FLOOR
    assert not got.equality_holds
    assert not got.defect_zero
    assert not got.borderline


def test_cs_check_colinear_equality():
    T = random_psd(np.random.default_rng(8), 3, 2)
    x = np.array([1.0, -2.0, 0.5])
    got = cs_verdict(Gram(T, x, 3.0 * x))
    assert got.inequality <= INEQ_FLOOR
    assert got.equality_holds
    assert got.defect_zero
    assert not got.borderline


def test_cs_check_biconditional_agrees():
    rng = np.random.default_rng(37)
    for trial in range(300):
        if trial % 2 == 0:
            T = random_psd(np.random.default_rng(trial), int(rng.integers(1, 7)),
                           int(rng.integers(1, 5)))
        else:
            T = MultiplicationSip(int(rng.integers(1, 7)))
        x = rng.uniform(-10, 10, T.domain_dim)
        y = x * rng.uniform(-3, 3) if trial % 4 == 0 else rng.uniform(-10, 10, T.domain_dim)
        got = cs_verdict(Gram(T, x, y))
        assert got.inequality <= INEQ_FLOOR
        if not got.borderline:
            assert got.equality_holds == got.defect_zero


def test_lambda_grid_validation():
    # the lambda magnitudes' grid: the same LogGrid that holds the theta infimum
    with pytest.raises(ValueError):
        LogGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        LogGrid(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        LogGrid.log_spaced(1e-3, 1e3, 1)
    grid = LogGrid.log_spaced(1e-3, 1e3, 7)
    assert grid.count == 7
    assert 1.0 in grid.points
    # signed is the +- closure: increasing, symmetric, twice as long
    assert grid.signed.size == 14
    assert np.array_equal(grid.signed[:7], -grid.points[::-1])
    assert np.array_equal(grid.signed[7:], grid.points)
    assert np.all(np.diff(grid.signed) > 0.0)


def test_defect_grid_weight():
    # D(x,y)*u: each sampled T-value is weighted before the division by |lambda|
    T = random_psd(np.random.default_rng(3), 3, 2)
    x, y = np.array([1.0, -2.0, 0.5]), np.array([0.3, 1.0, -1.0])
    grid = LogGrid.log_spaced(1e-3, 1e3, 51)
    plain = defect_grid(T, x, y, grid)
    assert np.array_equal(defect_grid(T, x, y, grid, u=np.ones(2)), plain)
    assert np.array_equal(defect_grid(T, x, y, grid, u=[0.0, 2.0]), [0.0, 2.0 * plain[1]])
