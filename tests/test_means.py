import numpy as np
import pytest

from riesz_sip.lattice import NotInPositiveCone, rel_residual
from riesz_sip.means import (
    ANGLE_COUNT,
    THETA_COUNT,
    THETA_HI,
    THETA_LO,
    AngleGrid,
    LogGrid,
    box_plus,
    box_plus_oracle,
    box_times,
    box_times_oracle,
    theta_minimizer,
)

# honest bounds for the grid oracles, measured against the closed forms
# at the default resolutions before being frozen here
BT_ORACLE_ABS_TOL = 1e-5
BT_ORACLE_REL_TOL = 1e-5
BP_ORACLE_REL_TOL = 1e-6
BP_DEFAULT_REL_TOL = 1e-5
IDENTITY_REL_TOL = 1e-10
EXACT_REL_TOL = 1e-12

# the grids of a verification run at its defaults
THETA = LogGrid.log_spaced(THETA_LO, THETA_HI, THETA_COUNT)
ANGLE = AngleGrid.uniform(ANGLE_COUNT)


def test_box_times_examples():
    assert np.array_equal(box_times(np.array([1.0, 4.0]), np.array([4.0, 1.0])), [2.0, 2.0])
    assert np.array_equal(box_times(np.array([3.0, 5.0]), np.zeros(2)), [0.0, 0.0])
    got = box_times(np.array([2.0, 3.0]), np.array([5.0, 7.0]))
    assert rel_residual(got, np.sqrt([10.0, 21.0])) <= 1e-15


def test_box_times_rejects_negative_input():
    with pytest.raises(NotInPositiveCone):
        box_times(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    # tiny negatives inside the floor clamp instead of raising
    assert np.array_equal(box_times(np.array([-1e-13, 4.0]), np.array([1.0, 1.0])), [0.0, 2.0])


def test_box_times_oracle_matches_closed_form():
    u = np.array([1.0, 4.0])
    v = np.array([4.0, 1.0])
    grid = LogGrid.log_spaced(1e-4, 1e4, 4001)
    approx = box_times_oracle(u, v, grid=grid)
    closed = box_times(u, v)
    gap = approx - closed
    assert np.all(gap >= -1e-12)
    assert np.max(gap) <= BT_ORACLE_ABS_TOL


def test_box_times_oracle_default_grid():
    u = np.array([2.0, 3.0])
    v = np.array([5.0, 7.0])
    approx = box_times_oracle(u, v, THETA)
    assert rel_residual(approx, box_times(u, v)) <= BT_ORACLE_REL_TOL


def test_box_times_oracle_zero_argument():
    # with v = 0 the envelope is minimized at the left endpoint: inf theta*u / 2
    u = np.array([2.0, 6.0])
    grid = LogGrid.log_spaced(1e-8, 1e8, 100)
    approx = box_times_oracle(u, np.zeros(2), grid=grid)
    assert np.array_equal(approx, 0.5 * 1e-8 * u)


def test_box_times_oracle_minimizer_outside_grid():
    # true minimizer theta = 1e5 sits outside [1e-4, 1e4], so the grid
    # over-estimates badly and covers() flags it
    u = np.array([1.0])
    v = np.array([1e10])
    grid = LogGrid.log_spaced(1e-4, 1e4, 2001)
    approx = box_times_oracle(u, v, grid=grid)
    closed = box_times(u, v)
    assert np.all(approx >= closed)
    assert not grid.covers(theta_minimizer(u, v))
    assert approx[0] - closed[0] > 1.0


def test_box_times_sandwich_random():
    rng = np.random.default_rng(10)
    grid = LogGrid.log_spaced(1e-8, 1e8, 2000)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        u = rng.uniform(0, 10, m)
        v = rng.uniform(0, 10, m)
        assert np.all(box_times_oracle(u, v, grid=grid) - box_times(u, v) >= -1e-12)


def test_box_times_oracle_convergence():
    # counts of the form 2n-1 give nested grids, so refinement can only
    # shrink the over-estimate
    u = np.array([3.0, 0.25])
    v = np.array([0.5, 8.0])
    closed = box_times(u, v)
    prev = None
    for count in (125, 249, 497, 993):
        grid = LogGrid.log_spaced(1e-4, 1e4, count)
        gap = np.max(box_times_oracle(u, v, grid=grid) - closed)
        if prev is not None:
            assert gap <= prev + 1e-12
        prev = gap


def test_box_plus_examples():
    assert np.array_equal(box_plus(np.array([3.0, 0.0]), np.array([4.0, 0.0])), [5.0, 0.0])
    assert np.array_equal(box_plus(np.array([-2.0, 1.0]), np.zeros(2)), [2.0, 1.0])
    got = box_plus(np.array([1.0, 2.0]), np.array([2.0, 2.0]))
    assert rel_residual(got, np.sqrt([5.0, 8.0])) <= 1e-15


def test_box_plus_oracle_matches_closed_form():
    a = np.array([3.0, 0.0])
    b = np.array([4.0, 0.0])
    approx = box_plus_oracle(a, b, grid=AngleGrid.uniform(4096))
    assert rel_residual(approx, box_plus(a, b)) <= BP_DEFAULT_REL_TOL
    a2 = np.array([1.0, 2.0])
    b2 = np.array([2.0, 2.0])
    assert rel_residual(box_plus_oracle(a2, b2, ANGLE), box_plus(a2, b2)) <= BP_ORACLE_REL_TOL


def test_box_plus_oracle_zero():
    assert np.array_equal(box_plus_oracle(np.zeros(3), np.zeros(3), ANGLE), np.zeros(3))


def test_box_plus_zero_argument_is_exact():
    # the angle grid contains the axis angles, so a boxplus 0 = |a| exactly
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.uniform(-10, 10, 4)
        assert np.array_equal(box_plus(a, np.zeros(4)), np.abs(a))
        assert np.array_equal(box_plus_oracle(a, np.zeros(4), ANGLE), np.abs(a))


def test_box_plus_sandwich_random():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        a = rng.uniform(-10, 10, m)
        b = rng.uniform(-10, 10, m)
        under = box_plus_oracle(a, b, ANGLE)
        exact = box_plus(a, b)
        assert np.all(exact - under >= -1e-12)
        assert rel_residual(under, exact) <= BP_DEFAULT_REL_TOL


def test_quarter_circle_agrees_for_positive_inputs():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = rng.uniform(0, 10, 3)
        b = rng.uniform(0, 10, 3)
        full = box_plus_oracle(a, b, ANGLE)
        quarter = box_plus_oracle(a, b, ANGLE, quarter=True)
        assert rel_residual(full, quarter) <= 1e-12


def test_self_mean_identities():
    rng = np.random.default_rng(14)
    for _ in range(100):
        u = rng.uniform(0, 10, 4)
        a = rng.uniform(-10, 10, 4)
        assert rel_residual(box_times(u, u), u) <= EXACT_REL_TOL
        assert rel_residual(box_plus(a, a), np.sqrt(2.0) * np.abs(a)) <= EXACT_REL_TOL


def test_biadditivity_identity_spot_check():
    # (1+3) boxtimes 3 = sqrt(12) = (1 boxtimes 3) boxplus (3 boxtimes 3)
    u = np.array([1.0])
    v = np.array([3.0])
    w = np.array([3.0])
    lhs = box_times(u + v, w)
    rhs = box_plus(box_times(u, w), box_times(v, w))
    assert rel_residual(lhs, np.array([np.sqrt(12.0)])) <= 1e-15
    assert rel_residual(lhs, rhs) <= EXACT_REL_TOL


def test_biadditivity_identity_random():
    rng = np.random.default_rng(15)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        u, v, w = rng.uniform(0, 10, (3, m))
        lhs = box_times(u + v, w)
        rhs = box_plus(box_times(u, w), box_times(v, w))
        assert rel_residual(lhs, rhs) <= IDENTITY_REL_TOL


def test_homogeneity_identity():
    # (t^2 u) boxtimes v = t (u boxtimes v) for t >= 0
    u = np.array([1.0, 4.0])
    v = np.array([4.0, 1.0])
    assert rel_residual(box_times(4.0 * u, v), 2.0 * box_times(u, v)) <= EXACT_REL_TOL
    rng = np.random.default_rng(16)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        u = rng.uniform(0, 10, m)
        v = rng.uniform(0, 10, m)
        t = rng.uniform(0, 4)
        lhs = box_times(t * t * u, v)
        assert rel_residual(lhs, t * box_times(u, v)) <= IDENTITY_REL_TOL


def test_theta_grid_validation():
    # the theta infimum's grid: the same LogGrid that holds the lambda magnitudes
    for bad in ([], [0.0, 1.0], [-1.0, 1.0], [2.0, 1.0], [1.0, 1.0]):
        with pytest.raises(ValueError):
            LogGrid(np.array(bad))
    for lo, hi, count in ((1e-2, 1e2, 1), (0.0, 1.0, 5), (1.0, 1.0, 5)):
        with pytest.raises(ValueError):
            LogGrid.log_spaced(lo, hi, count)
    grid = LogGrid.log_spaced(1e-2, 1e2, 11)
    assert grid.lo == pytest.approx(1e-2)
    assert grid.hi == pytest.approx(1e2)
    assert grid.count == 11
    assert 1.0 in grid.points
    # covers ignores zero, negative and non-finite values
    assert grid.covers(np.array([1.0, 0.0, -5.0, np.inf]))
    assert not grid.covers(np.array([1e3]))
    assert not grid.covers(np.array([1e-3, 1.0]))


def test_angle_grid_contains_axis_angles():
    grid = AngleGrid.uniform(100)
    for angle in (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0 * np.pi):
        assert angle in grid.points
    with pytest.raises(ValueError):
        AngleGrid.uniform(3)
    with pytest.raises(ValueError):
        AngleGrid(np.array([0.1, 0.2]))
