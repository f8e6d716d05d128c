"""The coordinate-major grid oracles against their grid-major formulas, bit for bit.

Each reference below is the grid-major form of an oracle: a (G, n) array,
one row per grid point, reduced along axis 0. The library lays the same
elements out as (n, G) and reduces along the contiguous axis; the
elements are the same products and sums and min/max are exact, so the
bits must agree for any input, zeros and extreme magnitudes included.
A NaN (an overflowed T-value times a zero weight, say) only has to be a
NaN: numpy's contiguous reductions drop its sign bit, and reports write
every NaN the same.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_sip.cauchy_schwarz import (
    LAMBDA_COUNT,
    LAMBDA_HI,
    LAMBDA_LO,
    Gram,
    defect_grid,
    lambda_minimum,
    lambda_samples,
)
from riesz_sip.means import (
    ANGLE_COUNT,
    THETA_COUNT,
    THETA_HI,
    THETA_LO,
    AngleGrid,
    LogGrid,
    box_plus_oracle,
    box_times_oracle,
)
from riesz_sip.sip import MultiplicationSip, PsdFamilySip, random_psd

# the grids of a verification run, and small ones of the pinned study's size
THETA_GRIDS = (LogGrid.log_spaced(THETA_LO, THETA_HI, THETA_COUNT),
               LogGrid.log_spaced(THETA_LO, THETA_HI, 64))
ANGLE_GRIDS = (AngleGrid.uniform(ANGLE_COUNT), AngleGrid.uniform(64))
LAMBDA_GRIDS = (LogGrid.log_spaced(LAMBDA_LO, LAMBDA_HI, LAMBDA_COUNT),
                LogGrid.log_spaced(LAMBDA_LO, LAMBDA_HI, 64))

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# zeros of both signs, and magnitudes from 1e-300 to 1e300
magnitudes = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda e, f: f * 10.0 ** e, st.integers(-300, 299),
              st.floats(1.0, 10.0, exclude_max=True)))
signed = st.builds(lambda s, v: s * v, st.sampled_from([-1.0, 1.0]), magnitudes)


def vectors(elements, n):
    return st.lists(elements, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.float64))


def pairs(elements):
    """Two vectors of one dimension n = 1..8."""
    return st.integers(1, 8).flatmap(lambda n: st.tuples(vectors(elements, n),
                                                         vectors(elements, n)))


def ref_box_times_oracle(u, v, grid):
    u, v = np.maximum(u, 0.0), np.maximum(v, 0.0)
    th = grid.points
    vals = 0.5 * (th[:, None] * u[None, :] + (1.0 / th)[:, None] * v[None, :])
    return vals.min(axis=0)


def ref_box_plus_oracle(a, b, grid, quarter=False):
    cos_t, sin_t = np.cos(grid.points), np.sin(grid.points)
    if quarter:
        keep = grid.points <= 0.5 * np.pi
        cos_t, sin_t = cos_t[keep], sin_t[keep]
    vals = cos_t[:, None] * a[None, :] + sin_t[:, None] * b[None, :]
    return vals.max(axis=0)


def ref_eval_batch(T, X, Y):
    if isinstance(T, MultiplicationSip):
        return X * Y
    return np.einsum("jab,sa,sb->sj", T.matrices, X, Y, optimize=True)


def ref_defect_grid(T, x, y, grid, u=None):
    lam = grid.signed
    Z = lam[:, None] * x[None, :] - y[None, :]
    vals = ref_eval_batch(T, Z, Z)
    if u is not None:
        vals = vals * u
    return (vals / np.abs(lam)[:, None]).min(axis=0)


def assert_same_bits(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan), (got, ref)
    assert got[~nan].tobytes() == ref[~nan].tobytes(), (got, ref)


@SETTINGS
@given(pairs(magnitudes), st.sampled_from(THETA_GRIDS))
def test_box_times_oracle_bits(uv, grid):
    u, v = uv
    assert_same_bits(box_times_oracle(u, v, grid), ref_box_times_oracle(u, v, grid))


@SETTINGS
@given(pairs(signed), st.sampled_from(ANGLE_GRIDS), st.booleans())
def test_box_plus_oracle_bits(ab, grid, quarter):
    a, b = ab
    assert_same_bits(box_plus_oracle(a, b, grid, quarter=quarter),
                     ref_box_plus_oracle(a, b, grid, quarter=quarter))


@st.composite
def defect_cases(draw):
    """(T, x, y, u): either sip kind, n = 1..8, zero and extreme entries."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        T = MultiplicationSip(n)
    else:
        m = draw(st.integers(1, 8))
        seed = draw(st.integers(0, 2**32 - 1))
        scale = draw(magnitudes.map(abs))  # 0 gives the zero family
        T = PsdFamilySip(scale * random_psd(np.random.default_rng(seed), m, n).matrices,
                         validate=False)
    x = draw(vectors(signed, T.domain_dim))
    y = draw(vectors(signed, T.domain_dim))
    u = draw(st.none() | vectors(magnitudes, n))
    return T, x, y, u


@SETTINGS
@given(defect_cases(), st.sampled_from(LAMBDA_GRIDS))
def test_defect_grid_bits(case, grid):
    T, x, y, u = case
    with np.errstate(all="ignore"):
        if u is None:
            got = defect_grid(T, x, y, grid)
        else:  # the weighted defect D(x,y)*u of the sharp suite
            got = lambda_minimum(lambda_samples(Gram(T, x, y), grid), grid, u)
        ref = ref_defect_grid(T, x, y, grid, u=u)
    assert_same_bits(got, ref)


@pytest.mark.parametrize("batch", [1, 64, 4002])
def test_psd_eval_batch_matches_einsum_optimize(batch):
    # the cached contraction path is the one optimize=True searches for
    rng = np.random.default_rng(batch)
    for m in range(1, 9):
        for n in range(1, 9):
            T = random_psd(rng, m, n)
            X = rng.uniform(-10.0, 10.0, (batch, m))
            Y = rng.uniform(-10.0, 10.0, (batch, m))
            assert_same_bits(T.eval_batch(X, Y), ref_eval_batch(T, X, Y))
