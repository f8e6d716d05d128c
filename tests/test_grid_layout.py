"""The coordinate-major grid oracles against their grid-major formulas, bit for bit.

Each mean-oracle reference below is the grid-major form of an oracle: a
(G, n) array, one row per grid point, reduced along axis 0. The library
lays the same elements out as (n, G) and reduces along the contiguous
axis; the elements are the same products and sums and min/max are
exact, so the bits must agree for any input, zeros and extreme
magnitudes included. The lambda-grid reference computes one column at a
time in Python floats, term by term in the PSD kernel's fixed order, and
reduces the columns to both minima that lambda_minima folds in one pass:
the defect D, and with a weight u the weighted defect D*u.
The library evaluates each oracle in blocks of grid columns
(means.GRID_BLOCK elements) and folds the blocks' minima or maxima, so
the bits must also agree at any block width and at grid sizes on either
side of one block.
A NaN (an overflowed T-value times a zero weight, say) only has to be a
NaN: numpy's contiguous reductions drop its sign bit, and reports write
every NaN the same.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from riesz_sip import means
from riesz_sip.cauchy_schwarz import (
    LAMBDA_COUNT,
    LAMBDA_HI,
    LAMBDA_LO,
    Gram,
    defect_grid,
    lambda_minima,
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
# the runs at patched block widths and at one block's sizes
FEW = settings(SETTINGS, max_examples=25)
# The defect-grid tests' examples cost up to a second each of Python-float
# reference, so a failure is reported as found, without the minutes of
# shrinking it; no test calls target(), so a passing run draws the same
# examples as with every phase.
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]
BLOCKS = (1, 2, 5)  # elements: one to five columns per block

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


def ref_quadratic_terms(T):
    """Row a's [C_jab for each j] for b = a..m-1, for each row a, in Python floats.

    The row's diagonal coefficient is A_jaa/2; off the diagonal C_jab is
    A_jab where A_jba equals it, else A_jab/2 + A_jba/2.
    """
    A = T.matrices.tolist()
    m = T.domain_dim
    return [[[0.5 * row[a][a] if a == b else row[a][b] if row[a][b] == row[b][a]
              else 0.5 * row[a][b] + 0.5 * row[b][a] for row in A]
             for b in range(a, m)] for a in range(m)]


def ref_quadratic(T, terms, z):
    """T(z, z) of one column in Python floats: 2 * sum_a z_a * sum_{b >= a} C_jab*z_b in the fixed order."""
    if isinstance(T, MultiplicationSip):
        return [v * v for v in z]
    out = []
    for j in range(T.codomain_dim):
        acc = None
        for a, row in enumerate(terms):
            r = None
            for b, coef in enumerate(row, a):
                t = coef[j] * z[b]
                r = t if r is None else r + t
            r = r * z[a]
            acc = r if acc is None else acc + r
        out.append(acc + acc)
    return out


def ref_lambda_minima(T, x, y, grid):
    """D as lambda_minima gives it."""
    # one column at a time: z = lambda*x - y, then T(z, z) term by term
    lam = grid.signed
    terms = None if isinstance(T, MultiplicationSip) else ref_quadratic_terms(T)
    xs, ys = x.tolist(), y.tolist()
    vals = np.array([ref_quadratic(T, terms, [l * xa - ya for xa, ya in zip(xs, ys)])
                     for l in lam.tolist()])
    abs_lam = np.abs(lam)[:, None]
    return (vals / abs_lam).min(axis=0)


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


@settings(SETTINGS, phases=NO_SHRINK)
@given(defect_cases(), st.sampled_from(LAMBDA_GRIDS))
def test_defect_grid_bits(case, grid):
    # D, from a pass that reads no weight
    T, x, y, u = case
    with np.errstate(all="ignore"):
        (got,) = lambda_minima([Gram(T, x, y, u)], grid)
        plain = defect_grid(T, x, y, grid)
        ref = ref_lambda_minima(T, x, y, grid)
    assert_same_bits(got, ref)
    assert_same_bits(plain, ref)


def block_sizes(rows):
    """w - 1, w and w + 1 grid columns, w the block width of a (rows, G) oracle."""
    w = means.GRID_BLOCK // rows
    return w - 1, w, w + 1


def angle_grid(S, quarter):
    """An angle grid of S columns, on [0, pi/2] for the quarter circle."""
    if quarter:
        return AngleGrid(np.concatenate([np.linspace(0.0, 0.5 * np.pi, S), [np.pi, 2 * np.pi]]))
    return AngleGrid(np.linspace(0.0, 2 * np.pi, S))


@pytest.mark.parametrize("block", BLOCKS)
@FEW
@given(pairs(magnitudes), st.sampled_from(THETA_GRIDS[1:]))
def test_box_times_oracle_bits_at_any_block(block, uv, grid):
    u, v = uv
    with mock.patch.object(means, "GRID_BLOCK", block):
        got = box_times_oracle(u, v, grid)
    assert_same_bits(got, ref_box_times_oracle(u, v, grid))


@FEW
@given(pairs(magnitudes))
def test_box_times_oracle_bits_at_one_block(uv):
    u, v = uv
    for S in block_sizes(u.size):
        grid = LogGrid.log_spaced(THETA_LO, THETA_HI, S)
        assert_same_bits(box_times_oracle(u, v, grid), ref_box_times_oracle(u, v, grid))


@pytest.mark.parametrize("block", BLOCKS)
@FEW
@given(pairs(signed), st.sampled_from(ANGLE_GRIDS[1:]), st.booleans())
def test_box_plus_oracle_bits_at_any_block(block, ab, grid, quarter):
    a, b = ab
    with mock.patch.object(means, "GRID_BLOCK", block):
        got = box_plus_oracle(a, b, grid, quarter=quarter)
    assert_same_bits(got, ref_box_plus_oracle(a, b, grid, quarter=quarter))


@FEW
@given(pairs(signed), st.booleans())
def test_box_plus_oracle_bits_at_one_block(ab, quarter):
    a, b = ab
    for S in block_sizes(a.size):
        grid = angle_grid(S, quarter)
        assert_same_bits(box_plus_oracle(a, b, grid, quarter=quarter),
                         ref_box_plus_oracle(a, b, grid, quarter=quarter))


# 10^5 columns: a pair's n rows take 2 to 13 blocks, a stack's k*n rows up to 62
BIG_THETA = LogGrid.log_spaced(THETA_LO, THETA_HI, 10**5)
BIG_ANGLE = AngleGrid.uniform(10**5)
# zeros of both signs and values up to 10, each row scaled by 2^e
row_entries = st.one_of(st.sampled_from([0.0, -0.0]),
                        st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False))
row_scales = st.sampled_from([1.0, 1.0, 2.0 ** -520, 2.0 ** 520])


@st.composite
def stacks(draw):
    """Two (k, n) stacks, k = 2..5 and n = 1..8, each row scaled by its own 2^e."""
    k, n = draw(st.integers(2, 5)), draw(st.integers(1, 8))
    scale = np.array(draw(st.lists(row_scales, min_size=k, max_size=k)))[:, None]
    rows = st.lists(vectors(row_entries, n), min_size=k, max_size=k).map(np.array)
    return draw(rows) * scale, draw(rows) * scale


@FEW
@given(stacks())
def test_a_stack_gives_each_row_its_bits_alone(ab):
    a, b = ab
    # the [*] side takes magnitudes that keep a -0.0
    u, v = np.where(a < 0.0, -a, a), np.where(b < 0.0, -b, b)
    floor = 1e-12
    with np.errstate(all="ignore"):
        stacked = (*means.box_times_gaps(u, v, BIG_THETA, floor),
                   *means.box_plus_gaps(a, b, BIG_ANGLE, floor),
                   means._box_times_oracle(u, v, BIG_THETA, floor),
                   means._box_plus_oracle(a, b, BIG_ANGLE),
                   means._box_plus_oracle(a, b, BIG_ANGLE, quarter=True))
        for i in range(len(a)):
            alone = (*means.box_times_gaps(u[i], v[i], BIG_THETA, floor),
                     *means.box_plus_gaps(a[i], b[i], BIG_ANGLE, floor),
                     means._box_times_oracle(u[i], v[i], BIG_THETA, floor),
                     means._box_plus_oracle(a[i], b[i], BIG_ANGLE),
                     means._box_plus_oracle(a[i], b[i], BIG_ANGLE, quarter=True))
            for got, ref in zip(stacked, alone):
                assert_same_bits(np.asarray(got[i]), np.asarray(ref))
    minimizers = means.theta_minimizer(u, v)
    assert BIG_THETA.covers(minimizers).tolist() == [
        bool(BIG_THETA.covers(row)) for row in minimizers]


@pytest.mark.parametrize("block", BLOCKS)
@settings(FEW, phases=NO_SHRINK)
@given(defect_cases(), st.sampled_from(LAMBDA_GRIDS[1:]))
def test_defect_grid_bits_at_any_block(block, case, grid):
    T, x, y, u = case
    with np.errstate(all="ignore"), mock.patch.object(means, "GRID_BLOCK", block):
        (got,) = lambda_minima([Gram(T, x, y, u)], grid)
        plain = defect_grid(T, x, y, grid)
    with np.errstate(all="ignore"):
        ref = ref_lambda_minima(T, x, y, grid)
    assert_same_bits(got, ref)
    assert_same_bits(plain, ref)


@settings(FEW, max_examples=6, phases=NO_SHRINK)
@given(defect_cases())
def test_defect_grid_bits_at_one_block(case):
    # the grid's 2G columns at one block, one or two below it and above it
    T, x, y, u = case
    w = means.GRID_BLOCK // max(T.domain_dim, T.codomain_dim)
    for G in (w // 2 - 1, w // 2, w // 2 + 1):
        grid = LogGrid.log_spaced(LAMBDA_LO, LAMBDA_HI, G)
        with np.errstate(all="ignore"):
            assert_same_bits(lambda_minima([Gram(T, x, y, u)], grid)[0],
                             ref_lambda_minima(T, x, y, grid))


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


def banded_rows():
    """300 rows of entries a and b: magnitudes 1e-300 to 1e300 and zeros of both signs, some rows all zero."""
    rng = np.random.default_rng(24)
    a, b = (rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-300.0, 300.0, 300)
            for _ in "ab")
    for v in (a, b):
        v[rng.choice(300, 60, replace=False)] = rng.choice([0.0, -0.0], 60)
    a[::37] = b[::37] = -0.0
    a[5::41] = b[5::41] = 0.0
    return a, b


def whole_grid(fold, p, fp, q, fq):
    """The mean oracles' whole-grid pass (means._whole_grid) of fold over p*fp + q*fq, shaped like p."""
    rows = means._MeanRows(fold, p.reshape(-1, 1), fp, q.reshape(-1, 1), fq, None)
    return means._whole_grid(rows).reshape(p.shape)


def test_banded_stacks_give_each_row_its_bits_alone():
    # _whole_grid cuts a mean oracle's stack of rows into bands of at most
    # GRID_BLOCK // BAND_COLUMNS rows, each in blocks of at least
    # BAND_COLUMNS grid columns; a (k, n) stack of 1 to 300 rows gives
    # every row the bits of its one-row call (one band of one block at the
    # default grids), for both mean oracles and the quarter circle
    a, b = banded_rows()
    u, v = np.abs(a), np.abs(b)
    theta, angle = THETA_GRIDS[0], ANGLE_GRIDS[0]
    cos_t, sin_t = angle._trig
    qcos, qsin = angle._quarter_trig
    folds = [(np.minimum, u, theta.points, v, theta.inverse),
             (np.maximum, a, cos_t, b, sin_t), (np.maximum, a, qcos, b, qsin)]
    with np.errstate(all="ignore"):
        alone = [np.concatenate([whole_grid(f, p[i:i + 1], fp, q[i:i + 1], fq)
                                 for i in range(300)]) for f, p, fp, q, fq in folds]
        for rows in range(1, 301):
            n = next(d for d in (4, 3, 2, 1) if rows % d == 0)
            for (f, p, fp, q, fq), ref in zip(folds, alone):
                got = whole_grid(f, p[:rows].reshape(-1, n), fp, q[:rows].reshape(-1, n), fq)
                assert got.shape == (rows // n, n)
                assert_same_bits(got.ravel(), ref[:rows])


def test_two_stage_bands_give_each_row_its_bits_alone():
    # at 10^5 points the mean oracles take two stages, and a band of the
    # stages holds GRID_BLOCK // (2 * 449) = 72 rows (144 on the quarter
    # circle), so the 300 rows of a (75, 4) stack go in several bands:
    # each row has the full grid's bits and those of its one-row call
    a, b = banded_rows()
    u, v = np.abs(a), np.abs(b)
    cos_t, sin_t = BIG_ANGLE._trig
    qcos, qsin = BIG_ANGLE._quarter_trig
    cases = [(lambda p, q: means._box_times_oracle(p, q, BIG_THETA, 1e-12), u, v,
              lambda p, q: 0.5 * (p * BIG_THETA.points + q * BIG_THETA.inverse).min(axis=-1)),
             (lambda p, q: means._box_plus_oracle(p, q, BIG_ANGLE), a, b,
              lambda p, q: (p * cos_t + q * sin_t).max(axis=-1)),
             (lambda p, q: means._box_plus_oracle(p, q, BIG_ANGLE, quarter=True), a, b,
              lambda p, q: (p * qcos + q * qsin).max(axis=-1))]
    bands = []
    brackets = means._brackets

    def counting(values, *args):
        bands.append(len(values))
        return brackets(values, *args)

    for oracle, p, q, reference in cases:
        with np.errstate(all="ignore"):
            bands.clear()
            with mock.patch.object(means, "_brackets", counting):
                got = oracle(p.reshape(-1, 4), q.reshape(-1, 4)).ravel()
            assert len(bands) > 1 and sum(bands) == 300, bands
            # the reference five rows at a time, each of 10^5 columns
            ref = np.concatenate([reference(p[i:i + 5, None], q[i:i + 5, None])
                                  for i in range(0, 300, 5)])
            alone = np.concatenate([oracle(p[i:i + 1], q[i:i + 1]) for i in range(300)])
        assert_same_bits(got, ref)
        assert_same_bits(got, alone)
