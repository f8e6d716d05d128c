"""Geometric and square means on the positive cone of R^n.

Two binary means defined by variational formulas over the componentwise
lattice order:

    u [*] v = (1/2) inf { theta*u + v/theta : theta in (0, inf) }
    a [+] b = sup { cos(t)*a + sin(t)*b : t in [0, 2*pi] }

On R^n both have closed forms, sqrt(u*v) and sqrt(a^2 + b^2) componentwise.
The closed forms are the production path; the grid oracles realize the
defining inf/sup directly and are used to cross-check them. By construction
the theta oracle over-estimates the infimum and the angle oracle
under-estimates the supremum, so closed form and oracle always sandwich the
true value from opposite sides.

LogGrid is the one log-spaced multiplier grid: the theta grid here, and
the lambda magnitudes of the Cauchy-Schwarz defect oracle
(cauchy_schwarz.lambda_minima), also a minimum over multipliers.
AngleGrid stays separate, since it must contain both endpoints and the
axis angles.

One driver for the three grid oracles (_fold_grid). The [*] and [+]
oracles here and cauchy_schwarz's lambda oracle each fold the samples of
R rows over the columns of a grid, one row per coordinate of each pair
(n rows for one pair's (n,) vectors, k*n for a (k, n) stack of k
trials), with np.minimum or np.maximum. Each hands the driver a row
sampler that holds what differs between them (_MeanRows here,
cauchy_schwarz._Rows): how to sample rows lo:hi at columns shared by
every row or at each row's own, into a buffer the driver makes, and the
rows of a band's block arrays in that buffer (depth); the grid's
pieces, count columns each, on a circle or not; and each row's bound
E. The driver owns the rest, the same for every oracle: the bands of
rows, the two stages, the windows and the fallback.

Layout: coordinate-major, in blocks. A sample of a row at a column is
one element of a (rows, columns) array, which is never built whole. The
whole-grid pass (_whole_grid) samples a band of rows one block of grid
columns at a time, in grid order, reduces each block along its
contiguous rows and folds the block results in grid order; so memory is
bounded by the block, not by G or the row count. A band's block arrays
together hold at most GRID_BLOCK elements, in one buffer, and bands are
as few as keep BAND_COLUMNS columns in a block row where the grid has
them, out of numpy's slow regime for short rows. A call allocates its
buffer once and every block reuses it: the block loop makes no array,
so its cost does not depend on when the allocator maps or returns
memory, and no call frees a block larger than GRID_BLOCK elements. The
grid-side factors (1/theta, cos t and sin t, the quarter-circle angles,
the lambda grid's +- closure) are cached on the grid. The elements are
the products and sums of the grid-major layout, min and max are exact,
and halving after the minimum is monotone, so each result keeps its
bits at any block width; only the sign of a zero or of a NaN, which no
residual reads, may differ.

Two stages. Where a call's R rows and grid of G columns reach its
oracle's size threshold (MEAN_BRACKET_ELEMENTS; the lambda oracle's
LAMBDA_BRACKET_ELEMENTS), the driver first samples a coarse stride of
each grid piece: every s-th point and the piece's ends, s about
sqrt(count / 2) (_stride, _coarse). The theta grid is one linear piece,
the quarter circle another, and the full angle grid is taken as a circle
(every s-th point, no end: 0 and 2*pi are neighbours); the lambda grid
has two pieces, its negative and positive branches. Then, for each row,
it samples only the 2s - 1 points of each piece around its best coarse
sample, which hold every point between that sample's two coarse
neighbours, and folds the row over every point sampled. Rows go in
bands whose buffer holds at most GRID_BLOCK elements. Why that is the
full grid's extremum:

  - The exact function of a row on a piece is convex, monotone or
    concave in a log-spaced multiplier, or a cosine on an angle. Here
    theta*u + v/theta = u*e^s + v*e^-s with u, v >= 0 in s = log theta
    (convex), and a*cos t + b*sin t = R*cos(t - phi) (its superlevel
    sets are arcs of the circle; on the quarter it is either unimodal
    or has its minimum inside).
  - E bounds the rounding error of any sample of the piece: relative for
    theta, whose terms are non-negative (LogGrid._bound), and
    3*EPS*(|a| + |b|) for the angles (_angle_bound), each with an
    allowance for underflow. If every other coarse sample is worse than
    the best by more than 2E (_brackets), every other coarse sample is
    worse than the best in exact arithmetic too.
  - A point p outside the window lies beyond a coarse neighbour c of the
    best sample b. A convex, monotone or arc-unimodal function cannot
    come back: f(p) is no better than f(c). A concave one (or a cosine
    with its minimum inside the quarter) is no better inside any coarse
    interval than at one of its two ends. Either way f(p) is worse than
    the best sample by more than E, so p's sample cannot beat it.

Each result starts as NaN and a certified row's extremum replaces it.
A row that is still NaN or zero sends the whole call to the whole grid,
one _whole_grid call over all its rows: NaN where a row is not
certified (a coarse sample or E is not finite, or the margin is 2E or
less: a flat row, a tie between two coarse samples, a zero row), zero
where the extremum is a zero, whose sign the fold order decides. A
certified row's window minimum or maximum is the full grid's, so the
whole grid gives those rows the bits the stages give them. The samples
are the products and sums of the full pass, so every row has the full
grid's bits, and a row of a stack has its bits alone.

Validation (see lattice): box_times and both oracles check raw values.
The kernels _box_times, _box_plus, _box_times_oracle and _box_plus_oracle
hold each formula once, run on validated arrays, and check only
finiteness and, for [*], the cone floor; _box_plus, the square mean, has
no validating wrapper, since its callers hold validated arrays. The
*_gaps functions take validated arrays and call the kernels.

Stacks: the kernels, theta_minimizer, the *_gaps functions and
LogGrid.covers take one pair's (n,) vectors or a (k, n) stack of k
pairs, and reduce over the last axis, as the lattice residuals do: a
stack gives (k,) values, each row with the bits of its pair alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .lattice import (
    DEFAULT_ABS_TOL,
    NotInPositiveCone,
    _finite,
    as_lattice_vector,
    cone_gap,
    excess,
    in_positive_cone,
    lazy,
)

# Default grids of a verification run (TrialConfig). The theta range must
# be wide because the componentwise minimizer is sqrt(v_j/u_j), which spans
# the squared dynamic range of the inputs.
THETA_LO = 1e-8
THETA_HI = 1e8
THETA_COUNT = 10_000
ANGLE_COUNT = 4096

# Float64 elements of the one buffer a grid oracle's pass holds at once,
# all its block arrays: 8,192 grid columns of a mean oracle at n = 4,
# half a megabyte, which stays in cache. Of the widths 2**13 to 2**18
# timed (BENCH_grid_blocks.json), 2**15 and 2**16 ran fastest, within
# noise of each other; 2**16 holds the default theta grid in one block
# up to n = 3. A result's bits do not depend on it.
# The whole-grid pass does not narrow a block below BAND_COLUMNS for a
# stack's many rows: on numpy 2.4.6 a block's outer product, np.multiply
# of a (rows, 1) column and a (width,) grid slice, costs 1.2-1.7 ns per
# element at widths up to 2,730 columns and 0.25-0.5 ns from 2,800 up, at
# 1 to 56 rows (BENCH_stack_setup.json), so _whole_grid cuts the rows into
# bands.
GRID_BLOCK = 2**16
# Grid columns a block row keeps at least, where the grid has them.
BAND_COLUMNS = 4096
# The fewest elements of a mean oracle's (rows, G) array that take two
# stages (_stride): on numpy 2.4.6 (BENCH_grid_brackets.json) two stages
# took longer below about this size, and far less above it.
MEAN_BRACKET_ELEMENTS = 2**16
# Machine epsilon of float64 (twice its unit roundoff), and the largest
# error of a product that underflows, the least subnormal.
EPS = 2.0**-52
UNDERFLOW = 2.0**-1074


@dataclass(frozen=True)
class LogGrid:
    """Strictly positive, strictly increasing multipliers (theta, or lambda magnitudes)."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_lattice_vector(self.points)
        if pts.min() <= 0.0:
            raise ValueError("grid points must be strictly positive")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def log_spaced(cls, lo: float, hi: float, count: int) -> "LogGrid":
        if not (0.0 < lo < hi) or count < 2:
            raise ValueError("need 0 < lo < hi and count >= 2")
        return cls(np.logspace(np.log10(lo), np.log10(hi), count))

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])

    @property
    def count(self) -> int:
        return int(self.points.size)

    @lazy
    def inverse(self) -> np.ndarray:
        """1/points, the v/theta factors of the [*] oracle."""
        return 1.0 / self.points

    @lazy
    def signed(self) -> np.ndarray:
        """-points reversed, then points: the grid's +- closure, increasing."""
        return np.concatenate([-self.points[::-1], self.points])

    @lazy
    def signed_abs(self) -> np.ndarray:
        """|signed|: the points reversed, then the points."""
        return np.concatenate([self.points[::-1], self.points])

    def _bound(self, u, v, best) -> np.ndarray:
        """E of the [*] oracle's rows: theta*u + v/theta has non-negative terms, so a relative bound.

        Each of theta*u, 1/theta, its product with v and the sum rounds
        once, and each product may underflow, so a sample is within
        2*EPS of its exact value relatively, plus 2*UNDERFLOW; E covers
        that bound at the best sample and at every worse one. Where
        1/theta may be subnormal (hi >= 2^1021), no row is certified.
        """
        rel = 4.0 * EPS if self.hi < 2.0**1021 else np.inf
        return rel * best + 2.0 * UNDERFLOW

    def covers(self, values: np.ndarray) -> np.ndarray:
        """True where every finite positive value of a row lies inside [lo, hi].

        Used to flag oracle evaluations whose componentwise minimizer falls
        outside the grid, where the one-sided over-estimate is not tight.
        One (n,) vector gives one bool, a (k, n) stack a (k,) array.
        """
        v = np.asarray(values, dtype=np.float64)
        outside = np.isfinite(v) & (v > 0.0) & ((v < self.lo) | (v > self.hi))
        return ~outside.any(axis=-1)


@dataclass(frozen=True)
class AngleGrid:
    """Sorted angle grid on [0, 2*pi] for the [+] supremum.

    Invariant: covers both endpoints 0 and 2*pi. The uniform constructor
    takes the count points k * (2*pi / count) and adds the axis angles 0,
    pi/2, pi, 3*pi/2 and 2*pi, so each axis angle is a grid point exactly
    and a [+] 0 = |a| is exact rather than approximate. Where a rounded
    base point equals an axis angle, the two are one point: at 4,096 and
    10^4 points all do, and the grid holds count + 1 points. Elsewhere an
    axis angle lies an ulp or a few beside a base point and the grid
    holds both: at 10^5 points pi/2, pi and 3*pi/2 do, and the grid holds
    100,004 points.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = as_lattice_vector(self.points)
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("angle grid points must be strictly increasing")
        if pts[0] != 0.0 or abs(pts[-1] - 2.0 * np.pi) > 1e-15:
            raise ValueError("angle grid must cover the endpoints 0 and 2*pi")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, count: int) -> "AngleGrid":
        if count < 4:
            raise ValueError("need at least 4 angles")
        base = np.arange(count) * (2.0 * np.pi / count)
        axes = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0 * np.pi])
        return cls(np.unique(np.concatenate([base, axes])))

    @property
    def count(self) -> int:
        return int(self.points.size)

    @lazy
    def _trig(self) -> tuple[np.ndarray, np.ndarray]:
        return np.cos(self.points), np.sin(self.points)

    @lazy
    def _quarter_trig(self) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of the angles in [0, pi/2]."""
        keep = self.points <= 0.5 * np.pi
        cos_t, sin_t = self._trig
        return cos_t[keep], sin_t[keep]


def _vectors(u, v) -> tuple[np.ndarray, np.ndarray]:
    """The arguments of a mean as finite 1-d vectors of one dimension."""
    u = as_lattice_vector(u)
    return u, as_lattice_vector(v, u.size)


def _cone_pair(name: str, u: np.ndarray, v: np.ndarray,
               floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Finite u and v in F+, entries within the floor clamped to 0.

    floor may hold one value per row of a stack; an error names the first
    entry below its own row's floor.
    """
    for a in (u, v):
        if not in_positive_cone(_finite(a), tol=floor):
            floors = np.broadcast_to(floor, a.shape)
            i = np.argmax(a < -floors)
            raise NotInPositiveCone(
                f"{name} requires arguments in F+: entry {float(a.flat[i])} "
                f"is below -{float(floors.flat[i])}")
    return np.maximum(u, 0.0), np.maximum(v, 0.0)


def _box_times(u: np.ndarray, v: np.ndarray, floor: float) -> np.ndarray:
    """box_times on validated vectors (or stacks) of one dimension."""
    u, v = _cone_pair("box_times", u, v, floor)
    return np.sqrt(u * v)


def box_times(u, v, floor: float = DEFAULT_ABS_TOL) -> np.ndarray:
    """Geometric mean u [*] v = sqrt(u*v) componentwise.

    Arguments must lie in the positive cone; entries within the rounding
    floor are clamped to 0 first, so the product under the root is >= 0 and
    either argument being 0 in a slot gives 0 there.
    """
    return _box_times(*_vectors(u, v), floor)


def _block_width(rows: int, count: int) -> int:
    """Columns of a full block of a grid oracle's (rows, count) array.

    GRID_BLOCK // rows, one at least and count at most.
    """
    return max(min(GRID_BLOCK // rows, count), 1)


def _stride(count: int, elements: int, least: int) -> int:
    """The coarse stride s of a two-stage pass over a piece of count points, or 0 for one pass.

    The coarse stage evaluates about count / s points of the piece and
    the fine stage a window of 2s - 1 per row, least at
    s = sqrt(count / 2). Two stages cost a few dozen numpy calls more than
    one pass, so a call takes them only where its whole grid holds at
    least least elements (elements, its rows times its points) and they
    evaluate at most a quarter of the piece's points.
    """
    s = math.isqrt(count // 2)
    if elements < least or s < 2 or count // s + 2 + 2 * s - 1 > count // 4:
        return 0
    return s


def _coarse(count: int, s: int, circle: bool = False) -> np.ndarray:
    """The coarse positions of a piece: every s-th point, and the last point unless the piece is a circle."""
    at = np.arange(0, count, s)
    return at if circle or at[-1] == count - 1 else np.append(at, count - 1)


def _brackets(values: np.ndarray, fold, bound, s: int, count: int,
              circle: bool = False) -> tuple:
    """(certified, windows): each row's certificate and the (rows, 2s - 1) positions of its window.

    values is (rows, P): each row's samples at _coarse(count, s, circle).
    bound(best) is each row's bound E on the rounding error of any sample
    of its piece, given its best coarse sample. A row is certified where
    every coarse sample is finite, E is finite and every other coarse
    sample is worse than the best by more than 2E; its window is the
    2s - 1 positions centred on the best coarse position (cyclic on a
    circle, else shifted inside the piece), which holds every point
    between the best's two coarse neighbours.
    """
    rows = np.arange(len(values))
    at = values.argmin(axis=1) if fold is np.minimum else values.argmax(axis=1)
    best = values[rows, at]
    others = values.copy()
    others[rows, at] = np.inf if fold is np.minimum else -np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        margin = np.abs(fold.reduce(others, axis=1) - best)
        certified = np.isfinite(values).all(axis=1) & (margin > 2.0 * bound(best))
    start = _coarse(count, s, circle)[at] - (s - 1)
    if not circle:
        start = np.clip(start, 0, count - (2 * s - 1))
    return certified, (start[:, None] + np.arange(2 * s - 1)) % count


def _whole_grid(rows) -> np.ndarray:
    """Each row's extremum over every column of the grid, band by band and block by block.

    A band holds the fewest even share of the rows whose block arrays,
    rows.depth(band) rows in all, keep BAND_COLUMNS columns in
    GRID_BLOCK elements, or that do not widen them; its blocks of
    columns, of GRID_BLOCK // depth columns, are sampled in grid order
    into one buffer of at most GRID_BLOCK elements (depth elements where
    one column takes more), made once, each reduced along its rows and
    folded into the results.
    """
    R, N, depth = rows.size, rows.pieces * rows.count, rows.depth
    limit = max(GRID_BLOCK // BAND_COLUMNS, depth(1))
    bands = -(-R // bisect_right(range(1, R + 1), limit, key=depth))
    band = -(-R // bands)
    width = _block_width(depth(band), N)
    buf = np.empty(depth(band) * width)
    out = np.empty(R)
    for lo in range(0, R, band):
        hi = min(lo + band, R)
        part = out[lo:hi]
        for start in range(0, N, width):
            low = rows.fold.reduce(rows.sample(lo, hi, slice(start, start + width), buf), axis=1)
            if start:
                rows.fold(part, low, out=part)
            else:
                part[:] = low
    return out


def _fold_grid(rows, least: int) -> np.ndarray:
    """Each row's extremum over the grid: two stages where they pay, the whole grid where needed.

    rows is the oracle's row sampler (_MeanRows, or cauchy_schwarz._Rows):
      - fold: np.minimum or np.maximum; size: its R rows;
      - count, pieces, circle: the grid is pieces pieces of count
        columns each, in turn, and a one-piece grid may be a circle;
      - depth(b): the rows of a band of b rows' block arrays, all told;
      - sample(lo, hi, cols, buf): rows lo:hi, one (hi - lo, width)
        array, at cols (a slice or (P,) columns of every row, or
        (hi - lo, P) of each), in a view of buf;
      - error(lo, hi, best): E of those rows on each piece, given best.
    The stages take a stride s = _stride(count, elements, least),
    elements the rows times the grid's columns. The coarse stage samples
    every s-th point and the end of each piece (_coarse) for every row;
    _brackets certifies each row on each piece. Each row then samples
    the window of 2s - 1 points around its best coarse sample on each
    piece, and takes its extremum over those columns where it is
    certified on every piece (see the module docstring). Rows go in
    bands whose buffer holds at most GRID_BLOCK elements. The results
    start as NaN, and where a row is still NaN or zero, the call takes
    the whole grid, one _whole_grid call over all its rows.
    """
    count, pieces, R = rows.count, rows.pieces, rows.size
    s = _stride(count, R * pieces * count, least)
    if not s:
        return _whole_grid(rows)
    at = _coarse(count, s, rows.circle)
    cols = np.concatenate([start + at for start in range(0, pieces * count, count)])
    span = pieces * (2 * s - 1)
    widest = max(cols.size, span)
    depth = rows.depth(1)  # elements per row and column
    band = _block_width(depth * widest, R)
    buf = np.empty(depth * band * widest)
    out = np.full(R, np.nan)
    for lo in range(0, R, band):
        hi = min(lo + band, R)
        certified, windows = _brackets(rows.sample(lo, hi, cols, buf).reshape(-1, at.size),
                                       rows.fold, lambda best: rows.error(lo, hi, best), s, count,
                                       rows.circle)
        ok = certified.reshape(-1, pieces).all(axis=1)
        if ok.any():
            for piece in range(1, pieces):
                windows[piece::pieces] += piece * count
            low = rows.fold.reduce(rows.sample(lo, hi, windows.reshape(hi - lo, span), buf),
                                   axis=1)
            out[lo:hi][ok] = low[ok]
    return _whole_grid(rows) if (np.isnan(out) | (out == 0.0)).any() else out


class _MeanRows:
    """The rows of a mean oracle's call, one per entry of p and q: _fold_grid's sampler of p*fp + q*fq.

    p and q are an (n,) vector or a (k, n) stack, fp and fq the grid's
    factors (theta and 1/theta, or cos t and sin t) at its count points,
    one piece, a circle for the full angle grid; E(p, q, best) is each
    row's bound (LogGrid._bound, _angle_bound). A band's block arrays
    are the sum w and the term t, one row each per row.
    """

    pieces = 1

    def __init__(self, fold, p, fp, q, fq, E, circle=False):
        self.fold, self.fp, self.fq, self.E, self.circle = fold, fp, fq, E, circle
        self.p, self.q = p.reshape(-1, 1), q.reshape(-1, 1)
        self.size, self.count = len(self.p), fp.size

    def depth(self, b: int) -> int:
        return 2 * b

    def sample(self, lo: int, hi: int, cols, buf: np.ndarray) -> np.ndarray:
        """p*fp + q*fq of rows lo:hi at cols: a slice or (P,) columns of every row, or (hi - lo, P) of each."""
        fp, fq = self.fp[cols], self.fq[cols]
        n = (hi - lo) * fp.shape[-1]
        w, t = buf[:n].reshape(hi - lo, -1), buf[n:2 * n].reshape(hi - lo, -1)
        np.multiply(self.p[lo:hi], fp, out=w)
        w += np.multiply(self.q[lo:hi], fq, out=t)
        return w

    def error(self, lo: int, hi: int, best: np.ndarray) -> np.ndarray:
        return self.E(self.p[lo:hi, 0], self.q[lo:hi, 0], best)


def _box_times_oracle(u: np.ndarray, v: np.ndarray, grid: LogGrid,
                      floor: float) -> np.ndarray:
    """box_times_oracle on validated vectors (or stacks) of one dimension."""
    u, v = _cone_pair("box_times_oracle", u, v, floor)
    rows = _MeanRows(np.minimum, u, grid.points, v, grid.inverse, grid._bound)
    return 0.5 * _fold_grid(rows, MEAN_BRACKET_ELEMENTS).reshape(u.shape)


def box_times_oracle(u, v, grid: LogGrid,
                     floor: float = DEFAULT_ABS_TOL) -> np.ndarray:
    """Grid realization of (1/2) inf_theta (theta*u + v/theta).

    Always an over-estimate of the true infimum: the min is taken over a
    finite sample of multipliers. No special casing of zero entries; when a
    componentwise minimizer sqrt(v_j/u_j) falls outside the grid range the
    over-estimate is not tight (LogGrid.covers flags that situation).
    """
    return _box_times_oracle(*_vectors(u, v), grid, floor)


def theta_minimizer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Componentwise argmin sqrt(v/u) of theta -> (theta*u + v/theta)/2.

    Entries with u = 0 have no finite minimizer (inf), entries with v = 0
    minimize at 0; both are returned as-is for LogGrid.covers to ignore.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(np.divide(v, u))


def _angle_bound(a, b, best) -> np.ndarray:
    """E of the [+] oracle's rows: 3*EPS*(|a| + |b|) + UNDERFLOW for any angle's sample.

    cos t and sin t are within an ulp of their exact values, and the two
    products and the sum round once each, so a sample a*cos t + b*sin t is
    within 2*EPS*(|a| + |b|) of R*cos(t - phi), plus an underflow; E keeps
    half as much again in reserve.
    """
    with np.errstate(over="ignore"):
        return 3.0 * EPS * (np.abs(a) + np.abs(b)) + UNDERFLOW


def _box_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Square mean a [+] b = sqrt(a^2 + b^2) componentwise, any signs, on validated arrays."""
    return np.hypot(_finite(a), _finite(b))


def _box_plus_oracle(a: np.ndarray, b: np.ndarray, grid: AngleGrid,
                     quarter: bool = False) -> np.ndarray:
    """box_plus_oracle on validated vectors (or stacks) of one dimension."""
    cos_t, sin_t = grid._quarter_trig if quarter else grid._trig
    rows = _MeanRows(np.maximum, a, cos_t, b, sin_t, _angle_bound, circle=not quarter)
    return _fold_grid(rows, MEAN_BRACKET_ELEMENTS).reshape(a.shape)


def box_plus_oracle(a, b, grid: AngleGrid,
                    quarter: bool = False) -> np.ndarray:
    """Grid realization of sup_t (cos(t)*a + sin(t)*b).

    Always an under-estimate of the true supremum. With quarter=True only
    angles in [0, pi/2] are used, which is sufficient (and equal, up to the
    shared grid points) when both arguments lie in the positive cone.
    """
    return _box_plus_oracle(*_vectors(a, b), grid, quarter)


def box_times_gaps(u, v, grid: LogGrid,
                   floor: float = DEFAULT_ABS_TOL) -> tuple:
    """(sandwich, gap) of the theta-grid oracle against box_times(u, v).

    Both are normalized by the larger of the two values: sandwich is the
    violation of oracle >= closed form, gap the worst over-estimate. One
    float each for (n,) vectors, a (k,) array each for (k, n) stacks.
    """
    bt = _box_times(u, v, floor)
    bt_o = _box_times_oracle(u, v, grid, floor)
    scale = np.maximum(bt, bt_o) + floor
    return cone_gap(bt_o - bt, scale), excess(bt_o - bt, scale)


def box_plus_gaps(a, b, grid: AngleGrid,
                  floor: float = DEFAULT_ABS_TOL) -> tuple:
    """(sandwich, gap) of the angle-grid oracle against a [+] b (_box_plus).

    sandwich is the violation of oracle <= closed form, gap the worst
    absolute difference, both normalized by the larger magnitude. One
    float each for (n,) vectors, a (k,) array each for (k, n) stacks.
    """
    bp = _box_plus(a, b)
    bp_o = _box_plus_oracle(a, b, grid)
    scale = np.maximum(bp, np.abs(bp_o)) + floor
    return cone_gap(bp - bp_o, scale), (np.abs(bp - bp_o) / scale).max(axis=-1)
