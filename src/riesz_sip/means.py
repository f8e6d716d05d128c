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
(cauchy_schwarz.defect_grid), also a minimum over multipliers. AngleGrid
stays separate, since it must contain both endpoints and the axis angles.

Layout of the grid oracles: coordinate-major, in blocks. Each oracle
evaluates its (rows, G) array, one row per coordinate of each pair (n
rows for one pair's (n,) vectors, k*n for a (k, n) stack of k trials),
one block of grid columns at a time (_blocks: at most GRID_BLOCK
elements), accumulating the block in place and reducing it along its
contiguous rows, and folds the block results with np.minimum or
np.maximum in grid order; so memory is bounded by the block, not by G or
the row count. The mean oracles (_fold_blocks) cut a stack's rows into
bands of at most GRID_BLOCK // BAND_COLUMNS rows and run each band's
blocks in turn, so that a block row keeps BAND_COLUMNS grid columns
where the grid has them, out of numpy's slow regime for short rows. A
call allocates its block buffers once and every block reuses them
(_block_view): the block loop makes no array, so its cost does not
depend on when the allocator maps or returns memory. The grid-side factors (1/theta, cos t and sin t, the
quarter-circle angles) are cached on the grid. The elements are the
products and sums of the grid-major layout, min and max are exact, and
halving after the minimum is monotone, so each result keeps its bits at
any block width; only the sign of a zero or of a NaN, which no residual
reads, may differ. cauchy_schwarz's lambda-grid oracle uses the same
blocks.

Two stages (_fold_bracketed). Where a call's (rows, G) array holds at
least MEAN_BRACKET_ELEMENTS elements, an oracle first evaluates a coarse
stride of its grid piece: every s-th point and the piece's ends, s about
sqrt(G / 2) (_stride, _coarse). The theta grid is one linear piece, the
quarter circle another, and the full angle grid is taken as a circle
(every s-th point, no end: 0 and 2*pi are neighbours). Then, for each
row, it evaluates only the 2s - 1 points around its best coarse sample,
which hold every point between that sample's two coarse neighbours, and
folds the row over every point evaluated. Why that is the full grid's
extremum:

  - The exact function of a row is theta*u + v/theta = u*e^s + v*e^-s
    with u, v >= 0 in s = log theta (convex), or a*cos t + b*sin t =
    R*cos(t - phi) (its superlevel sets are arcs of the circle; on the
    quarter it is either unimodal or has its minimum inside).
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

A row falls back to the whole grid, block by block (_fold_blocks, as
above), where any coarse sample or E is not finite, where the margin is
2E or less (a flat row, a tie between two coarse samples, a zero row),
and where the extremum is a zero, whose sign the fold order decides. The
samples are the products and sums of the full pass, so every row has the
full grid's bits, and a row of a stack has its bits alone.

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
from dataclasses import dataclass
from functools import reduce

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

# Float64 elements of the largest array a grid oracle holds at once:
# 16,384 grid columns at n = 4, half a megabyte, which stays in cache.
# Of the widths 2**13 to 2**18 timed (BENCH_grid_blocks.json), 2**15 and
# 2**16 ran fastest, within noise of each other; 2**16 holds the default
# theta grid in one block up to n = 6. A result's bits do not depend on it.
# The mean oracles do not narrow a block below BAND_COLUMNS for a stack's
# many rows: on numpy 2.4.6 a block's outer product, np.multiply of a
# (rows, 1) column and a (width,) grid slice, costs 1.2-1.7 ns per element
# at widths up to 2,730 columns and 0.25-0.5 ns from 2,800 up, at 1 to 56
# rows (BENCH_stack_setup.json), so _fold_blocks cuts the rows into bands.
GRID_BLOCK = 2**16
# Grid columns a block row keeps at least, where the grid has them.
BAND_COLUMNS = 4096
# The fewest elements of a grid oracle's (rows, G) array that take two
# stages (_stride), for a mean oracle and for the lambda grid, whose kernel
# makes m^2 + 2m passes per stage: on numpy 2.4.6 (BENCH_grid_brackets.json)
# two stages took longer below about these sizes, and far less above them.
MEAN_BRACKET_ELEMENTS = 2**16
LAMBDA_BRACKET_ELEMENTS = 2**14
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
    has count divisible by 4, so the axis angles 0, pi/2, pi, 3*pi/2 are
    grid points exactly (spacing is pi over a power of two times an
    integer); this makes a [+] 0 = |a| exact rather than approximate.
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


def _blocks(rows: int, count: int):
    """Slices of range(count), in order, of _block_width(rows, count) columns (the last fewer).

    The column blocks of a grid oracle's (rows, count) array.
    """
    width = _block_width(rows, count)
    for lo in range(0, count, width):
        yield slice(lo, min(lo + width, count))


def _block_view(buf: np.ndarray, rows: int, cols: slice) -> np.ndarray:
    """The block cols of a (rows, count) array: a contiguous (rows, width) view of buf's start.

    buf is a flat buffer of rows * _block_width(rows, count) elements that
    an oracle call allocates once and every block reuses.
    """
    return buf[:rows * (cols.stop - cols.start)].reshape(rows, -1)


def _fold_blocks(fold, a: np.ndarray, fa: np.ndarray, b: np.ndarray,
                 fb: np.ndarray) -> np.ndarray:
    """fold (np.minimum or np.maximum) of a*fa + b*fb over the grid, entry by entry, in blocks.

    a and b are an (n,) vector or a (k, n) stack; each entry is one row
    of the (rows, G) array, which is never built whole. The rows go in
    the fewest bands of at most GRID_BLOCK // BAND_COLUMNS rows, of even
    size, and each band's blocks (_blocks of the band) are accumulated in
    place in two block buffers and reduced, and their results folded in
    grid order.
    """
    rows, count = a.size, fa.size
    bands = -(-rows // max(GRID_BLOCK // BAND_COLUMNS, 1))
    band = -(-rows // bands)
    w_buf, t_buf = np.empty((2, band * _block_width(band, count)))
    a_col, b_col = a.reshape(-1, 1), b.reshape(-1, 1)
    out = np.empty(rows)

    def block(lo, hi, cols):
        w, t = _block_view(w_buf, hi - lo, cols), _block_view(t_buf, hi - lo, cols)
        np.multiply(a_col[lo:hi], fa[cols], out=w)
        w += np.multiply(b_col[lo:hi], fb[cols], out=t)
        return fold.reduce(w, axis=1)

    for lo in range(0, rows, band):
        hi = min(lo + band, rows)
        out[lo:hi] = reduce(fold, (block(lo, hi, cols) for cols in _blocks(band, count)))
    return out.reshape(a.shape)


def _stride(count: int, windows: int, elements: int, least: int) -> int:
    """The coarse stride s of a two-stage pass over a piece of count points, or 0 for one pass.

    windows is the number of row windows that share the fine stage's
    columns (1 for a mean oracle's row, the codomain rows for the lambda
    grid). The coarse stage evaluates about count / s points and the fine
    stage windows * (2s - 1), least at s = sqrt(count / (2 * windows)).
    Two stages cost a few dozen numpy calls more than one pass, so a call
    takes them only where its whole grid holds at least least elements
    (elements, its rows times its points) and they evaluate at most a
    quarter of the piece's points.
    """
    s = math.isqrt(count // (2 * windows))
    if elements < least or s < 2 or count // s + 2 + windows * (2 * s - 1) > count // 4:
        return 0
    return s


def _coarse(count: int, s: int, circle: bool = False) -> np.ndarray:
    """The coarse positions of a piece: every s-th point, and the last point unless the piece is a circle."""
    at = np.arange(0, count, s)
    return at if circle or at[-1] == count - 1 else np.append(at, count - 1)


def _brackets(values: np.ndarray, fold, bound, s: int, count: int,
              circle: bool = False) -> tuple:
    """(certified, starts) of each row's fine window, from its coarse samples.

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
    starts = start % count if circle else np.clip(start, 0, count - (2 * s - 1))
    return certified, starts


def _windows(starts: np.ndarray, s: int, count: int, circle: bool = False) -> np.ndarray:
    """The (rows, 2s - 1) positions of each row's window from its start."""
    at = starts[:, None] + np.arange(2 * s - 1)
    return at % count if circle else at


def _fold_bracketed(fold, a: np.ndarray, fa: np.ndarray, b: np.ndarray, fb: np.ndarray,
                    bound, circle: bool = False) -> np.ndarray:
    """_fold_blocks's values, from a coarse stride and a certified bracket per row.

    The coarse stage evaluates a*fa + b*fb at every s-th grid point and at
    the piece's ends (_coarse), s = _stride(G, 1, ...); the fine stage, at the
    rows _brackets certifies under bound(a, b, best), only the window
    around the best coarse sample, and folds the row over every point
    evaluated. Rows that are not certified, or whose extremum is a zero
    (whose sign the fold order decides), take the whole grid
    (_fold_blocks). Each element is the product and sum of the full pass,
    so a certified row has its bits; rows go in bands of at most a block.
    """
    count = fa.size
    s = _stride(count, 1, a.size * count, MEAN_BRACKET_ELEMENTS)
    if not s:
        return _fold_blocks(fold, a, fa, b, fb)
    at = _coarse(count, s, circle)
    ca, cb = fa[at], fb[at]
    a_flat, b_flat = a.reshape(-1), b.reshape(-1)
    rows = a_flat.size
    out = np.empty(rows)
    whole = np.zeros(rows, dtype=bool)
    band = max(GRID_BLOCK // max(at.size, 2 * s - 1), 1)
    for lo in range(0, rows, band):
        hi = min(lo + band, rows)
        a_col, b_col = a_flat[lo:hi, None], b_flat[lo:hi, None]
        values = np.multiply(a_col, ca)
        values += np.multiply(b_col, cb)
        certified, starts = _brackets(values, fold, lambda best: bound(a_col[:, 0], b_col[:, 0], best),
                                      s, count, circle)
        win = _windows(starts[certified], s, count, circle)
        fine = np.multiply(a_col[certified], fa[win])
        fine += np.multiply(b_col[certified], fb[win])
        ext = fold.reduce(fine, axis=1)
        band_out, band_whole = out[lo:hi], whole[lo:hi]
        band_out[certified] = ext
        band_whole[:] = ~certified
        band_whole[certified] = ext == 0.0
    if whole.any():
        out[whole] = _fold_blocks(fold, a_flat[whole], fa, b_flat[whole], fb)
    return out.reshape(a.shape)


def _box_times_oracle(u: np.ndarray, v: np.ndarray, grid: LogGrid,
                      floor: float) -> np.ndarray:
    """box_times_oracle on validated vectors (or stacks) of one dimension."""
    u, v = _cone_pair("box_times_oracle", u, v, floor)
    return 0.5 * _fold_bracketed(np.minimum, u, grid.points, v, grid.inverse, grid._bound)


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
    return _fold_bracketed(np.maximum, a, cos_t, b, sin_t, _angle_bound, circle=not quarter)


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
