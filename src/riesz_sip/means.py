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

Layout of the grid oracles: coordinate-major. Each oracle builds an
(n, G) array and reduces along its contiguous rows; the grid-side factors
(1/theta, cos t and sin t, the quarter-circle angles) are cached on the
grid. The elements are the products and sums of the grid-major layout,
min and max are exact, and halving after the minimum is monotone, so each
result keeps its bits; only the sign of a zero or of a NaN, which no
residual reads, may differ.

Validation (see lattice): box_times, box_plus and both oracles check raw
values. The kernels _box_times and _box_plus hold each mean's one formula,
run on validated arrays, and check only finiteness and, for [*], the cone
floor. The *_gaps functions take validated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import (
    DEFAULT_ABS_TOL,
    NotInPositiveCone,
    _finite,
    as_lattice_vector,
    cone_gap,
    excess,
    in_positive_cone,
)

# Default grids of a verification run (TrialConfig). The theta range must
# be wide because the componentwise minimizer is sqrt(v_j/u_j), which spans
# the squared dynamic range of the inputs.
THETA_LO = 1e-8
THETA_HI = 1e8
THETA_COUNT = 10_000
ANGLE_COUNT = 4096


@dataclass(frozen=True)
class LogGrid:
    """Strictly positive, strictly increasing multipliers (theta, or lambda magnitudes)."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_lattice_vector(self.points)
        if np.min(pts) <= 0.0:
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

    @cached_property
    def inverse(self) -> np.ndarray:
        """1/points, the v/theta factors of the [*] oracle."""
        return 1.0 / self.points

    @cached_property
    def signed(self) -> np.ndarray:
        """-points reversed, then points: the grid's +- closure, increasing."""
        return np.concatenate([-self.points[::-1], self.points])

    @cached_property
    def signed_abs(self) -> np.ndarray:
        """|signed|: the points reversed, then the points."""
        return np.concatenate([self.points[::-1], self.points])

    def covers(self, values: np.ndarray) -> bool:
        """True iff every finite positive value lies inside [lo, hi].

        Used to flag oracle evaluations whose componentwise minimizer falls
        outside the grid, where the one-sided over-estimate is not tight.
        """
        v = np.asarray(values, dtype=np.float64)
        mask = np.isfinite(v) & (v > 0.0)
        if not np.any(mask):
            return True
        return bool(v[mask].min() >= self.lo and v[mask].max() <= self.hi)


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

    @cached_property
    def _trig(self) -> tuple[np.ndarray, np.ndarray]:
        return np.cos(self.points), np.sin(self.points)

    @cached_property
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
    """Finite u and v in F+, entries within the floor clamped to 0."""
    for a in (u, v):
        if not in_positive_cone(_finite(a), tol=floor):
            raise NotInPositiveCone(
                f"{name} requires arguments in F+: entry {np.min(a)} is below -{floor}")
    return np.maximum(u, 0.0), np.maximum(v, 0.0)


def _box_times(u: np.ndarray, v: np.ndarray, floor: float) -> np.ndarray:
    """box_times on validated vectors of one dimension."""
    u, v = _cone_pair("box_times", u, v, floor)
    return np.sqrt(u * v)


def box_times(u, v, floor: float = DEFAULT_ABS_TOL) -> np.ndarray:
    """Geometric mean u [*] v = sqrt(u*v) componentwise.

    Arguments must lie in the positive cone; entries within the rounding
    floor are clamped to 0 first, so the product under the root is >= 0 and
    either argument being 0 in a slot gives 0 there.
    """
    return _box_times(*_vectors(u, v), floor)


def box_times_oracle(u, v, grid: LogGrid,
                     floor: float = DEFAULT_ABS_TOL) -> np.ndarray:
    """Grid realization of (1/2) inf_theta (theta*u + v/theta).

    Always an over-estimate of the true infimum: the min is taken over a
    finite sample of multipliers. No special casing of zero entries; when a
    componentwise minimizer sqrt(v_j/u_j) falls outside the grid range the
    over-estimate is not tight (LogGrid.covers flags that situation).
    """
    u, v = _cone_pair("box_times_oracle", *_vectors(u, v), floor)
    return 0.5 * (u[:, None] * grid.points + v[:, None] * grid.inverse).min(axis=1)


def theta_minimizer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Componentwise argmin sqrt(v/u) of theta -> (theta*u + v/theta)/2.

    Entries with u = 0 have no finite minimizer (inf), entries with v = 0
    minimize at 0; both are returned as-is for LogGrid.covers to ignore.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(np.divide(v, u))


def _box_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """box_plus on validated vectors of one dimension."""
    return np.hypot(_finite(a), _finite(b))


def box_plus(a, b) -> np.ndarray:
    """Square mean a [+] b = sqrt(a^2 + b^2) componentwise, any signs."""
    return _box_plus(*_vectors(a, b))


def box_plus_oracle(a, b, grid: AngleGrid,
                    quarter: bool = False) -> np.ndarray:
    """Grid realization of sup_t (cos(t)*a + sin(t)*b).

    Always an under-estimate of the true supremum. With quarter=True only
    angles in [0, pi/2] are used, which is sufficient (and equal, up to the
    shared grid points) when both arguments lie in the positive cone.
    """
    a, b = _vectors(a, b)
    cos_t, sin_t = grid._quarter_trig if quarter else grid._trig
    return (a[:, None] * cos_t + b[:, None] * sin_t).max(axis=1)


def box_times_gaps(u, v, grid: LogGrid,
                   floor: float = DEFAULT_ABS_TOL) -> tuple[float, float]:
    """(sandwich, gap) of the theta-grid oracle against box_times(u, v).

    Both are normalized by the larger of the two values: sandwich is the
    violation of oracle >= closed form, gap the worst over-estimate.
    """
    bt = _box_times(u, v, floor)
    bt_o = box_times_oracle(u, v, grid, floor=floor)
    scale = np.maximum(bt, bt_o) + floor
    return cone_gap(bt_o - bt, scale), excess(bt_o - bt, scale)


def box_plus_gaps(a, b, grid: AngleGrid,
                  floor: float = DEFAULT_ABS_TOL) -> tuple[float, float]:
    """(sandwich, gap) of the angle-grid oracle against box_plus(a, b).

    sandwich is the violation of oracle <= closed form, gap the worst
    absolute difference, both normalized by the larger magnitude.
    """
    bp = _box_plus(a, b)
    bp_o = box_plus_oracle(a, b, grid)
    scale = np.maximum(bp, np.abs(bp_o)) + floor
    return cone_gap(bp - bp_o, scale), float((np.abs(bp - bp_o) / scale).max())
