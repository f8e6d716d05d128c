"""Cauchy-Schwarz defect for lattice-valued semi-inner products.

For a semi-inner product T and vectors x, y the defect is

    D(x, y) = inf over lambda != 0 of |lambda|^-1 T(lambda*x - y, lambda*x - y),

a positive-cone element measuring how far the pair is from Cauchy-Schwarz
equality. Writing a = T(x,x), b = T(x,y), c = T(y,y), one-variable calculus
per coordinate and per sign of lambda gives the closed form

    D_j = 2*(sqrt(a_j*c_j) - |b_j|),

and with it the exact identity |T(x,y)| = a [*] c - D/2, of which the
Cauchy-Schwarz inequality |T(x,y)| <= T(x,x) [*] T(y,y) is the D >= 0
corollary, with equality iff D = 0.

Gram is the one record of a pair: x and y, an optional weight u, a, b, c
with sqrt(a*c) and the closed-form defect derived from them, and the
seminorm values of the triangle-type theorems (see seminorms), each
validated or evaluated once, on first read. The identity (cs_identity),
the inequality with its biconditional (cs_verdict) and the oracle
comparison (defect_gaps) are pure functions of a Gram. The harness's
trial record is a Gram, and every suite of a trial reads it. Their
residuals, the borderline window and the fold of two gaps follow the
package-wide residual policy of lattice (cone_gap, excess, near and the
NaN-first maximum).

The lambda-grid oracle must stay independent of that derivation: it
samples the defining family by evaluating T directly on lambda*x - y over
the +- closure of a log-spaced magnitude grid (means.LogGrid, the grid
type of the [*] infimum), using neither bilinear expansion nor calculus.
The grid minimum over-estimates the infimum, so grid >= closed always,
and the gap shrinks with grid resolution. lambda_samples is the one
sampler: it holds the T-values T(lambda*x - y, lambda*x - y), which do
not depend on a weight, so one sampling of a pair serves both the defect
(lambda_minimum without a weight) and the weighted defect D(x,y)*u of the
sharpened triangle inequality (lambda_minimum with u). defect_grid is the
unweighted defect in one call.

The sampler is coordinate-major, like the mean oracles (see means): the
difference vectors are the columns of an (m, S) array, one column per
lambda, built along contiguous rows, and T.quadratic maps them to an
(n, S) array of T-values. Weighted and divided by |lambda| (cached on
the grid), its minimum runs along contiguous rows. Each column's bits
depend on its lambda alone, so a sample is the same on any grid that
holds its lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    NotInPositiveCone,
    _finite,
    _nan_first,
    as_lattice_vector,
    cone_gap,
    excess,
    in_positive_cone,
    near,
)
from .means import LogGrid, _box_times, _cone_pair
from .sip import Sip

# Default lambda grid of a verification run (TrialConfig).
LAMBDA_LO = 1e-6
LAMBDA_HI = 1e6
LAMBDA_COUNT = 2001

# Normalized band of the equality <-> zero-defect biconditional, and the
# tolerance of the inequality's normalized violation.
CONE_BAND = 1e-8
INEQ_FLOOR = 1e-10


def _seminorm(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    # t = T(z,z) is computed, hence rounded; clamp it into the cone with a
    # scale-aware floor rather than the bare absolute one.
    floor = DEFAULT_REL_TOL * float(np.abs(t).max() + np.abs(u).max()) + DEFAULT_ABS_TOL
    return _box_times(t, u, floor)


class Gram:
    """The lazy record of one pair (x, y) under T, with an optional weight u.

    Every value is validated or evaluated once, on first read: x and y
    (vectors of T's domain), u (a vector of T's codomain in F+, tiny
    negative entries clamped to 0), a = T(x,x), b = T(x,y), c = T(y,y)
    with bound and defect, and the seminorm values s = T(x+y,x+y),
    d = T(x-y,x-y), the seminorms of x, y, x+y and x-y under u, the
    squared sides of the triangle inequality and the middle term of the
    sharpened chain. Reading lazily keeps a
    reader from computing, or raising on, a value it never reads: the
    Cauchy-Schwarz values never read u. A value that raises is not kept,
    so the next reader raises on it again.
    """

    def __init__(self, T: Sip, x, y, u=None):
        self.T = T
        self._x, self._y, self._u = x, y, u

    @cached_property
    def x(self) -> np.ndarray:
        return as_lattice_vector(self._x, self.T.domain_dim)

    @cached_property
    def y(self) -> np.ndarray:
        return as_lattice_vector(self._y, self.T.domain_dim)

    @cached_property
    def u(self) -> np.ndarray:
        """The weight in F+: entries negative within DEFAULT_ABS_TOL clamp to 0, others raise."""
        if self._u is None:
            raise ValueError("this Gram has no weight u")
        u = as_lattice_vector(self._u, self.T.codomain_dim)
        if not in_positive_cone(u, tol=DEFAULT_ABS_TOL):
            raise NotInPositiveCone(f"weight entry {np.min(u)} is negative")
        return np.maximum(u, 0.0)

    @cached_property
    def a(self) -> np.ndarray:
        return self.T.eval(self.x, self.x)

    @cached_property
    def b(self) -> np.ndarray:
        return self.T.eval(self.x, self.y)

    @cached_property
    def c(self) -> np.ndarray:
        return self.T.eval(self.y, self.y)

    @cached_property
    def bound(self) -> np.ndarray:
        """sqrt(a*c), factors clamped at 0: T(x,x) [*] T(y,y) without the cone check."""
        return np.sqrt(np.maximum(self.a, 0.0) * np.maximum(self.c, 0.0))

    @cached_property
    def defect(self) -> np.ndarray:
        """Closed-form defect 2*(sqrt(a*c) - |b|).

        The factors under the root are clamped at 0 (they can round
        negative when a coordinate of a or c is a rounded zero), which
        matches the clamping box_times applies. The result itself is not
        clamped: its membership in F+ is a theorem under the axioms, and a
        genuine negative value must surface as a violation.
        """
        return 2.0 * (self.bound - np.abs(self.b))

    @cached_property
    def s(self) -> np.ndarray:
        """T(x+y, x+y)."""
        z = _finite(self.x + self.y)
        return self.T.eval(z, z)

    @cached_property
    def d(self) -> np.ndarray:
        """T(x-y, x-y)."""
        z = _finite(self.x - self.y)
        return self.T.eval(z, z)

    @cached_property
    def norm_x(self) -> np.ndarray:
        return _seminorm(self.a, self.u)

    @cached_property
    def norm_y(self) -> np.ndarray:
        return _seminorm(self.c, self.u)

    @cached_property
    def norm_sum(self) -> np.ndarray:
        """norm(x+y)."""
        return _seminorm(self.s, self.u)

    @cached_property
    def norm_diff(self) -> np.ndarray:
        """norm(x-y)."""
        return _seminorm(self.d, self.u)

    @cached_property
    def norm_bound(self) -> np.ndarray:
        """norm(x) + norm(y), the triangle bound."""
        return self.norm_x + self.norm_y

    @cached_property
    def lhs_sq(self) -> np.ndarray:
        """norm(x+y)^2 = T(x+y,x+y)*u."""
        return self.s * self.u

    @cached_property
    def rhs_sq(self) -> np.ndarray:
        """(norm(x) + norm(y))^2."""
        return self.norm_bound * self.norm_bound

    @cached_property
    def weighted_defect(self) -> np.ndarray:
        """D(x,y)*u."""
        return self.defect * self.u

    @cached_property
    def middle(self) -> np.ndarray:
        """rhs_sq - D(x,y)*u, the middle term of the sharpened triangle chain."""
        return self.rhs_sq - self.weighted_defect


def lambda_samples(g: Gram, grid: LogGrid) -> np.ndarray:
    """T(lambda*x - y, lambda*x - y) for lambda over grid.signed, as an (n, S) array.

    Column k holds the T-value at grid.signed[k]. Reads g's sip and its
    validated pair only, never a, b or c: the oracle evaluates T on the
    difference vectors directly, with no bilinear expansion.
    """
    return g.T.quadratic(g.x[:, None] * grid.signed - g.y[:, None])


def lambda_minimum(samples: np.ndarray, grid: LogGrid, u=None) -> np.ndarray:
    """Componentwise min over the grid of samples/|lambda|, or of samples*u/|lambda|.

    samples are lambda_samples on the same grid; u is a validated weight.
    Over-estimates the infimum D(x,y), or D(x,y)*u, by construction.
    """
    if u is not None:
        samples = samples * u[:, None]
    return (samples / grid.signed_abs).min(axis=1)


def defect_grid(T: Sip, x, y, grid: LogGrid) -> np.ndarray:
    """Componentwise min of |lambda|^-1 T(lambda*x - y, lambda*x - y) over the grid.

    lambda runs over grid.signed. Evaluates T on the difference vectors
    directly, with no bilinear expansion, so this oracle shares nothing
    with the closed form beyond T itself. Over-estimates the true infimum
    by construction.
    """
    return lambda_minimum(lambda_samples(Gram(T, x, y), grid), grid)


def defect_gaps(g: Gram, sampled: np.ndarray,
                floor: float = DEFAULT_ABS_TOL) -> tuple[float, float]:
    """(sandwich, gap) of the lambda-grid oracle's value sampled against the closed-form defect.

    sampled is the oracle's defect of g's pair (lambda_minimum without a
    weight, or defect_grid). Normalized by the largest of |a|, |c| and both
    defect values: sandwich is the violation of grid >= closed, gap the
    worst over-estimate.
    """
    gap = sampled - g.defect
    scale = np.maximum(np.abs(g.a), np.maximum(np.abs(g.c), np.maximum(
        np.abs(g.defect), np.abs(sampled)))) + floor
    return cone_gap(gap, scale), excess(gap, scale)


def cs_identity(g: Gram, floor: float = DEFAULT_ABS_TOL) -> np.ndarray:
    """Raw residual of |b| = a [*] c - D/2, componentwise.

    Raises NotInPositiveCone when a or c leaves the positive cone beyond
    the rounding floor of the geometric mean.
    """
    # a and c are in F+ up to rounding of PSD arithmetic; check them
    # against a scale-aware floor rather than the bare absolute one. Past
    # the check, g.bound is their geometric mean a [*] c.
    cone_floor = DEFAULT_REL_TOL * float(np.abs(g.a).max() + np.abs(g.c).max()) + floor
    _cone_pair("box_times", g.a, g.c, cone_floor)
    return np.abs(g.b) - (g.bound - 0.5 * g.defect)


@dataclass(frozen=True)
class CsCheck:
    equality_holds: bool
    defect_zero: bool
    borderline: bool
    identity: float    # worst normalized |cs_identity|
    inequality: float  # worst normalized violation of |b| <= sqrt(a*c)


def cs_verdict(g: Gram, band: float = CONE_BAND,
               floor: float = DEFAULT_ABS_TOL) -> CsCheck:
    """Identity, inequality and the equality <-> zero-defect biconditional.

    All quantities are normalized by max(sqrt(a*c), |b|) per coordinate, so
    the verdicts are scale free. equality_holds tests sqrt(a*c) - |b| and
    defect_zero tests D/2 against the same band; the two are equal by the
    closed form, so on non-borderline trials the biconditional is exact.
    Trials whose normalized gap lands in (band/8, 8*band) are flagged
    borderline instead of being forced to a verdict. Raises as cs_identity
    does.
    """
    slack = g.bound - np.abs(g.b)
    scale = np.maximum(g.bound, np.abs(g.b)) + floor
    eq_gap = excess(slack, scale)
    defect_n = excess(0.5 * g.defect, scale)
    return CsCheck(
        equality_holds=eq_gap <= band,
        defect_zero=defect_n <= band,
        borderline=near(max(eq_gap, defect_n, key=_nan_first), band),
        identity=float((np.abs(cs_identity(g, floor)) / scale).max()),
        inequality=cone_gap(slack, scale),
    )

