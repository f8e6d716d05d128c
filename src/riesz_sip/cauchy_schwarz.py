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

Gram is the record of one pair: a, b, c, each evaluated once on first
use, with sqrt(a*c) and the closed-form defect derived from them. The
identity (cs_identity), the inequality with its biconditional
(cs_verdict) and the oracle comparison (defect_gaps) are pure functions
of a Gram, and the harness builds one per trial.

defect_grid must stay independent of that derivation: it samples the
defining family by evaluating T directly on lambda*x - y over the +-
closure of a log-spaced magnitude grid (means.LogGrid, the grid type of
the [*] infimum), using neither bilinear expansion nor calculus. The grid
minimum over-estimates the infimum, so grid >= closed always, and the gap
shrinks with grid resolution. It is the one lambda-grid sampler: the
weighted oracle of the sharpened triangle inequality calls it with the
weight u.

defect_grid follows the layout rule of the mean oracles (see means):
T is evaluated on the (S, m) array of difference vectors, one row per
lambda, exactly as before, and its (S, n) values are then weighted and
divided by |lambda| into an (n, S) array, so that the minimum runs along
contiguous rows. Each element is the same product and quotient as in
the grid-major layout and the minimum is exact, so each result keeps
its bits (a NaN may lose its sign, which no residual reads).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    as_lattice_vector,
    cone_gap,
)
from .means import LogGrid, box_times
from .sip import Sip

# Default lambda grid of a verification run (TrialConfig).
LAMBDA_LO = 1e-6
LAMBDA_HI = 1e6
LAMBDA_COUNT = 2001

# Normalized band of the equality <-> zero-defect biconditional, and the
# tolerance of the inequality's normalized violation.
CONE_BAND = 1e-8
INEQ_FLOOR = 1e-10


class Gram:
    """The T-evaluations of one pair (x, y), each made once, on first use.

    a = T(x,x), b = T(x,y), c = T(y,y). Every Cauchy-Schwarz quantity is
    algebra on these three vectors, so a check builds one Gram per trial
    and reads everything off it; evaluating lazily keeps a suite from
    computing (or raising on) a value it never reads.
    """

    def __init__(self, T: Sip, x, y):
        self.T = T
        self.x = as_lattice_vector(x, T.domain_dim)
        self.y = as_lattice_vector(y, T.domain_dim)

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


def defect_grid(T: Sip, x, y, grid: LogGrid, u=None) -> np.ndarray:
    """Componentwise min of |lambda|^-1 T(lambda*x - y, lambda*x - y) over the grid.

    lambda runs over grid.signed. Evaluates T on the difference vectors
    directly, with no bilinear expansion, so this oracle shares nothing
    with the closed form beyond T itself. Over-estimates the true infimum
    by construction. With a weight u, samples D(x,y)*u instead: each
    T-value is multiplied by u before the division by |lambda|.
    """
    x = as_lattice_vector(x, T.domain_dim)
    y = as_lattice_vector(y, T.domain_dim)
    lam = grid.signed
    Z = lam[:, None] * x[None, :] - y[None, :]
    vals = T.eval_batch(Z, Z).T
    if u is not None:
        vals = vals * as_lattice_vector(u, T.codomain_dim)[:, None]
    return np.divide(vals, np.abs(lam), order="C").min(axis=1)


def defect_gaps(g: Gram, grid: LogGrid,
                floor: float = DEFAULT_ABS_TOL) -> tuple[float, float]:
    """(sandwich, gap) of the lambda-grid oracle against the closed-form defect.

    Normalized by the largest of |a|, |c| and both defect values: sandwich
    is the violation of grid >= closed, gap the worst over-estimate.
    """
    sampled = defect_grid(g.T, g.x, g.y, grid)
    gap = sampled - g.defect
    scale = np.maximum(np.abs(g.a), np.maximum(np.abs(g.c), np.maximum(
        np.abs(g.defect), np.abs(sampled)))) + floor
    return cone_gap(gap, scale), float(max(np.max(gap / scale), 0.0))


def cs_identity(g: Gram, floor: float = DEFAULT_ABS_TOL) -> np.ndarray:
    """Raw residual of |b| = a [*] c - D/2, componentwise.

    Raises NotInPositiveCone when a or c leaves the positive cone beyond
    the rounding floor of the geometric mean.
    """
    # a and c are in F+ up to rounding of PSD arithmetic; give the
    # geometric mean a scale-aware clamping floor rather than the bare
    # absolute one.
    cone_floor = DEFAULT_REL_TOL * float(np.max(np.abs(g.a)) + np.max(np.abs(g.c))) + floor
    bound = box_times(g.a, g.c, floor=cone_floor)
    return np.abs(g.b) - (bound - 0.5 * g.defect)


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
    eq_gap = float(max(np.max(slack / scale), 0.0))
    defect_n = float(max(np.max(0.5 * g.defect / scale), 0.0))
    worst = max(eq_gap, defect_n)
    return CsCheck(
        equality_holds=eq_gap <= band,
        defect_zero=defect_n <= band,
        borderline=band / 8.0 < worst < 8.0 * band,
        identity=float(np.max(np.abs(cs_identity(g, floor)) / scale)),
        inequality=cone_gap(slack, scale),
    )

