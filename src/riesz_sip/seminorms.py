"""Vector seminorms induced by a semi-inner product and a positive weight.

Given a semi-inner product T with codomain R^n and a weight u in F+, the
map x -> T(x,x) [*] u is a vector seminorm: positive, absolutely
homogeneous, subadditive. Its square satisfies (T(x,x) [*] u)^2 = T(x,x)*u
because the codomain is square root closed, which turns every triangle-type
statement into algebra on the Gram values a = T(x,x), b = T(x,y),
c = T(y,y):

    norm(x + y)^2           = (a + 2b + c)*u
    (norm(x) + norm(y))^2   = a*u + c*u + 2*(a*c [*] u^2)     (squared rhs)
    middle                  = rhs_sq - D(x,y)*u

and the sharpened triangle chain lhs_sq <= middle <= rhs_sq holds with
middle - lhs_sq = 2*(|b| - b)*u = 4*(T(x,y)*u)^- exactly. That identity is
what makes the equality case decidable: equality in the triangle
inequality holds iff T(x,y)*u is in F+, and both sides of the iff are
computed from quantities that agree to rounding error.

Every statement here reads a record built with a weight: a
cauchy_schwarz.Gram, the record of a pair, or a GramStack, the record of
k pairs with one codomain R^n. The record holds a, b, c and the defect,
T(x+y,x+y), T(x-y,x-y), the weight u and the seminorms built from them,
each evaluated once per pair, on first read; a GramStack holds each as a
(k, n) stack. A theorem asks the record for the seminorms it reads in
one request (Record.norms), which evaluates them, and the T(x+y,x+y)
and T(x-y,x-y) they need, in one call each. A theorem is one pure
function from that record to its verdict and normalized residuals
(sharp_verdict, additivity_verdict,
orthogonality with pythagoras_sides, parallelogram_sides,
seminorm_residuals, weighted_defect_gaps): a float or bool each for a
Gram, a (k,) array of them for a GramStack, with the bits of the pairs'
Grams row by row. The two identities come as (lhs, rhs) pairs for
lattice.rel_residual. The
record's values are reused, never re-expressed by the algebra above:
lhs_sq stays T(x+y,x+y)*u rather than (a + 2b + c)*u, which would make
the chain check tautological. Residuals follow the package-wide
residual policy of lattice: each is normalized by the componentwise
scale of the largest participating quantity plus an absolute floor and
reduced over the last axis with rel_residual, cone_gap or excess;
borderline windows are lattice.near, and every fold of residuals is
lattice.fold, which ranks NaN first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .lattice import (
    DEFAULT_ABS_TOL,
    _finite,
    cone_gap,
    excess,
    fold,
    near,
    rel_residual,
)
from .means import _box_plus
from .cauchy_schwarz import CONE_BAND, Record, _seminorm


# The fixed scalars of the homogeneity check; x_0 is the fifth.
_SCALARS = (-2.5, -1.0, 0.0, 0.5)
_ABS_SCALARS = np.abs(_SCALARS)


def _scaled_pairs(x: np.ndarray, y: np.ndarray) -> tuple:
    """(z, z) for Record.values: the rows alpha*x for each fixed alpha, then x_0*x."""
    # x is validated; only its scaling can overflow
    z = _finite(np.concatenate((np.multiply.outer(_SCALARS, x), (x[..., :1] * x)[None])))
    return z, z


def seminorm_residuals(g: Record, floor: float = DEFAULT_ABS_TOL) -> dict:
    """Seminorm axioms and the square identity at each pair.

    positivity of norm(x), norm(y); homogeneity norm(alpha*x) =
    |alpha|*norm(x) over a fixed scalar set plus x_0 (a data-dependent value
    that keeps the check a pure function of the pair), its five scaled
    values T(alpha*x, alpha*x) from one evaluation and their seminorms
    from one call; the triangle inequality; and norm(x)^2 = T(x,x)*u.
    """
    sx, sy, sxy = g.norms("norm_x", "norm_y", "norm_sum")
    pos = fold(*(cone_gap(s, np.abs(s) + floor) for s in (sx, sy)))
    # |alpha|*norm(x) for each scaled row; every residual is +0.0, positive
    # or NaN, so the NaN-first maximum of the five, folded into 0.0, is the
    # fold of them one by one
    ref = np.concatenate((np.multiply.outer(_ABS_SCALARS, sx),
                          (np.abs(g.each(lambda p: p.x[:1])) * sx)[None]))
    scaled = _seminorm(g.values(_scaled_pairs), g.u)
    hom = fold(0.0, rel_residual(scaled, ref, floor=floor).max(axis=0))
    tri = cone_gap(g.norm_bound - sxy, np.maximum(sxy, g.norm_bound) + floor)
    square = rel_residual(sx * sx, g.a * g.u, floor=floor)
    return {"positivity": pos, "homogeneity": hom, "triangle": tri, "square": square}


@dataclass(frozen=True)
class SharpTriangle:
    """Both forms of the sharpened triangle inequality at one (x, y).

    The squared chain is lhs_sq <= middle <= rhs_sq of the Gram, with
    middle = rhs_sq - D(x,y)*u; the sqrt form compares norm(x+y),
    sqrt(middle) and norm(x) + norm(y). chain is the worst normalized
    violation among the four links of both forms; the chain holds iff it
    is at most CHAIN_FLOOR.
    equality_holds means the sharpened bound is attained, lhs_sq = middle,
    and condition_holds means T(x,y)*u in F+; the two must agree on every
    non-borderline input. (Equality of lhs_sq with rhs_sq itself is the
    additivity characterization, handled by additivity_verdict.) Each
    field is a bool or float for a Gram, a (k,) array for a GramStack.
    """

    equality_holds: bool
    condition_holds: bool
    borderline: bool
    chain: float


CHAIN_FLOOR = 1e-10


def sharp_verdict(g: Record, band: float = CONE_BAND,
                  floor: float = DEFAULT_ABS_TOL) -> SharpTriangle:
    _, _, sxy = g.norms("norm_x", "norm_y", "norm_sum")
    lhs_sq, middle, rhs_sq = g.lhs_sq, g.middle, g.rhs_sq
    scale = np.maximum(np.abs(lhs_sq), np.maximum(np.abs(middle), np.abs(rhs_sq))) + floor
    ssum = g.norm_bound
    mid_sqrt = np.sqrt(np.maximum(middle, 0.0))
    lin_scale = np.maximum(sxy, np.maximum(mid_sqrt, ssum)) + floor
    links = ((middle - lhs_sq, scale), (rhs_sq - middle, scale),
             (mid_sqrt - sxy, lin_scale), (ssum - mid_sqrt, lin_scale))

    # middle - lhs_sq = 4*(T(x,y)*u)^- exactly; testing the gap at
    # band*4*scale and the cone violation at band*scale gives matched
    # thresholds, so the biconditional cannot disagree outside the
    # borderline window.
    neg = cone_gap(g.b * g.u, scale)
    eq_gap = excess(middle - lhs_sq, 4.0 * scale)
    return SharpTriangle(
        equality_holds=eq_gap <= band,
        condition_holds=neg <= band,
        borderline=near(fold(neg, eq_gap), band),
        chain=reduce(fold, (cone_gap(v, s) for v, s in links)),
    )


def weighted_defect_gaps(g: Record, sampled: np.ndarray,
                         floor: float = DEFAULT_ABS_TOL) -> tuple[float, float]:
    """(sandwich, gap) of the lambda-grid oracle's D(x,y)*u against the closed form.

    sampled is the oracle's defect D(x,y) of g's pair, or of each pair of
    a GramStack (cauchy_schwarz.lambda_minima), sampled through
    T(lambda*x - y, lambda*x - y) directly, independent of the closed
    form. Its D(x,y)*u is sampled*u: each u_j >= 0 commutes with the
    infimum over lambda. Normalized by the largest of max(|a|, |c|)*u and
    both values.
    """
    sampled = sampled * g.u
    scale = np.maximum(
        np.maximum(np.abs(g.a), np.abs(g.c)) * g.u,
        np.maximum(np.abs(g.weighted_defect), np.abs(sampled))) + floor
    gap = sampled - g.weighted_defect
    return cone_gap(gap, scale), excess(gap, scale)


@dataclass(frozen=True)
class AdditivityCheck:
    """norm(x+y) = norm(x) + norm(y) iff T(x,y)*u in F+ and D(x,y)*u = 0.

    Each field is a bool for a Gram, a (k,) array for a GramStack.
    """

    additive: bool
    condition_pos: bool
    condition_defect_zero: bool
    borderline: bool


def additivity_verdict(g: Record, band: float = CONE_BAND,
                       floor: float = DEFAULT_ABS_TOL) -> AdditivityCheck:
    """Characterize equality in the triangle inequality.

    Decided in the squared domain, where the gap decomposes exactly:
    rhs_sq - lhs_sq = D(x,y)*u + 4*(T(x,y)*u)^-. Normalizing all three
    quantities by the same componentwise scale makes the conjunction
    coherent: additive uses threshold 2*band, each condition uses band,
    and inputs within (band/8, 8*band) of a threshold are borderline.
    """
    g.norms("norm_x", "norm_y")
    scale = np.maximum(np.abs(g.lhs_sq), np.abs(g.rhs_sq)) + floor
    gap = excess(g.rhs_sq - g.lhs_sq, scale)
    d_n = excess(g.weighted_defect, scale)
    p_n = cone_gap(4.0 * (g.b * g.u), scale)
    return AdditivityCheck(
        additive=gap <= 2.0 * band,
        condition_pos=p_n <= band,
        condition_defect_zero=d_n <= band,
        borderline=near(d_n, band) | near(p_n, band),
    )


def orthogonality(g: Record, floor: float = DEFAULT_ABS_TOL) -> float:
    """Worst |T(x,y)| relative to the Cauchy-Schwarz scale sqrt(T(x,x)*T(y,y))."""
    return (np.abs(g.b) / (np.sqrt(np.maximum(g.a * g.c, 0.0)) + floor)).max(axis=-1)


def pythagoras_sides(g: Record) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of norm(x+y) = norm(x) [+] norm(y), for T(x,y) = 0."""
    sxy, sx, sy = g.norms("norm_sum", "norm_x", "norm_y")
    return sxy, _box_plus(sx, sy)


def parallelogram_sides(g: Record) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of norm(x+y) [+] norm(x-y) = sqrt(2)*(norm(x) [+] norm(y)), for all x, y."""
    sxy, sdiff, sx, sy = g.norms("norm_sum", "norm_diff", "norm_x", "norm_y")
    return _box_plus(sxy, sdiff), np.sqrt(2.0) * _box_plus(sx, sy)
