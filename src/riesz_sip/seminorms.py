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

Every statement here reads a WeightedGram: the Gram record of a pair
(a, b, c and the defect, see cauchy_schwarz.Gram, read off a Gram that
the harness shares among all suites of a trial) extended by T(x+y,x+y),
T(x-y,x-y), the weight u and the seminorms built from them, each
evaluated once, on first use. A theorem is one pure function from
that record to its verdict and normalized residuals (sharp_verdict,
additivity_verdict, orthogonality with pythagoras_sides,
parallelogram_sides, seminorm_residuals, weighted_defect_gaps); the two
identities come as (lhs, rhs) pairs for lattice.rel_residual. The
harness builds one record per trial, and only for suites that read u.
The record's values are reused,
never re-expressed by the algebra above: lhs_sq stays T(x+y,x+y)*u
rather than (a + 2b + c)*u, which would make the chain check
tautological. Scale normalization follows the package-wide policy
(componentwise scale of the largest participating quantity plus an
absolute floor).
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
    as_lattice_vector,
    cone_gap,
    in_positive_cone,
    rel_residual,
)
from .means import _box_plus, _box_times
from .cauchy_schwarz import CONE_BAND, Gram
from .sip import Sip


@dataclass(frozen=True)
class SeminormSpec:
    """A semi-inner product together with a weight u in F+."""

    sip: Sip
    u: np.ndarray

    def __post_init__(self):
        u = as_lattice_vector(self.u, self.sip.codomain_dim)
        if not in_positive_cone(u, tol=DEFAULT_ABS_TOL):
            raise NotInPositiveCone(f"weight entry {np.min(u)} is negative")
        object.__setattr__(self, "u", np.maximum(u, 0.0))


def _seminorm(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    # t = T(z,z) is computed, hence rounded; clamp it into the cone with a
    # scale-aware floor rather than the bare absolute one.
    floor = DEFAULT_REL_TOL * float(np.max(np.abs(t)) + np.max(np.abs(u))) + DEFAULT_ABS_TOL
    return _box_times(t, u, floor)


def seminorm_eval(spec: SeminormSpec, x) -> np.ndarray:
    """norm_u(x) = T(x,x) [*] u."""
    x = as_lattice_vector(x, spec.sip.domain_dim)
    return _seminorm(spec.sip.eval(x, x), spec.u)


class WeightedGram:
    """Gram record of a pair (x, y) under the weight u of a SeminormSpec.

    T, x, y, a, b, c, bound and defect are read off a Gram (the attribute
    gram): WeightedGram(spec, x, y) builds its own, WeightedGram.of(spec,
    gram) reads one that other readers share, so none of those values is
    evaluated twice. Beyond them: s = T(x+y,x+y), d = T(x-y,x-y), the
    seminorms of x, y, x+y and x-y, and the squared sides of the triangle
    inequality, each computed once, on first use.
    """

    def __init__(self, spec: SeminormSpec, x, y):
        self.spec = spec
        self.u = spec.u
        self.gram = Gram(spec.sip, x, y)

    @classmethod
    def of(cls, spec: SeminormSpec, gram: Gram) -> "WeightedGram":
        """The record of gram's pair under spec's weight; gram is shared, not copied."""
        g = cls.__new__(cls)
        g.spec, g.u, g.gram = spec, spec.u, gram
        return g

    T = property(lambda self: self.gram.T)
    x = property(lambda self: self.gram.x)
    y = property(lambda self: self.gram.y)
    a = property(lambda self: self.gram.a)
    b = property(lambda self: self.gram.b)
    c = property(lambda self: self.gram.c)
    bound = property(lambda self: self.gram.bound)
    defect = property(lambda self: self.gram.defect)

    @cached_property
    def s(self) -> np.ndarray:
        z = _finite(self.x + self.y)
        return self.T.eval(z, z)

    @cached_property
    def d(self) -> np.ndarray:
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


def seminorm_residuals(g: WeightedGram, floor: float = DEFAULT_ABS_TOL) -> dict:
    """Seminorm axioms and the square identity at one pair.

    positivity of norm(x), norm(y); homogeneity norm(alpha*x) =
    |alpha|*norm(x) over a fixed scalar set plus x_0 (a data-dependent value
    that keeps the check a pure function of the pair); the triangle
    inequality; and norm(x)^2 = T(x,x)*u.
    """
    sx, sy, sxy = g.norm_x, g.norm_y, g.norm_sum
    pos = max(cone_gap(sx, np.abs(sx) + floor), cone_gap(sy, np.abs(sy) + floor))
    hom = 0.0
    for alpha in (-2.5, -1.0, 0.0, 0.5, float(g.x[0])):
        z = _finite(alpha * g.x)  # g.x is validated; only its scaling can overflow
        hom = max(hom, rel_residual(_seminorm(g.T.eval(z, z), g.u),
                                    np.abs(alpha) * sx, floor=floor))
    tri = cone_gap(g.norm_bound - sxy, np.maximum(sxy, g.norm_bound) + floor)
    square = rel_residual(sx * sx, g.a * g.u, floor=floor)
    return {"positivity": pos, "homogeneity": hom, "triangle": tri, "square": square}


@dataclass(frozen=True)
class SharpTriangle:
    """Both forms of the sharpened triangle inequality at one (x, y).

    The squared chain is lhs_sq <= middle <= rhs_sq with
    middle = rhs_sq - D(x,y)*u; the sqrt form compares norm(x+y),
    sqrt(middle) and norm(x) + norm(y). chain is the worst normalized
    violation among the four links of both forms; the chain holds iff it
    is at most CHAIN_FLOOR.
    equality_holds means the sharpened bound is attained, lhs_sq = middle,
    and condition_holds means T(x,y)*u in F+; the two must agree on every
    non-borderline input. (Equality of lhs_sq with rhs_sq itself is the
    additivity characterization, handled by additivity_verdict.)
    """

    lhs_sq: np.ndarray
    middle: np.ndarray
    rhs_sq: np.ndarray
    equality_holds: bool
    condition_holds: bool
    borderline: bool
    chain: float


CHAIN_FLOOR = 1e-10


def sharp_verdict(g: WeightedGram, band: float = CONE_BAND,
                  floor: float = DEFAULT_ABS_TOL) -> SharpTriangle:
    lhs_sq, rhs_sq = g.lhs_sq, g.rhs_sq
    middle = rhs_sq - g.weighted_defect
    scale = np.maximum(np.abs(lhs_sq), np.maximum(np.abs(middle), np.abs(rhs_sq))) + floor
    sxy, ssum = g.norm_sum, g.norm_bound
    mid_sqrt = np.sqrt(np.maximum(middle, 0.0))
    lin_scale = np.maximum(sxy, np.maximum(mid_sqrt, ssum)) + floor
    links = ((middle - lhs_sq, scale), (rhs_sq - middle, scale),
             (mid_sqrt - sxy, lin_scale), (ssum - mid_sqrt, lin_scale))

    # middle - lhs_sq = 4*(T(x,y)*u)^- exactly; testing the gap at
    # band*4*scale and the cone violation at band*scale gives matched
    # thresholds, so the biconditional cannot disagree outside the
    # borderline window.
    neg = cone_gap(g.b * g.u, scale)
    eq_gap = float(max(np.max((middle - lhs_sq) / (4.0 * scale)), 0.0))
    return SharpTriangle(
        lhs_sq=lhs_sq,
        middle=middle,
        rhs_sq=rhs_sq,
        equality_holds=eq_gap <= band,
        condition_holds=neg <= band,
        borderline=band / 8.0 < max(neg, eq_gap) < 8.0 * band,
        chain=max(cone_gap(v, s) for v, s in links),
    )


def weighted_defect_gaps(g: WeightedGram, sampled: np.ndarray,
                         floor: float = DEFAULT_ABS_TOL) -> tuple[float, float]:
    """(sandwich, gap) of a grid oracle's value sampled for D(x,y)*u against the closed form.

    sampled comes from the defining family of D(x,y)*u, sampled through
    T(lambda*x - y, lambda*x - y)*u directly (cauchy_schwarz.lambda_minimum
    with the weight, or defect_grid with u), independent of the closed
    form. Normalized by the largest of max(|a|, |c|)*u and both values.
    """
    scale = np.maximum(
        np.maximum(np.abs(g.a), np.abs(g.c)) * g.u,
        np.maximum(np.abs(g.weighted_defect), np.abs(sampled))) + floor
    gap = sampled - g.weighted_defect
    return cone_gap(gap, scale), float(max(np.max(gap / scale), 0.0))


@dataclass(frozen=True)
class AdditivityCheck:
    """norm(x+y) = norm(x) + norm(y) iff T(x,y)*u in F+ and D(x,y)*u = 0."""

    additive: bool
    condition_pos: bool
    condition_defect_zero: bool
    borderline: bool


def additivity_verdict(g: WeightedGram, band: float = CONE_BAND,
                       floor: float = DEFAULT_ABS_TOL) -> AdditivityCheck:
    """Characterize equality in the triangle inequality.

    Decided in the squared domain, where the gap decomposes exactly:
    rhs_sq - lhs_sq = D(x,y)*u + 4*(T(x,y)*u)^-. Normalizing all three
    quantities by the same componentwise scale makes the conjunction
    coherent: additive uses threshold 2*band, each condition uses band,
    and inputs within (band/8, 8*band) of a threshold are borderline.
    """
    lhs_sq, rhs_sq = g.lhs_sq, g.rhs_sq
    scale = np.maximum(np.abs(lhs_sq), np.abs(rhs_sq)) + floor
    gap = float(max(np.max((rhs_sq - lhs_sq) / scale), 0.0))
    d_n = float(max(np.max(g.weighted_defect / scale), 0.0))
    p_n = float(np.max(4.0 * np.maximum(-(g.b * g.u), 0.0) / scale))

    def near(v: float) -> bool:
        return band / 8.0 < v < 8.0 * band

    return AdditivityCheck(
        additive=gap <= 2.0 * band,
        condition_pos=p_n <= band,
        condition_defect_zero=d_n <= band,
        borderline=near(d_n) or near(p_n),
    )


def orthogonality(g: Gram, floor: float = DEFAULT_ABS_TOL) -> float:
    """Worst |T(x,y)| relative to the Cauchy-Schwarz scale sqrt(T(x,x)*T(y,y))."""
    return float(np.max(np.abs(g.b) / (np.sqrt(np.maximum(g.a * g.c, 0.0)) + floor)))


def pythagoras_sides(g: WeightedGram) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of norm(x+y) = norm(x) [+] norm(y), for T(x,y) = 0."""
    return g.norm_sum, _box_plus(g.norm_x, g.norm_y)


def parallelogram_sides(g: WeightedGram) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of norm(x+y) [+] norm(x-y) = sqrt(2)*(norm(x) [+] norm(y)), for all x, y."""
    return (_box_plus(g.norm_sum, g.norm_diff),
            np.sqrt(2.0) * _box_plus(g.norm_x, g.norm_y))
