"""Componentwise vector-lattice primitives on R^n.

The codomain of every semi-inner product in this package is R^n with the
componentwise order, which is an Archimedean f-algebra under componentwise
multiplication: it is semiprime (a*a = 0 forces a = 0) and square root
closed on the positive cone. Vectors are plain 1-d float64 numpy arrays,
and the lattice operations are numpy's own: np.minimum and np.maximum for
meet and join, np.abs for |a|, * for the f-algebra product.

Validation rule: as_lattice_vector checks a vector's shape, dimension and
finiteness once, where it enters: on first read in the pair record
(cauchy_schwarz.Gram, whose x, y and u are validated lazily), at the
entry of the harness's means suite (its u), and in each public function
that takes raw values. Below that the library computes on
trusted arrays, checking only computed values an input can spoil: finite
(T-values, x+y, alpha*x overflow) and, for [*], in the positive cone up
to a floor. A broken input raises DimensionMismatch, NotInPositiveCone or
NonFinite, and the harness records exactly these as an invalid instance.

Residual policy: the checks reduce their arrays to normalized residuals,
floats that are 0 when the statement holds exactly, and decide on them
with these forms.

  rel_residual(lhs, rhs)  an identity: the worst |lhs - rhs| over the
                          larger side plus a floor.
  cone_gap(a, scale)      a cone statement a in F+: the worst negative
                          part of a over scale.
  excess(a, scale)        a gap that must vanish: the worst a/scale,
                          floored at 0.
  near(v, band)           the borderline window band/8 < v < 8*band of a
                          verdict decided at band; a trial inside it is
                          flagged borderline rather than forced.
  _nan_first              the key of every fold of residuals,
                          max(..., key=_nan_first): NaN ranks above every
                          number, and of equal values the first is kept.

NaN passes through the three residuals, wins every fold and is never
near, so a residual spoiled by overflow fails its check (not v <= tol)
and shows in every maximum that folds it.
"""

from __future__ import annotations

import numpy as np

# Global tolerance policy: relative tolerance with an absolute floor,
# so comparisons stay meaningful near zero.
DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Operands live in lattices of different dimension."""


class NotInPositiveCone(ValueError):
    """An operation required a vector in F+ but got a genuinely negative entry."""


class NonFinite(ValueError):
    """A vector, given or computed, has an infinite or NaN entry."""


def _finite(a: np.ndarray) -> np.ndarray:
    """a itself, once every entry is checked to be finite."""
    if not np.isfinite(a).all():
        raise NonFinite("lattice vector entries must be finite")
    return a


def as_lattice_vector(values, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float64 array, optionally checking its dimension."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {a.shape}")
    if a.size == 0:
        raise DimensionMismatch("lattice vectors must have dimension >= 1")
    _finite(a)
    if dim is not None and a.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {a.size}")
    return a


def in_positive_cone(a: np.ndarray, tol: float = 0.0) -> bool:
    """True iff every entry of a is >= -tol."""
    return bool(a.min() >= -tol)


def rel_residual(lhs: np.ndarray, rhs: np.ndarray,
                 floor: float = DEFAULT_ABS_TOL) -> float:
    """Worst componentwise |lhs - rhs| / (max(|lhs|, |rhs|) + floor).

    Scale-aware residual used by every identity check: relative where the
    operands are large, absolute (against the floor) near zero.
    """
    if lhs.shape != rhs.shape:
        raise DimensionMismatch(f"dimension mismatch: {lhs.shape} vs {rhs.shape}")
    scale = np.maximum(np.abs(lhs), np.abs(rhs)) + floor
    return float((np.abs(lhs - rhs) / scale).max())


def cone_gap(a: np.ndarray, scale: np.ndarray) -> float:
    """Worst negative part of a over scale, zero iff a is in F+.

    The one-sided residual of every cone statement (inequalities, oracle
    sandwiches); scale carries the identity's own magnitude and floor.
    """
    return float((np.maximum(-a, 0.0) / scale).max())


def excess(a: np.ndarray, scale: np.ndarray) -> float:
    """Worst a/scale, floored at 0: the one-sided residual of a gap that should vanish.

    Not cone_gap(-a, scale): the floor keeps the sign of a zero, so a gap
    that is 0 at worst reads -0.0 where the worst entry is -0.0.
    """
    return float(max((a / scale).max(), 0.0))


def near(v: float, band: float) -> bool:
    """True iff v lies in the borderline window (band/8, 8*band) of a verdict at band."""
    return band / 8.0 < v < 8.0 * band


def _nan_first(v: float) -> tuple:
    """Key of the one residual fold: NaN ranks above every number, so no maximum drops it."""
    return (v != v, v)
