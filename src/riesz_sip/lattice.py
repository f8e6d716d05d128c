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
with these forms. Each reduces over the last axis, the codomain
coordinates, so the values of one pair, shaped (n,), give one residual
and the stacked values of k pairs, shaped (k, n), give a (k,) array of
them, row by row with the same bits: the row maxima are exact, and the
other steps are elementwise.

  rel_residual(lhs, rhs)  an identity: the worst |lhs - rhs| over the
                          larger side plus a floor.
  cone_gap(a, scale)      a cone statement a in F+: the worst negative
                          part of a over scale.
  excess(a, scale)        a gap that must vanish: the worst a/scale,
                          floored at 0.
  near(v, band)           the borderline window band/8 < v < 8*band of a
                          verdict decided at band; a trial inside it is
                          flagged borderline rather than forced.
  fold(a, b)              the maximum of two residuals, per trial: NaN
                          ranks above every number, and of equal values
                          the first is kept, as max(a, b, key=_nan_first)
                          keeps it for two floats.

NaN passes through the three residuals, wins every fold and is never
near, so a residual spoiled by overflow fails its check (not v <= tol)
and shows in every maximum that folds it.

lazy is the package's value computed on first read and kept, the
records' and grids' cached values: functools.cached_property's rule
without its lock.
"""

from __future__ import annotations

import numpy as np

# Global tolerance policy: relative tolerance with an absolute floor,
# so comparisons stay meaningful near zero.
DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12


class lazy:
    """functools.cached_property without its lock: f's value, computed on first read and kept.

    The value is kept in the instance's __dict__ under the attribute's
    name, which later reads find before the descriptor, as
    cached_property keeps it; a value that raises is not kept, so the next
    read raises again. cached_property takes a lock on every first read
    on Python 3.11, and this package reads its values from one thread.
    """

    def __init__(self, f):
        self.f = f
        self.__doc__ = f.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.f(obj)
        return value


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


def in_positive_cone(a: np.ndarray, tol=0.0) -> bool:
    """True iff every entry of a is >= -tol; tol may hold one floor per row of a stack."""
    return bool((a >= -tol).all())


def rel_residual(lhs: np.ndarray, rhs: np.ndarray,
                 floor: float = DEFAULT_ABS_TOL):
    """Worst componentwise |lhs - rhs| / (max(|lhs|, |rhs|) + floor).

    Scale-aware residual used by every identity check: relative where the
    operands are large, absolute (against the floor) near zero.
    """
    if lhs.shape != rhs.shape:
        raise DimensionMismatch(f"dimension mismatch: {lhs.shape} vs {rhs.shape}")
    scale = np.maximum(np.abs(lhs), np.abs(rhs)) + floor
    return (np.abs(lhs - rhs) / scale).max(axis=-1)


def cone_gap(a: np.ndarray, scale: np.ndarray):
    """Worst negative part of a over scale, zero iff a is in F+.

    The one-sided residual of every cone statement (inequalities, oracle
    sandwiches); scale carries the identity's own magnitude and floor.
    """
    return (np.maximum(-a, 0.0) / scale).max(axis=-1)


def excess(a: np.ndarray, scale: np.ndarray):
    """Worst a/scale, floored at 0: the one-sided residual of a gap that should vanish.

    Not cone_gap(-a, scale): the floor keeps the sign of a zero, so a gap
    that is 0 at worst reads -0.0 where the worst entry is -0.0.
    """
    return fold((a / scale).max(axis=-1), 0.0)


def near(v, band: float):
    """True where v lies in the borderline window (band/8, 8*band) of a verdict at band."""
    return (band / 8.0 < v) & (v < 8.0 * band)


def fold(a, b):
    """The NaN-first maximum of two residuals (or of two (k,) arrays of them, per trial).

    a where a >= b or a is NaN, else b: a NaN is never dropped, and of
    equal values, -0.0 and 0.0 among them, the first is kept. Two floats
    give a numpy float.
    """
    return np.where((a >= b) | (a != a), a, b)[()]


def _nan_first(v: float) -> tuple:
    """Key of fold's order for floats, max(..., key=_nan_first): NaN ranks above every number."""
    return (v != v, v)
