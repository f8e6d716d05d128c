"""Componentwise vector-lattice primitives on R^n.

The codomain of every semi-inner product in this package is R^n with the
componentwise order, which is an Archimedean f-algebra under componentwise
multiplication: it is semiprime (a*a = 0 forces a = 0) and square root
closed on the positive cone. Vectors are plain 1-d float64 numpy arrays;
these helpers validate shapes and keep the order-theoretic operations in
one place.
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


def as_lattice_vector(values, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float64 array, optionally checking its dimension."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {a.shape}")
    if a.size == 0:
        raise DimensionMismatch("lattice vectors must have dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("lattice vector entries must be finite")
    if dim is not None and a.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {a.size}")
    return a


def check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")


def meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lattice infimum a ^ b, componentwise minimum."""
    check_same_dim(a, b)
    return np.minimum(a, b)


def join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lattice supremum a v b, componentwise maximum."""
    check_same_dim(a, b)
    return np.maximum(a, b)


def abs_val(a: np.ndarray) -> np.ndarray:
    """|a| = a v (-a)."""
    return np.abs(a)


def in_positive_cone(a: np.ndarray, tol: float = 0.0) -> bool:
    """True iff every entry of a is >= -tol."""
    return bool(np.min(a) >= -tol)


def f_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f-algebra multiplication, componentwise product."""
    check_same_dim(a, b)
    return a * b


def rel_residual(lhs: np.ndarray, rhs: np.ndarray,
                 floor: float = DEFAULT_ABS_TOL) -> float:
    """Worst componentwise |lhs - rhs| / (max(|lhs|, |rhs|) + floor).

    Scale-aware residual used by every identity check: relative where the
    operands are large, absolute (against the floor) near zero.
    """
    check_same_dim(lhs, rhs)
    scale = np.maximum(np.abs(lhs), np.abs(rhs)) + floor
    return float(np.max(np.abs(lhs - rhs) / scale))


def cone_gap(a: np.ndarray, scale: np.ndarray) -> float:
    """Worst negative part of a over scale, zero iff a is in F+.

    The one-sided residual of every cone statement (inequalities, oracle
    sandwiches); scale carries the identity's own magnitude and floor.
    """
    return float(np.max(np.maximum(-a, 0.0) / scale))
