"""Vector semi-inner products with values in the lattice R^n.

A map T: R^m x R^m -> R^n is a vector semi-inner product when it is
additive and scalar-homogeneous in each slot, symmetric, and T(x,x) lies
in the positive cone for every x. Two concrete families:

  PsdFamilySip      T(x,y)_j = x' A_j y for symmetric PSD matrices A_j.
                    Degenerate A_j are allowed, so T(x,x) = 0 does not
                    force x = 0 (these are semi-inner products).
  MultiplicationSip T(x,y) = x*y componentwise on R^n itself; its
                    Cauchy-Schwarz defect vanishes identically, which makes
                    it the standard witness for every equality case.

check_axioms measures the five axioms on random samples as normalized
residuals; it is also the detector for deliberately broken instances fed
in through the fault-injection path, so nothing here assumes its input is
well formed beyond shape.

Each sip has three kernels, and eval_stack evaluates a stack of sips:

  eval(x, y)         T(x, y) of one pair, whose bits each row of
                     eval_stack keeps.
  eval_stack(sips, L, R)
                     T_i(l, r) for k sips of one kind, m and n, at
                     the rows of two (..., k, m) arrays: the Gram values
                     a, b, c, the seminorm values and the scaled values of
                     a record's pairs (cauchy_schwarz.Gram, GramStack).
                     The PSD form is two stacked matmuls, a row's bits
                     those of its sip's eval.
  eval_batch(X, Y)   T on the rows of two (..., S, m) arrays, an (..., S, n)
                     array. check_axioms is its one caller, once per
                     family, on its 11 (left, right) pairs stacked into
                     two (11, samples, m) arrays. The PSD form is one
                     einsum over all the rows, along the cached path
                     einsum picks for one (S, m) block: the stacked call
                     takes the path of one pair. Its bits must not move
                     until the axiom residuals are rescaled (ROADMAP item
                     1): the axioms pins and the false-failure seeds the
                     benchmark leaves out are facts about these bits. The
                     stacking moves them only where BLAS rounds by the
                     row count (see check_axioms), at shapes no pin or
                     benchmark uses.
  quadratic(Zt, out, work)
                     T(z, z) for every column z of an (m, S) array, an
                     (n, S) array: the lambda-grid samples of the
                     Cauchy-Schwarz defect oracle, one block of grid
                     columns per call (see means.GRID_BLOCK), written
                     into the oracle's block buffers out and work (the
                     PSD form's row sum and current term). The PSD form
                     is a kernel of its own, a fixed-order
                     multiply-and-sum in row form: twice the sum over
                     rows a of z_a times row a's sum of coefficients
                     times z_b, b >= a, about half the elementwise
                     passes of a sum over the pairs a <= b. It uses no
                     einsum, matmul or BLAS, so a column's bits depend
                     on that column and the family alone, and not on
                     numpy's SIMD dispatch; the multiplication sip's is
                     Zt * Zt.

orthogonal_stack builds orthogonal pairs, y with T(x, y) = 0, for a stack
of pairs at once: the orthogonal recipe's chunks. Its kernel basis comes
from a fixed-order Gauss-Jordan elimination with no LAPACK, BLAS, matmul
or einsum, so a pair's bits depend on that pair alone. The PSD
admission's eigenvalues are numpy's eigvalsh; they decide a verdict, and
reach no reported value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (
    DEFAULT_ABS_TOL,
    DimensionMismatch,
    NonFinite,
    lazy,
)

SYMMETRY_ABS_TOL = 1e-12   # matrix asymmetry tolerated at construction
EIGENVALUE_FLOOR = -1e-10  # smallest admissible eigenvalue of a PSD member
# _axiom_operands entries kept, one per domain dimension at the harness's
# fixed samples and seed. A run checks every m its generator and shrink
# reach: 6 keys in a default verify, 12 (m = 1..12) in a triage of
# instances up to m = 12, and a cache cycled through more keys than it
# holds gets no hits. One entry holds 2 * 11 * samples * m
# floats: 11 KiB per unit of m, 704 KiB at m = 64.
AXIOM_OPERANDS_CACHED = 16


@dataclass(frozen=True)
class MultiplicationSip:
    """T(x, y) = x*y on R^dim; domain and codomain coincide."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    @property
    def domain_dim(self) -> int:
        return self.dim

    @property
    def codomain_dim(self) -> int:
        return self.dim

    def eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x * y

    # Stacked pairs multiply as one pair does.
    eval_batch = eval

    def quadratic(self, Zt: np.ndarray, out=None, work=None) -> np.ndarray:
        return np.multiply(Zt, Zt, out=out)


_PSD_SUBSCRIPTS = "jab,sa,sb->sj"


@lru_cache(maxsize=256)
def _psd_path(*shapes: tuple) -> tuple:
    """The contraction path np.einsum(..., optimize=True) picks for these operand shapes.

    The greedy search depends on the shapes alone, so its result is kept
    per (matrix shape, batch shapes); einsum given the same path computes
    the same bits without searching again.
    """
    operands = (np.broadcast_to(0.0, shape) for shape in shapes)
    return tuple(np.einsum_path(_PSD_SUBSCRIPTS, *operands, optimize=True)[0])


# 64 entries hold every domain dimension a TrialConfig allows.
@lru_cache(maxsize=64)
def _upper_pairs(m: int) -> tuple:
    """The pairs (a, b) of range(m), a <= b, in np.triu_indices order, and their index arrays.

    Every family of one m shares them, so they are kept, read-only.
    """
    a, b = np.triu_indices(m)
    a.flags.writeable = b.flags.writeable = False
    return tuple(zip(a.tolist(), b.tolist())), a, b


class PsdFamilySip:
    """T(x, y)_j = x' A_j y for a family of symmetric PSD m x m matrices.

    validate=False skips the finiteness, symmetry and eigenvalue admission
    checks; the fault-injection path relies on this to build broken
    witnesses that the axiom checker must then catch, and generated and
    shrunk families, finite by construction, skip the scan.
    Instance.from_dict checks finiteness where outside families load.
    """

    def __init__(self, matrices, validate: bool = True):
        A = np.asarray(matrices, dtype=np.float64)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise DimensionMismatch(
                f"expected matrices of shape (n, m, m), got {A.shape}")
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise DimensionMismatch("need n >= 1 matrices of size m >= 1")
        if validate:
            if not np.all(np.isfinite(A)):
                raise NonFinite("matrix entries must be finite")
            asym = np.abs(A - np.transpose(A, (0, 2, 1))).max()
            if asym > SYMMETRY_ABS_TOL:
                raise ValueError(f"matrix family is asymmetric by {asym}")
            for j, lo in enumerate(np.linalg.eigvalsh(A).min(axis=1)):
                if lo < EIGENVALUE_FLOOR:
                    raise ValueError(
                        f"matrix {j} has eigenvalue {lo} below the PSD floor")
        self.matrices = A

    @property
    def domain_dim(self) -> int:
        return int(self.matrices.shape[1])

    @property
    def codomain_dim(self) -> int:
        return int(self.matrices.shape[0])

    def eval_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        # (..., s, m) x (n, m, m) x (..., s, m) -> (..., s, n), along the
        # path for one (s, m) block
        path = _psd_path(self.matrices.shape, X.shape[-2:], Y.shape[-2:])
        m = self.domain_dim
        T = np.einsum(_PSD_SUBSCRIPTS, self.matrices, X.reshape(-1, m),
                      Y.reshape(-1, m), optimize=path)
        return T.reshape(*X.shape[:-1], -1)

    def eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.matrices @ y @ x

    @lazy
    def _row_coefficients(self) -> list:
        """quadratic's coefficients of each row a, m - a (n, 1) arrays: A_jaa/2, then C_jab for b > a.

        C_jab is A_jab where A_jba equals it, else A_jab/2 + A_jba/2, a
        sum that cannot overflow.
        """
        A = self.matrices
        At = np.swapaxes(A, 1, 2)
        C = np.where(A == At, A, 0.5 * A + 0.5 * At)
        diag = np.arange(self.domain_dim)
        C[:, diag, diag] *= 0.5
        C = np.ascontiguousarray(np.moveaxis(C, 0, -1))[..., None]
        return [list(C[a, a:]) for a in diag]

    def quadratic(self, Zt: np.ndarray, out=None, work=None) -> np.ndarray:
        """T(z, z)_j = 2 * sum_a z_a * (A_jaa/2 * z_a + sum_{b > a} C_jab * z_b), for every column z of Zt.

        The row form of sum_ab z_a A_jab z_b. Row a's sum starts from
        A_jaa/2 * z_a and adds C_jab * z_b for b = a+1, ..., m-1 in order;
        it is multiplied by z_a and added to the running sum of the rows,
        a in order, and that sum is doubled last. This takes m^2 + 2m
        elementwise passes over an (n, S) block, where a sum of the pairs'
        terms (C_jab * z_a) * z_b, a <= b, takes 2m^2 + m. Each choice:

        - C_jab counts A_jab and A_jba in one coefficient: their mean, or
          the entry where they are equal, never their sum, which
          overflows above about 8.9e307.
        - Halving A_jaa and doubling the sum once costs one pass, where
          doubling each row's off-diagonal part costs one per row. Both
          are exact, but for |A_jaa| < 2^-1021, whose half rounds, and a
          doubled sum above the largest float, where T(z, z) overflows.
        - The matrix entry multiplies first: z_a * z_b is never formed,
          which overflows above about 1.3e154 where (A_jab * z_b) * z_a
          stays finite.
        - Every step is an elementwise multiply or add, with no einsum,
          matmul or BLAS, so a column's bits depend on that column and
          the family alone: not on the number of columns, its position,
          or the SIMD paths numpy dispatches to.

        Callers pass one block of columns at a time
        (cauchy_schwarz._lambda_blocks), with an (n, S) array out for the
        sum and a (2, n, S) array work for a row's sum and its current
        term; both are new arrays by default.
        """
        m, S = Zt.shape
        acc = np.empty((self.codomain_dim, S)) if out is None else out
        work = np.empty((2, *acc.shape)) if work is None else work
        row, term = work[0], work[1]
        for a, coef in enumerate(self._row_coefficients):
            r = row if a else acc
            np.multiply(coef[0], Zt[a], out=r)
            for b in range(a + 1, m):
                np.add(r, np.multiply(coef[b - a], Zt[b], out=term), out=r)
            np.multiply(r, Zt[a], out=r)
            if a:
                np.add(acc, r, out=acc)
        return np.add(acc, acc, out=acc)


Sip = MultiplicationSip | PsdFamilySip


def eval_stack(sips, L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """T_i(l, r) at the rows l, r of L and R for the k sips T_i: (..., k, m) arrays to (..., k, n).

    The sips share one kind, m and n; for one sip the k axis may be left
    out, (..., m) arrays to (..., n). Row i has the bits of
    sips[i].eval(l, r): multiplication sips multiply the rows, and PSD
    families evaluate A_i @ r @ l as two matmuls stacked over every row
    and every family, whose inner products are those of eval's.
    """
    if isinstance(sips[0], MultiplicationSip):
        return L * R
    A = sips[0].matrices if len(sips) == 1 else np.array([T.matrices for T in sips])
    return ((A @ R[..., None, :, None])[..., 0] @ L[..., :, None])[..., 0]


def _worst(diff: np.ndarray, scale: np.ndarray, floor: float) -> float:
    return float((np.abs(diff) / (scale + floor)).max())


@lru_cache(maxsize=AXIOM_OPERANDS_CACHED)
def _axiom_operands(m: int, samples: int, seed: int) -> tuple:
    """The stacked (11, samples, m) operands L, R of check_axioms and its (samples, 1) lambda.

    X, Y and Z are uniform in [-10, 10] and lambda in [-4, 4], drawn in
    that order from default_rng(seed); the blocks of L and R follow the
    pair order of check_axioms. Every family of one m shares them, so they
    are kept, read-only.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-10.0, 10.0, (samples, m))
    Y = rng.uniform(-10.0, 10.0, (samples, m))
    Z = rng.uniform(-10.0, 10.0, (samples, m))
    lam = rng.uniform(-4.0, 4.0, (samples, 1))
    XY = X + Y
    L = np.stack((X, Y, X, Y, X, XY, Z, Z, Z, lam * X, X))
    R = np.stack((Y, X, Z, Z, X, Z, XY, X, Y, Y, lam * Y))
    for a in (L, R, lam):
        a.flags.writeable = False
    return L, R, lam


def check_axioms(T: Sip, samples: int, seed: int = 0,
                 floor: float = DEFAULT_ABS_TOL) -> dict:
    """Worst normalized residual of each semi-inner-product axiom on random samples.

    Residuals are normalized by the magnitudes of the values entering each
    identity, so they are scale free: additivity in each slot, scalar
    homogeneity in each slot, symmetry, and positivity of T(x, x).

    The samples X, Y, Z (rows of m values) and lambda depend only on
    (T.domain_dim, samples, seed), so every family of one m is checked on
    the same ones (_axiom_operands). One T.eval_batch call evaluates the
    11 pairs, stacked in this order:

      T(X,Y), T(Y,X), T(X,Z), T(Y,Z), T(X,X), T(X+Y,Z), T(Z,X+Y),
      T(Z,X), T(Z,Y), T(lambda X,Y), T(X,lambda Y)

    The stacked call takes the PSD form's contraction path for one block
    of samples rows, the path of each separate pair. A one-step path's bits
    do not depend on the row count; a two-step path has a BLAS matrix
    product whose rounding can. At the harness's 64 samples each residual
    has the bits of eleven separate eval_batch calls for every m, n <= 64
    but twelve shapes with n = 1 (m in 41..44, 49..52, 57..60, on
    OpenBLAS 0.3.31), where the last bits move. At samples = 1 a two-step
    path multiplies a vector where the stacked call multiplies a matrix,
    and the last bits can move too.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    L, R, lam = _axiom_operands(T.domain_dim, samples, seed)
    Txy, Tyx, Txz, Tyz, Txx, Tx_yz, Tzx_y, Tzx, Tzy, Tlxy, Txly = T.eval_batch(L, R)
    scale_pair = np.abs(Txy) + np.abs(Txz) + np.abs(Tyz)

    return {
        "additivity_left": _worst(Tx_yz - (Txz + Tyz), scale_pair, floor),
        "additivity_right": _worst(Tzx_y - (Tzx + Tzy), scale_pair, floor),
        "homogeneity_left": _worst(Tlxy - lam * Txy, np.abs(lam * Txy), floor),
        "homogeneity_right": _worst(Txly - lam * Txy, np.abs(lam * Txy), floor),
        "symmetry": _worst(Txy - Tyx, np.abs(Txy), floor),
        "positivity": _worst(np.maximum(-Txx, 0.0), np.abs(Txx), floor),
    }


def random_psd(rng: np.random.Generator, m: int, n: int) -> PsdFamilySip:
    """Random PSD family A_j = B_j' B_j with B_j entries uniform in [-1, 1].

    The Gram construction is PSD by design, so the admission checks are
    skipped; the explicit symmetrization irons out einsum rounding.
    """
    B = rng.uniform(-1.0, 1.0, (n, m, m))
    A = np.einsum("jka,jkb->jab", B, B)
    A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
    return PsdFamilySip(A, validate=False)


# A column of the eliminated rows of T(x, .) takes a pivot only where its
# largest entry exceeds this fraction of the largest entry of the rows.
PIVOT_REL_TOL = 1e-12
# The largest |T(x, y)| orthogonal_stack admits, relative to max(1, |x|).
ORTHOGONAL_TOL = 1e-10
# orthogonal_stack's status per pair
ORTHOGONAL, OVERFLOW, TRIVIAL_KERNEL, NOT_ORTHOGONAL = range(4)


def _kernel_rows(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The rows x'A_j of T(x, .) for each pair, (k, n, m, m) and (k, m) to (k, n, m).

    Row j is x' A_j, not (A_j x)': the two differ on (invalid) asymmetric
    families, and the kernel must match eval exactly. The sum over a runs
    in index order, one elementwise step per term.
    """
    rows = X[:, :1, None] * A[:, :, 0]
    for a in range(1, X.shape[1]):
        rows += X[:, a, None, None] * A[:, :, a]
    return rows


def _eliminate(R: np.ndarray, dims: np.ndarray) -> tuple:
    """Gauss-Jordan elimination of the (k, n, m) rows R, in place, stacked over pairs.

    Columns go in order; a column's pivot is the first of its largest
    entries among the rows that hold no pivot yet (partial pivoting),
    taken only above PIVOT_REL_TOL times the pair's largest entry and
    below its dims. The pivot row is divided by the pivot and the column
    cleared from every other row. Every step is elementwise over the
    pairs, so a pair's bits do not depend on the others in its stack.
    Returns (pivot, free): the pivot row of each column (k, m), and the
    columns below dims that hold none.
    """
    k, n, m = R.shape
    pairs = np.arange(k)
    threshold = PIVOT_REL_TOL * np.abs(R).max(axis=(1, 2), initial=0.0)
    used = np.zeros((k, n), dtype=bool)
    pivot = np.zeros((k, m), dtype=np.intp)
    has = np.zeros((k, m), dtype=bool)
    for c in range(m):
        candidates = np.where(used, -1.0, np.abs(R[:, :, c]))
        p = candidates.argmax(axis=1)
        take = (candidates[pairs, p] > threshold) & (c < dims)
        if not take.any():
            continue
        row = R[pairs, p] / R[pairs, p, c, None]
        cleared = R - R[:, :, c, None] * row[:, None, :]
        cleared[pairs, p] = row
        R[take] = cleared[take]
        used[pairs[take], p[take]] = True
        pivot[:, c], has[:, c] = p, take
    free = ~has & (np.arange(m) < dims[:, None])
    return np.where(has, pivot, -1), free


def orthogonal_stack(A, X: np.ndarray, G: np.ndarray, dims=None) -> tuple:
    """Nonzero y with T_i(x_i, y) = 0 for a stack of k pairs, normalized to sup norm 1.

    A is the (k, n, m, m) stack of PSD families, or None for
    multiplication sips (n = m); X and G are (k, m): x_i, and the standard
    normal draws y_i is built from. A pair of a smaller domain R^d is
    zero-padded to the stack's n and m (its matrices and x), and dims
    holds each pair's d (default m): its coordinates past d are padding
    and its y is 0 there.

    T(x, .) is the linear map y -> (x' A_j y)_j, and its kernel is the
    null space of the rows x' A_j (_kernel_rows). _eliminate brings them
    to reduced row echelon form; the free columns, in order, take
    g_1, g_2, ... and each pivot column the value that cancels its row,
    0 - sum over the columns f of R_pf * y_f in column order. For the
    multiplication sip the kernel is exactly the coordinates where x
    vanishes, and they take g_1, g_2, ... in order. No step uses LAPACK,
    BLAS, matmul or einsum, and each is elementwise over the pairs: a
    pair's bits are those of a stack of that pair alone, and depend on
    neither its stack nor the machine's BLAS.

    Returns (Y, status): Y (k, m), and per pair ORTHOGONAL, or OVERFLOW
    (the rows x' A_j are not finite), TRIVIAL_KERNEL (no free column) or
    NOT_ORTHOGONAL (y vanishes, or |T(x, y)| exceeds ORTHOGONAL_TOL *
    max(1, |x|)), where its row of Y is not a result.
    """
    X = np.asarray(X, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    k, m = X.shape
    dims = np.full(k, m) if dims is None else np.asarray(dims)
    with np.errstate(all="ignore"):
        if A is None:
            rows = None
            finite = np.ones(k, dtype=bool)
            free = (X == 0.0) & (np.arange(m) < dims[:, None])
        else:
            rows = _kernel_rows(np.asarray(A, dtype=np.float64), X)
            finite = np.isfinite(rows).all(axis=(1, 2))
            R = rows.copy()
            pivot, free = _eliminate(R, dims)
        # the free columns take g_1, g_2, ... in column order
        slot = np.maximum(free.cumsum(axis=1) - 1, 0)
        Y = np.where(free, np.take_along_axis(G, slot, axis=1), 0.0)
        if rows is not None:
            R_piv = R[np.arange(k)[:, None], np.maximum(pivot, 0)]  # (k, m, m)
            s = np.zeros((k, m))
            for f in range(m):
                s += R_piv[:, :, f] * Y[:, f, None]
            Y = np.where(pivot >= 0, 0.0 - s, Y)
        norm = np.abs(Y).max(axis=1)
        Y = Y / norm[:, None]
        if rows is None:
            T = X * Y
        else:
            T = rows[:, :, 0] * Y[:, :1]
            for b in range(1, m):
                T += rows[:, :, b] * Y[:, b, None]
        resid = np.abs(T).max(axis=1)
        bound = ORTHOGONAL_TOL * np.maximum(1.0, np.abs(X).max(axis=1))
        orthogonal = (norm > 1e-8) & (resid <= bound)
    status = np.select([~finite, ~free.any(axis=1), ~orthogonal],
                       [OVERFLOW, TRIVIAL_KERNEL, NOT_ORTHOGONAL], ORTHOGONAL)
    return Y, status

