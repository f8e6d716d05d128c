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

Gram is the record of one pair: x and y, an optional weight u, a, b, c
with sqrt(a*c) and the closed-form defect derived from them, and the
seminorm values of the triangle-type theorems (see seminorms), each
validated or evaluated once, on first read. GramStack is the record of k
pairs whose semi-inner products share the codomain R^n, read as (k, n)
arrays, one row per pair. A record evaluates T-values with values(): a
Gram in one sip.eval_stack call, a GramStack in one call per sub-stack
of pairs of one sip kind and one domain R^m, each call stacking every
pair of the sub-stack and every argument pair asked for. a, b and c come
from one such evaluation. s = T(x+y,x+y) and d = T(x-y,x-y) are
evaluated per request (sums): those a reader asks for in one evaluation,
so an x+y or x-y that overflows raises only on a request for its value,
and a reader that never reads d never evaluates it. The seminorms of x,
y, x+y and x-y are evaluated per request too (norms): a theorem asks for
those it reads, and one _seminorm call maps their stacked T-values, each
row under its own rounding floor. seminorms evaluates its scaled values
the same way. The derived values follow by the same formulas on the
rows, and each row has the bits of its pair's Gram, which are those of
T.eval. The identity (cs_identity), the inequality
with its biconditional (cs_verdict) and the oracle comparison
(defect_gaps) are pure functions of either record, with a float or bool
per statement for a Gram and a (k,) array of them for a GramStack, the
same bits row by row. The harness's trial record is a Gram and its group
record a GramStack. Their residuals, the borderline window and the fold
of two gaps follow the package-wide residual policy of lattice
(cone_gap, excess, near and fold), which reduces over the last axis.

The lambda-grid oracle must stay independent of that derivation: it
samples the defining family by evaluating T directly on lambda*x - y over
the +- closure of a log-spaced magnitude grid (means.LogGrid, the grid
type of the [*] infimum), using neither bilinear expansion nor calculus.
The grid minimum over-estimates the infimum, so grid >= closed always,
and the gap shrinks with grid resolution. lambda_minima is the one pass:
the T-values T(lambda*x - y, lambda*x - y) do not depend on a weight, so
one pass over a pair's grid gives both the defect D(x,y) and the
weighted defect D(x,y)*u of the sharpened triangle inequality.
defect_grid is its unweighted defect in one call.

The pass is coordinate-major and blocked, like the mean oracles (see
means): _lambda_blocks yields the S = 2G columns of the grid's +-
closure one block at a time (means._blocks, rows max(m, n)), each
block's difference vectors the columns of an (m, width) array built
along contiguous rows, which T.quadratic maps to an (n, width) array of
T-values (for a PSD family in the fixed row order of its own kernel,
sip.PsdFamilySip.quadratic). The difference vectors, the PSD kernel's
two work blocks (a row's sum and its current term) and the T-values are
slices of one buffer made once per call. _lambda_values weights a block
into the spare block (the kernel's row sum) and divides both by |lambda|
(cached on the grid) in place; the whole-grid pass (_lambda_pass) folds
their row minima with np.minimum, so it never holds more than a block,
and the staged samples (_lambda_samples) copy them out. Each column's
bits depend on its lambda alone, and minima are exact, so the minima are
the same at any block width.

On a large grid (2G*n at least LAMBDA_BRACKET_ELEMENTS) the pass has two
stages, as the mean oracles do (see means). Its pieces are the grid's
two branches. The coarse stage evaluates every s-th column of each
branch and its ends, s about sqrt(G / 2n); the fine stage evaluates the
union of the certified rows' windows of 2s - 1 columns around their best
coarse sample, and each row of D (and of D*u) certified on both branches
takes its minimum over every column of that union. Why that is the full
grid's minimum:

  - With a = T(x,x)_j, b = T(x,y)_j, c = T(y,y)_j and s = log|lambda|, a
    row's exact samples on a branch are A*e^s + B + C*e^-s, A = a,
    B = -+2b, C = c (for the kernel's own coefficients, which define an
    exact quadratic form): convex where A, C >= 0, monotone where they
    differ in sign, concave where both are negative. D*u's row is u_j
    times it, the same shape.
  - E bounds the rounding error of any sample on the grid
    (_lambda_bound), built from the kernel's coefficients |C_jab| (at
    most max |A_jab|), sum |x|, sum |y| and |lambda| only, never from a,
    b, c or the defect; u_j*E for D*u.
  - Where every other coarse sample of a branch is worse than the best
    by more than 2E, the argument of means applies: a convex or monotone
    function cannot come back past a coarse neighbour of the best
    sample, and a concave one is no better inside a coarse interval than
    at its ends, so no column outside the window beats it.
  - The union holds both of the row's windows, and it is a set of grid
    columns, so its minimum is no more than the row's minimum over its
    windows, which is the grid minimum, and no less than the grid
    minimum: any set of grid columns that holds the row's windows has
    the row's grid minimum, value for value.

The result starts as NaN, and the rows it still holds as NaN (either
branch not certified: a non-finite sample or E, which an overflow gives,
a flat row, a tie, a zero weight's row of D*u) or as a zero, whose sign
the fold order decides, fall back: the whole grid is evaluated block by
block (_lambda_pass), and gives those rows. Every sample is a column of
the full pass, so every row has the full grid's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import attrgetter

import numpy as np

from .lattice import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DimensionMismatch,
    NonFinite,
    NotInPositiveCone,
    as_lattice_vector,
    cone_gap,
    excess,
    fold,
    in_positive_cone,
    lazy,
    near,
)
from .means import (
    EPS,
    UNDERFLOW,
    LogGrid,
    _block_view,
    _block_width,
    _blocks,
    _box_times,
    _brackets,
    _coarse,
    _cone_pair,
    _stride,
)
from .sip import MultiplicationSip, Sip, eval_stack

# Default lambda grid of a verification run (TrialConfig).
LAMBDA_LO = 1e-6
LAMBDA_HI = 1e6
LAMBDA_COUNT = 2001
# The fewest elements (2G*n) of a lambda pass that take two stages
# (means._stride): the kernel makes m^2 + 2m passes per stage, and on
# numpy 2.4.6 (BENCH_grid_brackets.json) two stages took longer below
# about this size, and far less above it.
LAMBDA_BRACKET_ELEMENTS = 2**14

# Normalized band of the equality <-> zero-defect biconditional, and the
# tolerance of the inequality's normalized violation.
CONE_BAND = 1e-8
INEQ_FLOOR = 1e-10


def _rounding_floor(p: np.ndarray, q: np.ndarray, floor: float) -> np.ndarray:
    """DEFAULT_REL_TOL * (max|p| + max|q|) + floor per row, shaped to broadcast against p.

    How far rounding can push computed T-values out of F+.
    """
    scale = np.abs(p).max(axis=-1) + np.abs(q).max(axis=-1)
    return (DEFAULT_REL_TOL * scale + floor)[..., None]


# The T-values of sums, by name, and their arguments.
_SUMS = {"s": "x+y", "d": "x-y"}
# The T-value each seminorm of norms maps.
_NORMS = {"norm_x": "a", "norm_y": "c", "norm_sum": "s", "norm_diff": "d"}


def _seminorm(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    # t = T(z,z) is computed, hence rounded; clamp it into the cone with a
    # scale-aware floor rather than the bare absolute one.
    return _box_times(t, u, _rounding_floor(t, u, DEFAULT_ABS_TOL))


class _Record:
    """The values a record evaluates and derives from its pairs, each by one formula.

    A Gram holds them for its pair, shaped (n,), and a GramStack for its
    k pairs, shaped (k, n). The T-values come from values(), whose rows
    have the bits of each pair's T.eval; every derived step is
    elementwise or takes a floor per row, so each row has the bits of its
    pair's Gram.
    """

    @lazy
    def _gram(self) -> np.ndarray:
        """a, b and c, stacked: T(x,x), T(x,y) and T(y,y) from one evaluation."""
        return self.values(lambda x, y: (np.array((x, x, y)), np.array((x, y, y))))

    @lazy
    def a(self) -> np.ndarray:
        return self._gram[0]

    @lazy
    def b(self) -> np.ndarray:
        return self._gram[1]

    @lazy
    def c(self) -> np.ndarray:
        return self._gram[2]

    def _request(self, names: tuple, evaluate) -> list:
        """The values of names: those not yet kept from one call of evaluate, which keeps them.

        evaluate maps the list of those names to their values, stacked
        along the first axis; each is kept under its name, and none if it
        raises.
        """
        kept = vars(self)
        todo = [name for name in names if name not in kept]
        if todo:
            kept.update(zip(todo, evaluate(todo)))
        return [kept[name] for name in names]

    def sums(self, *names) -> list:
        """s = T(x+y,x+y) or d = T(x-y,x-y) for each of names, those not yet kept in one evaluation.

        An argument that overflows at some pair raises NonFinite: a
        reader asks only for the values it reads.
        """
        def evaluate(todo):
            def args(x, y):
                z = np.array([x + y if name == "s" else x - y for name in todo])
                if not np.isfinite(z).all():
                    raise NonFinite(f"{' or '.join(_SUMS[name] for name in todo)} "
                                    "has an entry that is not finite")
                return z, z

            return self.values(args)

        return self._request(names, evaluate)

    @lazy
    def s(self) -> np.ndarray:
        """T(x+y, x+y)."""
        return self.sums("s")[0]

    @lazy
    def d(self) -> np.ndarray:
        """T(x-y, x-y)."""
        return self.sums("d")[0]

    @lazy
    def bound(self) -> np.ndarray:
        """sqrt(a*c), factors clamped at 0: T(x,x) [*] T(y,y) without the cone check."""
        return np.sqrt(np.maximum(self.a, 0.0) * np.maximum(self.c, 0.0))

    @lazy
    def defect(self) -> np.ndarray:
        """Closed-form defect 2*(sqrt(a*c) - |b|).

        The factors under the root are clamped at 0 (they can round
        negative when a coordinate of a or c is a rounded zero), which
        matches the clamping box_times applies. The result itself is not
        clamped: its membership in F+ is a theorem under the axioms, and a
        genuine negative value must surface as a violation.
        """
        return 2.0 * (self.bound - np.abs(self.b))

    def norms(self, *names) -> list:
        """The seminorms of names (norm_x, norm_y, norm_sum, norm_diff), those not kept in one call.

        The T-values they map (a, c, s, d; s and d in one request of
        sums) are stacked, and one _seminorm call maps them, each row
        under its own rounding floor, so each has the bits it has alone.
        """
        def evaluate(todo):
            values = [_NORMS[name] for name in todo]
            sums = [name for name in values if name in _SUMS]
            if sums:
                self.sums(*sums)
            return _seminorm(np.array([getattr(self, name) for name in values]), self.u)

        return self._request(names, evaluate)

    @lazy
    def norm_x(self) -> np.ndarray:
        return self.norms("norm_x")[0]

    @lazy
    def norm_y(self) -> np.ndarray:
        return self.norms("norm_y")[0]

    @lazy
    def norm_sum(self) -> np.ndarray:
        """norm(x+y)."""
        return self.norms("norm_sum")[0]

    @lazy
    def norm_diff(self) -> np.ndarray:
        """norm(x-y)."""
        return self.norms("norm_diff")[0]

    @lazy
    def norm_bound(self) -> np.ndarray:
        """norm(x) + norm(y), the triangle bound."""
        return self.norm_x + self.norm_y

    @lazy
    def lhs_sq(self) -> np.ndarray:
        """norm(x+y)^2 = T(x+y,x+y)*u."""
        return self.s * self.u

    @lazy
    def rhs_sq(self) -> np.ndarray:
        """(norm(x) + norm(y))^2."""
        return self.norm_bound * self.norm_bound

    @lazy
    def weighted_defect(self) -> np.ndarray:
        """D(x,y)*u."""
        return self.defect * self.u

    @lazy
    def middle(self) -> np.ndarray:
        """rhs_sq - D(x,y)*u, the middle term of the sharpened triangle chain."""
        return self.rhs_sq - self.weighted_defect


class Gram(_Record):
    """The lazy record of one pair (x, y) under T, with an optional weight u.

    Every value is validated or evaluated once, on first read or request:
    x and y (vectors of T's domain), u (a vector of T's codomain in F+,
    tiny negative entries clamped to 0), a = T(x,x), b = T(x,y), c = T(y,y)
    (one evaluation) with bound and defect, the seminorm values
    s = T(x+y,x+y) and d = T(x-y,x-y) (one evaluation per request of
    sums), the seminorms of x, y, x+y and x-y under u (one call per
    request of norms), the squared sides of the triangle inequality and
    the middle term of the sharpened chain. Reading lazily keeps a reader
    from computing, or raising on, a value it never reads: the
    Cauchy-Schwarz values never read u, nor x+y and x-y. A value that
    raises is not kept, so the next reader raises on it again.
    """

    def __init__(self, T: Sip, x, y, u=None):
        self.T = T
        self._x, self._y, self._u = x, y, u

    @property
    def pairs(self) -> tuple:
        """The record's pairs: this one."""
        return (self,)

    def each(self, f):
        """f of the pair: a value the theorems compute per pair, as a GramStack stacks it."""
        return f(self)

    def where(self, holds, f):
        """f of the record where holds, else 0.0: a residual asserted under a hypothesis."""
        return f(self) if holds else 0.0

    @lazy
    def x(self) -> np.ndarray:
        return as_lattice_vector(self._x, self.T.domain_dim)

    @lazy
    def y(self) -> np.ndarray:
        return as_lattice_vector(self._y, self.T.domain_dim)

    @lazy
    def u(self) -> np.ndarray:
        """The weight in F+: entries negative within DEFAULT_ABS_TOL clamp to 0, others raise."""
        if self._u is None:
            raise ValueError("this Gram has no weight u")
        u = as_lattice_vector(self._u, self.T.codomain_dim)
        if not in_positive_cone(u, tol=DEFAULT_ABS_TOL):
            raise NotInPositiveCone(f"weight entry {np.min(u)} is negative")
        return np.maximum(u, 0.0)

    def values(self, args) -> np.ndarray:
        """T(l, r) for the j argument pairs (l, r) of args(x, y), two (j, m) arrays: a (j, n) array."""
        return eval_stack((self.T,), *args(self.x, self.y))


def _stacked(name: str) -> lazy:
    """The GramStack value of that name: its pairs' values, stacked on first read."""
    return lazy(lambda self: self.each(attrgetter(name)))


class GramStack(_Record):
    """The lazy record of k pairs, each a Gram, under semi-inner products into one R^n.

    The pairs' sips, kinds and domains may differ. x, y and u read as the
    stacks of the pairs' validated values, one row per pair. The T-values
    are evaluated on the stack, one eval_stack call per sub-stack of pairs
    of one sip kind and one domain R^m, and the derived values are
    computed on the stacks. A value that raises on any pair raises here
    and is not kept, as in a Gram.
    """

    def __init__(self, pairs):
        self.pairs = tuple(pairs)

    def each(self, f):
        """f of each pair, stacked along a new leading axis.

        Values of different shapes (x and y of different domains) raise
        DimensionMismatch: they have no stack.
        """
        values = [f(p) for p in self.pairs]
        try:
            return np.array(values)
        except ValueError:
            raise DimensionMismatch("the pairs' values differ in shape") from None

    def where(self, holds: np.ndarray, f) -> np.ndarray:
        """f of the record of the pairs where holds, 0.0 at the others, as a (k,) array.

        The record of those pairs is a new GramStack, which evaluates the
        values f reads afresh.
        """
        if holds.all():
            return f(self)
        out = np.zeros(len(self.pairs))
        if holds.any():
            out[holds] = f(GramStack(compress(self.pairs, holds)))
        return out

    @lazy
    def _parts(self) -> list:
        """(positions, sips, x, y) of each sub-stack of pairs of one sip kind, m and n.

        x and y are the (k', m) stacks of the sub-stack's validated pairs,
        validated in pair order.
        """
        xs, ys = [p.x for p in self.pairs], [p.y for p in self.pairs]
        parts = {}
        for i, p in enumerate(self.pairs):
            parts.setdefault((type(p.T), p.T.domain_dim, p.T.codomain_dim), []).append(i)
        return [(rows, [self.pairs[i].T for i in rows],
                 np.array([xs[i] for i in rows]), np.array([ys[i] for i in rows]))
                for rows in parts.values()]

    def values(self, args) -> np.ndarray:
        """T(l, r) for the j argument pairs (l, r) of args at every pair: a (j, k, n) array.

        args maps a sub-stack's (k', m) stacks of x and y to two (j, k', m)
        arrays, evaluated in one eval_stack call. Pairs of different
        codomains raise DimensionMismatch.
        """
        out = None
        for rows, sips, x, y in self._parts:
            t = eval_stack(sips, *args(x, y))
            if out is None:
                out = np.empty((len(t), len(self.pairs), t.shape[-1]))
            elif t.shape[-1] != out.shape[-1]:
                raise DimensionMismatch("the pairs' values differ in shape")
            out[:, rows] = t
        return out

    x = _stacked("x")
    y = _stacked("y")
    u = _stacked("u")


Record = Gram | GramStack


def _lambda_blocks(g: Gram, grid: LogGrid, cols=None):
    """(block, T-values, spare) per block of the columns cols of grid.signed (all by default), in order.

    The T-values T(lambda*x - y, lambda*x - y) of the block's lambdas are
    an (n, width) array, and spare a block of that shape that the caller
    may overwrite; the next block overwrites both. Reads g's sip and its
    validated pair only, never a, b or c: the oracle evaluates T on the
    difference vectors directly, with no bilinear expansion.
    """
    x, y = g.x[:, None], g.y[:, None]
    lam = grid.signed if cols is None else grid.signed[cols]
    m, n = x.shape[0], g.T.codomain_dim
    rows = max(m, n)
    width = _block_width(rows, lam.size)
    # z, the PSD form's row sum (the spare block) and term, and the
    # T-values share one allocation: separate ones raised the peak RSS of
    # some runs by about 2.5 MB
    buf = np.empty((m + 3 * n) * width)
    z_buf, w_buf, t_buf = np.split(buf, [m * width, (m + 2 * n) * width])
    for block in _blocks(rows, lam.size):
        z = _block_view(z_buf, m, block)
        np.multiply(x, lam[block], out=z)
        z -= y
        w = _block_view(w_buf, 2 * n, block).reshape(2, n, -1)
        yield block, g.T.quadratic(z, _block_view(t_buf, n, block), w), w[0]


def _lambda_values(g: Gram, grid: LogGrid, u, cols=None):
    """(block, values) per block of _lambda_blocks: [t/|lambda|], or [t/|lambda|, t*u/|lambda|] with u.

    t is the block's T-values; t*u/|lambda| is written into the spare
    block, then t/|lambda| over t, so the next block overwrites both.
    """
    abs_lam = grid.signed_abs if cols is None else grid.signed_abs[cols]
    for block, t, w in _lambda_blocks(g, grid, cols):
        weighted = [] if u is None else [
            np.divide(np.multiply(t, u[:, None], out=w), abs_lam[block], out=w)]
        yield block, [np.divide(t, abs_lam[block], out=t)] + weighted


def _lambda_pass(g: Gram, grid: LogGrid, u) -> list:
    """lambda_minima's [D] or [D, D*u] over every column of grid.signed, block by block."""
    minima = None
    for _, values in _lambda_values(g, grid, u):
        low = [v.min(axis=1) for v in values]
        minima = low if minima is None else [np.minimum(a, b, out=a) for a, b in zip(minima, low)]
    return minima


def _lambda_samples(g: Gram, grid: LogGrid, cols: np.ndarray, u) -> np.ndarray:
    """t/|lambda| and, with u, t*u/|lambda| at the columns cols of grid.signed: (1 or 2, n, len(cols)).

    Each element is _lambda_values's, so it has _lambda_pass's bits.
    """
    out = np.empty((1 if u is None else 2, g.T.codomain_dim, cols.size))
    for block, values in _lambda_values(g, grid, u, cols):
        out[:, :, block] = values
    return out


def _pair(minima) -> tuple:
    """(D, D*u) of lambda_minima from [D] or [D, D*u]: D*u is None without a weight."""
    return minima[0], None if len(minima) == 1 else minima[1]


def _lambda_bound(g: Gram, grid: LogGrid) -> np.ndarray:
    """E of each codomain row: a bound on the rounding error of any sample t/|lambda| of the grid.

    Built from T's coefficients and the pair's magnitudes alone: K_j is
    the largest |A_jab| (which bounds every |C_jab| of the kernel), X and
    Y are sum |x_a| and sum |y_a| (for the multiplication sip, row j's
    |x_j| and |y_j|), and S = |lambda|*X + Y bounds sum |z_a| for
    z = lambda*x - y. z rounds twice and the kernel's row form at most 2m
    times along any term, so t is within (2m + 5) unit roundoffs of
    2*K*S^2, and t/|lambda| and t*u/|lambda| round once or twice more;
    E takes (m + 8)*EPS, twice that, of 2*K*S^2/|lambda| at the grid's
    ends, where it is largest, plus an allowance for products that
    underflow.
    """
    T, x, y = g.T, g.x, g.y
    if isinstance(T, MultiplicationSip):
        m, K, X, Y = 1, 1.0, np.abs(x), np.abs(y)
    else:
        m, K, X, Y = T.domain_dim, np.abs(T.matrices).max(axis=(1, 2)), np.abs(x).sum(), np.abs(y).sum()
    with np.errstate(over="ignore", invalid="ignore"):
        S_lo, S_hi = grid.lo * X + Y, grid.hi * X + Y
        scale = np.maximum(2.0 * K * S_lo * S_lo / grid.lo, 2.0 * K * S_hi * S_hi / grid.hi)
        underflow = 2.0 * (m + 2) ** 2 * UNDERFLOW * (1.0 + K) * (1.0 + S_hi) / grid.lo
        return (m + 8) * EPS * scale + underflow


def lambda_minima(g: Gram, grid: LogGrid, u=None) -> tuple:
    """(D, D*u): componentwise minima over grid.signed of t/|lambda| and of t*u/|lambda|.

    t is T(lambda*x - y, lambda*x - y) of g's pair, and u a validated
    weight; D*u is None without one. The grid's two branches are its
    pieces. A coarse stage samples every s-th column of each and its ends
    (means._coarse, s = means._stride(G, n, ...)); means._brackets
    certifies each row of D and of D*u on each branch under _lambda_bound
    (u_j times it for D*u). One fine stage evaluates the union of the
    certified windows, and a row certified on both branches takes its
    minimum over every column of that union: the union holds the row's
    own windows, so its minimum is the row's grid minimum, value for
    value. The result starts as NaN, and if any row still holds NaN (not
    certified on both branches) or a zero, the whole grid is evaluated
    block by block (_lambda_pass) and gives those rows. Never holds more
    than a block of T-values, and gives _lambda_pass's bits.
    Over-estimates the infimum D(x,y), or D(x,y)*u, by construction.
    """
    G, n = grid.count, g.T.codomain_dim
    s = _stride(G, n, 2 * G * n, LAMBDA_BRACKET_ELEMENTS)
    if not s:
        return _pair(_lambda_pass(g, grid, u))
    at = _coarse(G, s)
    # rows: each codomain row of D on the negative branch, then on the
    # positive one, then the same for D*u
    values = _lambda_samples(g, grid, np.concatenate([at, G + at]), u).reshape(-1, at.size)
    bound = _lambda_bound(g, grid)
    if u is not None:
        bound = np.concatenate([bound, u * bound])
    certified, windows = _brackets(values, np.minimum, lambda best: np.repeat(bound, 2), s, G)
    windows[1::2] += G  # the positive branch's columns of grid.signed
    both = certified.reshape(-1, 2).all(axis=1)
    minima = np.full(both.size, np.nan)
    if both.any():
        union = np.zeros(2 * G, dtype=bool)
        union[windows[certified]] = True
        fine = _lambda_samples(g, grid, np.flatnonzero(union), u)
        minima[both] = fine.reshape(both.size, -1)[both].min(axis=1)
    whole = np.isnan(minima) | (minima == 0.0)
    if whole.any():
        minima[whole] = np.concatenate(_lambda_pass(g, grid, u))[whole]
    return _pair(minima.reshape(-1, n))


def defect_grid(T: Sip, x, y, grid: LogGrid) -> np.ndarray:
    """Componentwise min of |lambda|^-1 T(lambda*x - y, lambda*x - y) over the grid.

    lambda runs over grid.signed. Evaluates T on the difference vectors
    directly, with no bilinear expansion, so this oracle shares nothing
    with the closed form beyond T itself. Over-estimates the true infimum
    by construction. lambda_minima's D of the pair.
    """
    return lambda_minima(Gram(T, x, y), grid)[0]


def defect_gaps(g: Record, sampled: np.ndarray,
                floor: float = DEFAULT_ABS_TOL) -> tuple[float, float]:
    """(sandwich, gap) of the lambda-grid oracle's value sampled against the closed-form defect.

    sampled is the oracle's defect of g's pair (lambda_minima's D, as
    defect_grid gives it), or of each pair of a GramStack, stacked like
    its values. Normalized by the largest of |a|, |c| and both
    defect values: sandwich is the violation of grid >= closed, gap the
    worst over-estimate.
    """
    gap = sampled - g.defect
    scale = np.maximum(np.abs(g.a), np.maximum(np.abs(g.c), np.maximum(
        np.abs(g.defect), np.abs(sampled)))) + floor
    return cone_gap(gap, scale), excess(gap, scale)


def cs_identity(g: Record, floor: float = DEFAULT_ABS_TOL) -> np.ndarray:
    """Raw residual of |b| = a [*] c - D/2, componentwise.

    Raises NotInPositiveCone when a or c leaves the positive cone beyond
    the rounding floor of the geometric mean.
    """
    # a and c are in F+ up to rounding of PSD arithmetic; check them
    # against a scale-aware floor rather than the bare absolute one. Past
    # the check, g.bound is their geometric mean a [*] c.
    _cone_pair("box_times", g.a, g.c, _rounding_floor(g.a, g.c, floor))
    return np.abs(g.b) - (g.bound - 0.5 * g.defect)


@dataclass(frozen=True)
class CsCheck:
    """The verdicts of a record: one bool or float each for a Gram, a (k,) array for a GramStack."""

    equality_holds: bool
    defect_zero: bool
    borderline: bool
    identity: float    # worst normalized |cs_identity|
    inequality: float  # worst normalized violation of |b| <= sqrt(a*c)


def cs_verdict(g: Record, band: float = CONE_BAND,
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
        borderline=near(fold(eq_gap, defect_n), band),
        identity=(np.abs(cs_identity(g, floor)) / scale).max(axis=-1),
        inequality=cone_gap(slack, scale),
    )

