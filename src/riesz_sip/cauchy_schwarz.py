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
and the gap shrinks with grid resolution. lambda_minima is the one pass,
over any number of pairs at once, and gives each pair its defect D(x,y).
The weighted defect D(x,y)*u of the sharpened triangle inequality is u
times it (seminorms.weighted_defect_gaps): each u_j >= 0 commutes with
the infimum over lambda. defect_grid is one pair's defect in one call.

Rows by kernel class. A row is one codomain coordinate of one pair, and
its samples depend on its own coefficients and its pair alone. The rows
of one kernel class share every numpy call (_lambda_rows): the
multiplication sip's rows, z_j * z_j, form one class, and the PSD rows
of each domain dimension m another. A PSD row takes its family member's
coefficients as (R, 1) columns, in the fixed row order of the PSD kernel
sip._row_form, and repeats its pair's difference vector
z = lambda*x - y; the rows of one PSD pair read its one z. A class's
_Rows is the row sampler of the one grid driver, means._fold_grid, which
also serves the mean oracles (see means for the layout, the two stages
and why they are sound): a block's difference vectors, the kernel's two
work blocks (a row's sum and its current term) and the T-values are
consecutive views of the driver's buffer (_lambda_values), and the
sampler divides the T-values by |lambda| (cached on the grid) in place.
Each column's bits depend on its lambda and its row alone, and minima
are exact, so the minima are the same at any block width, in any band
and in any stack.

What the two stages need of the lambda oracle:

  - The pieces are the grid's two branches, the negative and the
    positive half of grid.signed, and a row is certified where it is on
    both.
  - With a = T(x,x)_j, b = T(x,y)_j, c = T(y,y)_j and s = log|lambda|, a
    row's exact samples on a branch are A*e^s + B + C*e^-s, A = a,
    B = -+2b, C = c (for the kernel's own coefficients, which define an
    exact quadratic form): convex where A, C >= 0, monotone where they
    differ in sign, concave where both are negative.
  - E bounds the rounding error of any sample on the grid
    (_lambda_bound), built from the kernel's coefficients |C_jab| (at
    most max |A_jab|), sum |x|, sum |y| and |lambda| only, never from a,
    b, c or the defect.

A row the stages leave NaN or zero sends its class's whole call, every
row of every pair in it, through the whole grid.
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
    _box_times,
    _cone_pair,
    _fold_grid,
)
from .sip import MultiplicationSip, Sip, _row_coefficients_of, _row_form, eval_stack

# Default lambda grid of a verification run (TrialConfig).
LAMBDA_LO = 1e-6
LAMBDA_HI = 1e6
LAMBDA_COUNT = 2001
# The fewest elements (2G*R, R rows of a kernel class) of a lambda pass
# that take two stages (means._fold_grid): the kernel makes m^2 + 2m passes
# per stage, and on numpy 2.4.6 (BENCH_grid_brackets.json) two stages
# took longer below about this size, and far less above it.
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


class _Rows:
    """The R rows of one kernel class of a lambda_minima call, each one codomain coordinate of one pair.

    The rows are in pair order, and a pair's rows are contiguous, in
    coordinate order. x and y are (m, R): row r's column is its pair's x
    and y (for the multiplication sip, its x_j and y_j, m = 1), or (m, 1)
    for the rows of one PSD pair, whose one column every row reads.
    coefficients are the PSD rows' sip._row_form coefficients as (R, 1)
    columns, and matrices their members A_j, (R, m, m); both are None for
    multiplication rows.

    The row sampler of means._fold_grid: D's samples t/|lambda| of every
    row, over the two branches of grid.signed, G columns each.
    """

    fold, pieces, circle = np.minimum, 2, False

    def __init__(self, size, x, y, coefficients, matrices, grid):
        self.size, self.x, self.y, self.grid = size, x, y, grid
        self.coefficients, self.matrices = coefficients, matrices
        self.count = grid.count

    def depth(self, b: int) -> int:
        """The rows of a band of b rows' block arrays: z (m per row, m for one PSD pair; b at least), t and two work blocks."""
        return max(self.x.shape[0] * min(self.x.shape[1], b), b) + 3 * b

    def sample(self, lo: int, hi: int, cols, buf: np.ndarray) -> np.ndarray:
        """t/|lambda| of rows lo:hi at cols of grid.signed, t divided in place.

        cols is a slice or (P,) columns of every row, or (hi - lo, P) of each.
        """
        t = _lambda_values(self, lo, hi, self.grid.signed[cols], buf)
        return np.divide(t, self.grid.signed_abs[cols], out=t)

    def error(self, lo: int, hi: int, best: np.ndarray) -> np.ndarray:
        """E of rows lo:hi, on each branch."""
        return np.repeat(_lambda_bound(self, lo, hi), 2)


def _lambda_rows(pairs: list, grid: LogGrid) -> tuple:
    """(classes, places): the _Rows of each kernel class of the pairs on grid, and each pair's (class, first row).

    The multiplication sip's rows form one class, and the PSD rows of each
    domain dimension m another, in order of first appearance.
    """
    classes = {}
    for i, g in enumerate(pairs):
        classes.setdefault(None if isinstance(g.T, MultiplicationSip) else g.T.domain_dim,
                           []).append(i)
    places = [None] * len(pairs)
    out = []
    for key, members in classes.items():
        first = 0
        for i in members:
            places[i] = (len(out), first)
            first += pairs[i].T.codomain_dim
        out.append(_stack_rows(key is None, [pairs[i] for i in members], first, grid))
    return out, places


def _stack_rows(multiplication: bool, grams: list, size: int, grid: LogGrid) -> _Rows:
    """The _Rows of the pairs grams, of one class.

    The PSD class's coefficients are built in one pass over its rows'
    members, concatenated (sip._row_coefficients_of), which is elementwise:
    each row's coefficients have its family's bits. One pair's rows take
    its family's kept coefficients.
    """
    if multiplication:
        x = np.concatenate([g.x for g in grams])[None]
        y = np.concatenate([g.y for g in grams])[None]
        return _Rows(size, x, y, None, None, grid)
    if len(grams) == 1:  # one pair: every row reads its one column
        (g,) = grams
        return _Rows(size, g.x[:, None], g.y[:, None], g.T._row_coefficients, g.T.matrices, grid)
    ns = [g.T.codomain_dim for g in grams]
    x = np.repeat(np.array([g.x for g in grams]), ns, axis=0).T
    y = np.repeat(np.array([g.y for g in grams]), ns, axis=0).T
    A = np.concatenate([g.T.matrices for g in grams])
    return _Rows(size, x, y, _row_coefficients_of(A), A, grid)


def _lambda_bound(rows: _Rows, lo: int, hi: int) -> np.ndarray:
    """E of rows lo:hi: a bound on the rounding error of any sample t/|lambda| of rows.grid.

    Built from T's coefficients and the pair's magnitudes alone: K_j is
    the largest |A_jab| of the row's member (which bounds every |C_jab| of
    the kernel; 1 for the multiplication sip), X and Y are sum |x_a| and
    sum |y_a| over the row's column of x and y (for the multiplication
    sip, row j's |x_j| and |y_j|), and S = |lambda|*X + Y bounds sum |z_a|
    for z = lambda*x - y. z rounds twice and the kernel's row form at most
    2m times along any term, so t is within (2m + 5) unit roundoffs of
    2*K*S^2, and t/|lambda| rounds once more; E takes (m + 8)*EPS, more
    than twice that, of 2*K*S^2/|lambda| at the grid's ends, where it is
    largest, plus an allowance for products that underflow.
    """
    x, y, grid = rows.x, rows.y, rows.grid
    if x.shape[1] > 1:
        x, y = x[:, lo:hi], y[:, lo:hi]
    m = x.shape[0]
    K = 1.0 if rows.matrices is None else np.abs(rows.matrices[lo:hi]).max(axis=(1, 2))
    X, Y = np.abs(x).sum(axis=0), np.abs(y).sum(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        S_lo, S_hi = grid.lo * X + Y, grid.hi * X + Y
        scale = np.maximum(2.0 * K * S_lo * S_lo / grid.lo, 2.0 * K * S_hi * S_hi / grid.hi)
        underflow = 2.0 * (m + 2) ** 2 * UNDERFLOW * (1.0 + K) * (1.0 + S_hi) / grid.lo
        return (m + 8) * EPS * scale + underflow


def _lambda_values(rows: _Rows, lo: int, hi: int, lam: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """T(lambda*x - y, lambda*x - y) of rows lo:hi, t, a (hi - lo, width) view of buf.

    lam is the (width,) lambdas every row reads, or the (hi - lo, width)
    lambdas of each row. The difference vectors z, then t and the
    kernel's two work blocks (a row's sum and its current term) are
    consecutive views of buf, which the caller sized; the next call
    overwrites them all. Reads each row's pair and coefficients only,
    never a, b or c: the oracle evaluates T on the difference vectors
    directly, with no bilinear expansion.
    """
    x, y = rows.x, rows.y
    if x.shape[1] > 1:
        x, y = x[:, lo:hi], y[:, lo:hi]
    b, width = hi - lo, lam.shape[-1]
    z_size = x.shape[0] * (x.shape[1] if lam.ndim == 1 else b) * width
    z = buf[:z_size].reshape(x.shape[0], -1, width)
    block = buf[z_size:z_size + 3 * b * width].reshape(3 * b, width)
    np.multiply(x[:, :, None], lam, out=z)
    z -= y[:, :, None]
    if rows.coefficients is None:
        np.multiply(z[0], z[0], out=block[:b])
    else:
        coefficients = rows.coefficients
        if b < rows.size:
            coefficients = [[c[lo:hi] for c in row] for row in coefficients]
        _row_form(coefficients, z, block[:b], block[b:].reshape(2, b, width))
    return block[:b]


def lambda_minima(pairs, grid: LogGrid) -> list:
    """D of each pair: its componentwise minimum over grid.signed of t/|lambda|.

    pairs are Grams, of any sip kinds, m and n; t is T(lambda*x - y,
    lambda*x - y) of a pair, which reads no weight.
    Each row is one codomain coordinate of one pair, and the rows of one
    kernel class share every numpy call (_lambda_rows): the
    multiplication sip's rows form one class, and the PSD rows of each m
    another. Each class is one call of means._fold_grid: two stages where
    its 2G*R elements reach LAMBDA_BRACKET_ELEMENTS, and the whole grid
    for every row of the class where the stages leave one row
    uncertified. Never holds more than a block of T-values, and each row
    has the bits of its pair's full grid alone, so a pair gets the same
    minima in any call.
    verify makes one call per chunk of trials, before the chunk's groups
    are checked (harness._pass_minima), and the oracle study one per grid
    size, so their classes hold many rows, most of which take two stages.
    Over-estimates the infimum D(x,y) by construction.
    """
    pairs = list(pairs)
    classes, places = _lambda_rows(pairs, grid)
    minima = [_fold_grid(rows, LAMBDA_BRACKET_ELEMENTS) for rows in classes]
    return [minima[c][first:first + g.T.codomain_dim] for g, (c, first) in zip(pairs, places)]


def defect_grid(T: Sip, x, y, grid: LogGrid) -> np.ndarray:
    """Componentwise min of |lambda|^-1 T(lambda*x - y, lambda*x - y) over the grid.

    lambda runs over grid.signed. Evaluates T on the difference vectors
    directly, with no bilinear expansion, so this oracle shares nothing
    with the closed form beyond T itself. Over-estimates the true infimum
    by construction. lambda_minima's D of the pair.
    """
    return lambda_minima([Gram(T, x, y)], grid)[0]


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

