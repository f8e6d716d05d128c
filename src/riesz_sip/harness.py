"""Randomized verification harness.

Runs named theorem suites over randomly generated semi-inner-product
instances and aggregates the results into a deterministic JSON report.
Every recipe is generated a chunk at a time (_recipe_chunk): a generic
trial i draws its randomness from np.random.default_rng((seed, i)); the
positive_log and orthogonal recipes draw a chunk of trials at once,
chunk c from default_rng((seed, RECIPE_KEYS[recipe], c)), and a retried
orthogonal trial i from default_rng((seed, 2, c, i)). So a trial's
instance depends on the seed, its recipe, its index and the chunk length
alone, reports are reproducible bit for bit (wall time aside) and any
recorded counterexample can be replayed or shrunk offline from its
serialized instance alone. A check is a deterministic function of
(instance, config): the oracle grids it samples are derived on the
config, and anything else sampled inside a check uses fixed seeds or
fixed scalar sets, never fresh entropy. A check reads a record of
trials, passes it to the library's theorem functions, and only maps the
residuals they return to tolerances: a Trial, the lazy record of one
instance under one config (the instance's Gram, see cauchy_schwarz.Gram,
its lambda-grid minima, from its chunk's one lambda-grid call, and its
axioms residuals, from its chunk's one stacked axioms pass), or a
TrialGroup, the GramStack of k Trials
whose sips share a codomain R^n, on whose stacked values every residual
is a (k,) array with each trial's bits. The means and oracle suites
stack x and y themselves (the oracle suite runs the mean oracles once on
the (k, m) stacks; means takes stacks), so a group whose trials differ
in the domain R^m raises DimensionMismatch there and is checked one
trial at a time; their recipe's trials have m = n, so only injected
instances make such a group.

run_suite is chunked and grouped: for each instance recipe it checks
each chunk exactly as it is generated (_chunks; _chunk_length trials,
TRIAL_CHUNK but for orthogonal chunks of large shapes), groups the
chunk's trials by codomain dimension, runs every selected suite of the
recipe once per group, folds the chunk's results into each suite's
report entry in trial order, and drops the chunk before generating the
next; the injected instances are then checked once, as one more chunk
under every selected suite. The suites of a group share its record, so
each T-value is evaluated once per trial, and at most one chunk of
generated instances is alive. The lambda-grid minima of a chunk's trials
come from one lambda_minima call over every trial whose x and y
validate, made on the first read of any of their minima (a chunk that
no cs or sharp suite checks makes none); a trial left out, whose pair
raises, and a Trial checked on its own (shrink, replay) make their own
calls. Likewise the axioms residuals of a chunk's sips come from one
check_axioms_stack call, made on the first read of any of them: the PSD
families of one m whose contraction is one c_einsum step are stacked
into one contraction per block of columns, and each distinct
multiplication sip is checked once; a Trial checked on its own checks
its sip alone, with the same bits. _check_group is the one caller of
the checks, and every check gives one table (_Table), a row of
residuals per trial. A Trial's check,
as for a group of one trial or each trial of a group with a broken
trial, gives one row, a broken trial the one-row invalid_instance table
and one whose generation gave up the one-row generation table. Each
suite folds a chunk's tables at once, building a TrialResult, a table's
row, only for a trial its entry keeps (the worst instance, the
counterexamples). A Trial's one-row table keeps its row as floats, and
builds its array only when the fold reads it.
replay_counterexample reads one Trial's row. shrink keeps a memo for one
call, from each candidate's read key (the parts of the instance the
check reads, stated once in _READS) to its verdict and, for a failing
one, its TrialResult, and checks only a candidate whose key it does not
hold, reading its status off its one-row table. A candidate that drops a
codomain coordinate takes the current trial's lambda minima without that
row, which are the rows of a fresh pass, bit for bit.

Suite names:

  axioms         semi-inner-product axioms on random families
  cs             Cauchy-Schwarz identity, inequality, defect oracle, and
                 the equality <-> zero-defect biconditional
  means          biadditivity and homogeneity of the lattice means
  vsn            vector seminorm axioms and the square identity
  sharp          sharpened triangle chain in both forms, equality case,
                 and the weighted-defect grid cross-check
  additivity     characterization of equality in the triangle inequality
  pythagoras     norm(x+y) = norm(x) [+] norm(y) for orthogonal pairs
  parallelogram  the square-mean parallelogram law for all pairs
  oracle         closed forms of both means against their grid oracles
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from functools import cache, lru_cache
from itertools import chain, compress
from operator import le, not_
from typing import NamedTuple

import numpy as np

from .lattice import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DimensionMismatch,
    NonFinite,
    NotInPositiveCone,
    _finite,
    _nan_first,
    as_lattice_vector,
    fold,
    lazy,
    rel_residual,
)
from .means import (
    ANGLE_COUNT,
    THETA_COUNT,
    THETA_HI,
    THETA_LO,
    AngleGrid,
    LogGrid,
    _box_plus,
    _box_plus_oracle,
    _box_times,
    box_plus_gaps,
    # Not called here since the means suite runs the kernels; perfbench's
    # tracer test reads the binding harness.box_times.
    box_times,
    box_times_gaps,
    theta_minimizer,
)
from .cauchy_schwarz import (
    CONE_BAND,
    INEQ_FLOOR,
    LAMBDA_COUNT,
    LAMBDA_HI,
    LAMBDA_LO,
    Gram,
    GramStack,
    cs_verdict,
    defect_gaps,
    lambda_minima,
)
from .seminorms import (
    CHAIN_FLOOR,
    additivity_verdict,
    orthogonality,
    parallelogram_sides,
    pythagoras_sides,
    seminorm_residuals,
    sharp_verdict,
    weighted_defect_gaps,
)
from .sip import (
    MultiplicationSip,
    ORTHOGONAL,
    PsdFamilySip,
    _upper_pairs,
    check_axioms,
    check_axioms_stack,
    orthogonal_stack,
    random_psd,
)

REPORT_SCHEMA = "riesz-sip/1"

THEOREMS = ("axioms", "cs", "means", "vsn", "sharp", "additivity",
            "pythagoras", "parallelogram", "oracle")

# Pinned check tolerances beyond the config-level rel/abs/cone_band.
DEFECT_GAP_REL_TOL = 1e-4   # lambda-grid over-estimate of the defect
BT_GAP_REL_TOL = 1e-3       # theta-grid over-estimate of the [*] infimum
BP_GAP_REL_TOL = 1e-5       # angle-grid under-estimate of the [+] supremum
QUARTER_REL_TOL = 1e-12     # quarter- vs full-circle [+] oracle on F+
MEANS_REL_TOL = 1e-10       # mean biadditivity/homogeneity identities
SQUARE_REL_TOL = 1e-10      # norm(x)^2 vs T(x,x)*u
SANDWICH_FLOOR = 1e-10      # one-sided oracle bounds
PRECOND_TOL = 1e-10         # orthogonality precondition
BICOND_TOL = 0.5            # indicator residuals are 0 or 1
AXIOM_SAMPLES = 64
MAX_COUNTEREXAMPLES = 10
MAX_GRID_COUNT = 10**6      # points per grid, so that no grid exhausts memory
# Trials of a generated chunk (_chunk_length). run_suite checks a chunk's
# trials in groups of one codomain dimension.
TRIAL_CHUNK = 256


class ConfigError(ValueError):
    """Invalid verification configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class Tolerances:
    rel: float = DEFAULT_REL_TOL
    abs: float = DEFAULT_ABS_TOL
    cone_band: float = CONE_BAND

    def validate(self) -> None:
        if not (0.0 < self.rel < 1.0 and 0.0 < self.abs < 1.0
                and 0.0 < self.cone_band < 1.0):
            raise ConfigError("tolerances must lie strictly between 0 and 1")


@dataclass(frozen=True)
class TrialConfig:
    """Everything a verification run depends on, hence everything a report echoes."""

    seed: int = 0
    trials: int = 10_000
    m_lo: int = 2
    m_hi: int = 6
    n_lo: int = 1
    n_hi: int = 4
    entry_hi: float = 10.0
    u_hi: float = 10.0
    log_entry_lo: float = 1e-3
    log_entry_hi: float = 1e3
    tolerances: Tolerances = field(default_factory=Tolerances)
    theta_lo: float = THETA_LO
    theta_hi: float = THETA_HI
    theta_count: int = THETA_COUNT
    angle_count: int = ANGLE_COUNT
    lambda_lo: float = LAMBDA_LO
    lambda_hi: float = LAMBDA_HI
    lambda_count: int = LAMBDA_COUNT
    theorems: tuple = THEOREMS

    def __post_init__(self):
        object.__setattr__(self, "theorems", tuple(self.theorems))
        self.validate()

    def validate(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not (1 <= self.m_lo <= self.m_hi <= 64):
            raise ConfigError("domain dimension range must satisfy 1 <= lo <= hi <= 64")
        if not (1 <= self.n_lo <= self.n_hi <= 64):
            raise ConfigError("codomain dimension range must satisfy 1 <= lo <= hi <= 64")
        # numpy's uniform refuses a range of infinite width, such as
        # (-entry_hi, entry_hi) past half the largest float, with a bare
        # OverflowError.
        if not (0.0 < self.entry_hi <= sys.float_info.max / 2 and 0.0 < self.u_hi < math.inf):
            raise ConfigError("entry ranges must be positive, of finite width")
        if not (0.0 < self.log_entry_lo < self.log_entry_hi < math.inf):
            raise ConfigError("log-uniform entry range must satisfy 0 < lo < hi < inf")
        self.tolerances.validate()
        # A count read from a counterexample's params may be any JSON number.
        if not all(isinstance(c, numbers.Integral) and c <= MAX_GRID_COUNT
                   for c in (self.theta_count, self.angle_count, self.lambda_count)):
            raise ConfigError(f"grid counts must be integers of at most {MAX_GRID_COUNT}")
        if not (0.0 < self.theta_lo < self.theta_hi < math.inf and self.theta_count >= 2):
            raise ConfigError("invalid theta grid")
        if self.angle_count < 4:
            raise ConfigError("invalid angle grid")
        if not (0.0 < self.lambda_lo < self.lambda_hi < math.inf and self.lambda_count >= 2):
            raise ConfigError("invalid lambda grid")
        unknown = set(self.theorems) - set(THEOREMS)
        if unknown:
            raise ConfigError(f"unknown theorems: {sorted(unknown)}")
        duplicate = {t for t in self.theorems if self.theorems.count(t) > 1}
        if duplicate:
            raise ConfigError(f"duplicate theorems: {sorted(duplicate)}")
        if "pythagoras" in self.theorems and not any(self.orthogonal_recipes):
            raise ConfigError("pythagoras trials need m > n possible or codomain dim >= 2")
        if "pythagoras" in self.theorems and self.entry_hi < 0.5:
            # orthogonal generation scales y by a factor drawn from [0.5, entry_hi]
            raise ConfigError("pythagoras trials need entry_hi >= 0.5")

    @property
    def orthogonal_recipes(self) -> tuple:
        """(psd, multiplication): which orthogonal-pair recipes the dimension ranges allow.

        A PSD family has a nontrivial orthogonal pair when m > n; the
        multiplication sip when x can vanish on a proper part of n >= 2
        coordinates.
        """
        return self.m_hi > self.n_lo, self.n_hi >= 2

    # The grids are built on first read and kept; they are not fields, so
    # asdict, ==, hash and replace ignore them.

    @lazy
    def theta_grid(self) -> LogGrid:
        """Multipliers of the [*] infimum's oracle."""
        return _grid(LogGrid.log_spaced, self.theta_lo, self.theta_hi, self.theta_count)

    @lazy
    def angle_grid(self) -> AngleGrid:
        """Angles of the [+] supremum's oracle."""
        return _grid(AngleGrid.uniform, self.angle_count)

    @lazy
    def lambda_grid(self) -> LogGrid:
        """lambda magnitudes of the defect's oracle."""
        return _grid(LogGrid.log_spaced, self.lambda_lo, self.lambda_hi, self.lambda_count)


def _grid(build, *args):
    """build(*args), a ConfigError when the grid cannot be built.

    Ranges that pass validate can still be too narrow for their count in
    floating point, and a ValueError raised inside a check would otherwise
    read as a broken instance.
    """
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"cannot build grid: {exc}") from None


# The TrialConfig fields the grids are built from, hence the grid part of
# a counterexample's params.
GRID_FIELDS = ("theta_lo", "theta_hi", "theta_count", "angle_count",
               "lambda_lo", "lambda_hi", "lambda_count")


@dataclass(frozen=True)
class Instance:
    sip: object
    u: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @property
    def kind(self) -> str:
        return "multiplication" if isinstance(self.sip, MultiplicationSip) else "psd_family"

    def to_dict(self) -> dict:
        """The instance format: the sip's kind, m, n (and matrices), then u, x, y."""
        T = self.sip
        d = {"kind": self.kind, "m": T.domain_dim, "n": T.codomain_dim}
        if isinstance(T, PsdFamilySip):
            d["matrices"] = T.matrices.tolist()
        for key in ("u", "x", "y"):
            d[key] = np.asarray(getattr(self, key), dtype=np.float64).tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        """Inverse of to_dict.

        Neither PSD-ness nor symmetry of a family is validated, and the
        dimensions of u/x/y are not cross-checked: deserialized instances
        are the fault-injection surface, so broken ones must load and fail
        in the checks. Non-finite entries, of u/x/y and of the matrices,
        are rejected: NaN cannot participate in tolerance comparisons
        meaningfully.
        """
        vecs = {}
        for key in ("u", "x", "y"):
            v = np.asarray(d[key], dtype=np.float64)
            if v.ndim != 1:
                raise DimensionMismatch(f"instance field {key!r} must be a vector")
            vecs[key] = _finite(v)
        m, n = d["m"], d["n"]
        # int() would truncate 2.7 and read True or "2" as a dimension
        if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool) for k in (m, n)):
            raise DimensionMismatch(f"m and n must be integers, got m={m!r}, n={n!r}")
        kind = d.get("kind")
        if kind == "multiplication":
            if m != n:
                raise DimensionMismatch("multiplication sip requires m == n")
            T = MultiplicationSip(int(n))
        elif kind == "psd_family":
            A = np.asarray(d["matrices"], dtype=np.float64)
            if A.shape != (n, m, m):
                raise DimensionMismatch(f"matrices shape {A.shape} does not match m={m}, n={n}")
            if not np.isfinite(A).all():
                raise NonFinite("matrix entries must be finite")
            T = PsdFamilySip(A, validate=False)
        else:
            raise ValueError(f"unknown sip kind: {kind!r}")
        return cls(sip=T, **vecs)


# Instance recipe per suite: generic signed draws, positive log-uniform
# draws for the mean identities and oracles, orthogonal pairs for the
# Pythagorean identity.
PURPOSES = {
    "axioms": "generic",
    "cs": "generic",
    "means": "positive_log",
    "vsn": "generic",
    "sharp": "generic",
    "additivity": "generic",
    "pythagoras": "orthogonal",
    "parallelogram": "generic",
    "oracle": "positive_log",
}


# Random signs: a block of rng.integers(0, 2) indexes this.
_SIGNS = np.array([-1.0, 1.0])

# The positive_log and orthogonal recipes draw a chunk of trials at once:
# chunk c of a recipe draws from default_rng((seed, RECIPE_KEYS[recipe], c)).
# An orthogonal chunk holds at most RECIPE_CHUNK_FLOATS entries of its
# drawn matrices, n_hi * m_hi^2 per trial.
RECIPE_KEYS = {"positive_log": 1, "orthogonal": 2}
RECIPE_CHUNK_FLOATS = 2**17
ORTHOGONAL_ATTEMPTS = 100


def _random_weight(rng: np.random.Generator, n: int, u_hi: float) -> np.ndarray:
    u = rng.uniform(0.0, u_hi, n)
    r = rng.random()
    if r < 0.02:
        u = np.zeros(n)  # fully degenerate weight
    elif r < 0.15:
        k = int(rng.integers(1, n + 1))
        u[rng.choice(n, size=min(k, n), replace=False)] = 0.0
    return u


def _chunk_length(config: TrialConfig, purpose: str) -> int:
    """The trials of one chunk of a recipe under config: the one owner of the chunk length.

    TRIAL_CHUNK, and for orthogonal draws at most RECIPE_CHUNK_FLOATS //
    (n_hi * m_hi^2), at least 1: the chunk's draw of PSD factors B is one
    (length, min(n_hi, m_hi - 1), m_hi, m_hi) block.
    """
    if purpose == "orthogonal":
        per_trial = config.n_hi * config.m_hi ** 2
        return max(1, min(TRIAL_CHUNK, RECIPE_CHUNK_FLOATS // per_trial))
    return TRIAL_CHUNK


def generate_instance(config: TrialConfig, trial_index: int) -> Instance:
    """Deterministic generic instance for one trial, keyed by (seed, trial_index).

    Generic draws mix both sip kinds and bias a quarter of the pairs to
    colinear y and (for the multiplication sip) a quarter to positive-cone
    pairs, so equality branches of the biconditionals appear with
    non-negligible frequency; they come from default_rng((seed,
    trial_index)). positive_log and orthogonal trials are built a chunk at
    a time (_recipe_chunk).
    """
    rng = np.random.default_rng((config.seed, trial_index))
    mult = rng.random() < 0.5
    n = int(rng.integers(config.n_lo, config.n_hi + 1))
    if mult:
        m = n
        T = MultiplicationSip(n)
    else:
        m = int(rng.integers(config.m_lo, config.m_hi + 1))
        T = random_psd(rng, m, n)
    u = _random_weight(rng, n, config.u_hi)
    x = rng.uniform(-config.entry_hi, config.entry_hi, m)
    style = rng.random()
    if style < 0.25:
        y = float(rng.uniform(-3.0, 3.0)) * x
    elif style < 0.5 and mult:
        x = np.abs(x)
        y = rng.uniform(0.0, config.entry_hi, m)
    else:
        y = rng.uniform(-config.entry_hi, config.entry_hi, m)
    return Instance(sip=T, u=u, x=x, y=y)


def _recipe_chunk(config: TrialConfig, purpose: str, c: int, stop: int) -> list:
    """Trials 0..stop-1 of chunk c of a recipe, None where generation gave up.

    The one builder of generated trials. Chunk c holds trials c*L to c*L +
    L - 1, L = _chunk_length(config, purpose). A generic trial draws alone
    from its own key (generate_instance). A positive_log or orthogonal
    chunk draws every variate of its trials as one block of fixed shape
    from default_rng((seed, RECIPE_KEYS[purpose], c)), in the order
    _positive_log_draws and _orthogonal_chunk state, and a trial reads its
    row, sliced to its n and m. So a trial's instance depends on the seed,
    the recipe, its index and the chunk length, and not on which trials
    are built. positive_log draws signed entries with log-uniform
    magnitudes on the multiplication sip, the stress regime for the grid
    oracles. orthogonal trials are pairs with T(x, y) = 0, PSD families
    with m > n for 70% of them where both kinds are possible; a trial whose
    pair fails draws attempt after attempt, up to ORTHOGONAL_ATTEMPTS in
    all, each a chunk of one trial, from default_rng((seed,
    RECIPE_KEYS["orthogonal"], c, trial_index)).
    """
    length = _chunk_length(config, purpose)
    if purpose == "generic":
        return [generate_instance(config, c * length + j) for j in range(stop)]
    key = (config.seed, RECIPE_KEYS[purpose], c)
    rng = np.random.default_rng(key)
    if purpose == "positive_log":
        n, x, y, u = _positive_log_draws(rng, config, length)
        return [Instance(MultiplicationSip(k), u[j, :k], x[j, :k], y[j, :k])
                for j, k in enumerate(n[:stop].tolist())]
    insts = _orthogonal_chunk(rng, config, length, stop)
    for j, inst in enumerate(insts):
        if inst is None:
            retry = np.random.default_rng((*key, c * length + j))
            for _ in range(ORTHOGONAL_ATTEMPTS - 1):
                inst, = _orthogonal_chunk(retry, config, 1, 1)
                if inst is not None:
                    insts[j] = inst
                    break
    return insts


def _positive_log_draws(rng: np.random.Generator, config: TrialConfig, length: int) -> tuple:
    """A positive_log chunk's blocks, in draw order: n, then x, y and u as (length, n_hi) rows."""
    lo, hi = np.log10(config.log_entry_lo), np.log10(config.log_entry_hi)
    shape = (length, config.n_hi)
    n = rng.integers(config.n_lo, config.n_hi + 1, length)
    x = _SIGNS[rng.integers(0, 2, shape)] * 10.0 ** rng.uniform(lo, hi, shape)
    y = _SIGNS[rng.integers(0, 2, shape)] * 10.0 ** rng.uniform(lo, hi, shape)
    u = rng.uniform(0.0, config.u_hi, shape)
    return n, x, y, u


def _orthogonal_chunk(rng: np.random.Generator, config: TrialConfig, length: int,
                      stop: int) -> list:
    """The orthogonal pairs of rows 0..stop-1 of a chunk of length rows drawn from rng.

    None where a pair fails. The chunk's blocks, in draw order, with w =
    max(m_hi, n_hi): the kind (uniform r < 0.7 is PSD where both kinds are
    possible); for PSD families n in [n_lo, n_psd], n_psd = min(n_hi,
    m_hi - 1), then m in [max(m_lo, n + 1), m_hi] and the factors B, one
    (length, n_psd, m_hi, m_hi) block with entries in [-1, 1]; for
    multiplication sips n in [max(n_lo, 2), n_hi], the size k in [1, n - 1]
    of x's zero support and a uniform key per coordinate (the support is
    the k smallest keys of the first n); then x and g (standard normal,
    y's coordinates in the kernel) as (length, w) rows, the scale (y's sup
    norm) and u as (length, n_hi) rows. The blocks of a kind the dimension
    ranges rule out are not drawn.

    A PSD family is A_j = B_j' B_j, random_psd's formula, of the top-left
    (m, m) block of each of the first n factors, summed over k in order
    (so exactly symmetric, with no symmetrization); past n and m the stack
    holds zeros, so every PSD pair of the rows goes to one
    orthogonal_stack call. x is its row cut to m, and a multiplication
    sip's x is 0 on its zero support; y is orthogonal_stack's vector times
    the scale.
    """
    psd_possible, mult_possible = config.orthogonal_recipes
    m_hi, n_hi = config.m_hi, config.n_hi
    w = max(m_hi, n_hi)
    r = rng.random(length)
    psd = r < 0.7 if psd_possible and mult_possible else np.full(length, psd_possible)
    n = np.zeros(length, dtype=np.int64)
    m = np.zeros(length, dtype=np.int64)
    B = zero = None
    if psd_possible:
        n_psd = min(n_hi, m_hi - 1)
        n_p = rng.integers(config.n_lo, n_psd + 1, length)
        m_p = rng.integers(np.maximum(config.m_lo, n_p + 1), m_hi + 1)
        B = rng.uniform(-1.0, 1.0, (length, n_psd, m_hi, m_hi))
        n[psd], m[psd] = n_p[psd], m_p[psd]
    if mult_possible:
        n_m = rng.integers(max(config.n_lo, 2), n_hi + 1, length)
        size = rng.integers(1, n_m)
        keys = np.where(np.arange(w) < n_m[:, None], rng.random((length, w)), np.inf)
        zero = keys.argsort(axis=1).argsort(axis=1) < size[:, None]
        n[~psd] = m[~psd] = n_m[~psd]
    x = rng.uniform(-config.entry_hi, config.entry_hi, (length, w))
    g = rng.standard_normal((length, w))
    scale = rng.uniform(0.5, config.entry_hi, length)
    u = rng.uniform(0.0, config.u_hi, (length, n_hi))

    rows = slice(stop)
    psd, n, m, x, g, scale, u = psd[rows], n[rows], m[rows], x[rows], g[rows], scale[rows], u[rows]
    X = np.where(np.arange(w) < m[:, None], x, 0.0)
    Y = np.empty_like(X)
    ok = np.zeros(len(psd), dtype=bool)
    if psd.any():
        inside = np.arange(m_hi) < m[psd, None]
        member = np.arange(B.shape[1]) < n[psd, None]
        mask = member[:, :, None, None] & inside[:, None, :, None] & inside[:, None, None, :]
        B = np.where(mask, B[rows][psd], 0.0)
        A = B[:, :, 0, :, None] * B[:, :, 0, None, :]
        for k in range(1, m_hi):
            A += B[:, :, k, :, None] * B[:, :, k, None, :]
        Yp, status = orthogonal_stack(A, X[psd, :m_hi], g[psd, :m_hi], dims=m[psd])
        Y[psd, :m_hi], ok[psd] = Yp, status == ORTHOGONAL
    if not psd.all():
        q = ~psd
        X[q] = np.where(zero[rows][q], 0.0, X[q])
        Y[q], status = orthogonal_stack(None, X[q], g[q], dims=m[q])
        ok[q] = status == ORTHOGONAL
    family = (np.cumsum(psd) - 1).tolist()  # a PSD row's place in A
    insts = []
    for j, (good, is_psd, n_j, m_j, scale_j) in enumerate(zip(
            ok.tolist(), psd.tolist(), n.tolist(), m.tolist(), scale.tolist())):
        if not good:
            insts.append(None)
            continue
        T = (PsdFamilySip(A[family[j], :n_j, :m_j, :m_j].copy(), validate=False) if is_psd
             else MultiplicationSip(n_j))
        insts.append(Instance(sip=T, u=u[j, :n_j], x=X[j, :m_j], y=Y[j, :m_j] * scale_j))
    return insts


class TrialResult(NamedTuple):
    status: str  # pass | fail | borderline
    residuals: dict
    tols: dict
    failed: tuple
    tags: tuple = ()


def _column(values, k: int) -> list:
    """values as k Python values: a list or (k,) array of one per trial, or one for every trial."""
    if isinstance(values, list):
        return values
    values = np.asarray(values)
    return values.tolist() if values.ndim else [values.item()] * k


class _Table:
    """The results of k trials under one check, as columns: what every check gives.

    names are the check names, in the check's order, and tols their
    tolerances; rows holds each trial's residuals as a list of floats, and
    residuals is the same as a (k, len(names)) float64 array; borderline
    a list of k bools; tags a tuple of tag columns, each a list of k
    values, a None being no tag. A group's table is built from its array,
    and a Trial's, a table of one row, from its row (a list of one list),
    whose array is built only if the report fold reads it. passed and
    status, which row and the report fold read, are the one statement of
    which trials pass; row(i), the only builder of a TrialResult, is trial
    i's result.
    """

    def __init__(self, names: tuple, tols: tuple, residuals, borderline: list, tags: tuple = ()):
        self.names, self.tols = names, tols
        self.borderline, self.tags = borderline, tags
        if isinstance(residuals, list):
            self.rows = residuals
        else:
            self.residuals, self.rows = residuals, residuals.tolist()
        # v <= tol, not v > tol, so that a NaN residual fails
        self.passed = [list(map(le, row, tols)) for row in self.rows]
        self.status = ["fail" if not all(passed) else "borderline" if border else "pass"
                       for passed, border in zip(self.passed, borderline)]

    @lazy
    def residuals(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.float64)

    def row(self, i: int) -> TrialResult:
        names = self.names
        return TrialResult(self.status[i], dict(zip(names, self.rows[i])),
                           dict(zip(names, self.tols)),
                           tuple(sorted(compress(names, map(not_, self.passed[i])))),
                           tuple([t[i] for t in self.tags if t[i] is not None]))


def _results(rec, checks: dict, borderline=False, tags: tuple = ()) -> _Table:
    """The _Table of rec's k trials (k = 1 for a Trial), from {check name: (residuals, tolerance)}.

    Each check's residuals hold one value per trial (a (k,) array or a
    list, or a scalar for a Trial); borderline and each tag column hold
    one per trial or one for every trial, a None tag being no tag. A
    Trial's row is kept as floats, so its check builds no 2-D array.
    """
    k = len(rec.pairs)
    values, tols = zip(*checks.values())
    residuals = ([list(map(_float, values))] if isinstance(rec, Trial) else
                 np.array(values, dtype=np.float64).reshape(len(checks), k).T)
    return _Table(tuple(checks), tols, residuals,
                  _column(borderline, k), tuple(_column(t, k) for t in tags))


def _float(value) -> float:
    """A Trial's residual as a float with the bits of its float64: a bool is 1.0 or 0.0.

    value is a float, a numpy scalar or 0-d array, or a list of one (the
    axioms suite gives a list per record).
    """
    return float(value[0] if type(value) is list else value)


@cache
def _unchecked(name: str) -> _Table:
    """The one-row table, one per name, of a trial that could not be checked: name fails."""
    return _Table((name,), (BICOND_TOL,), [[1.0]], [False])


def _mismatch(borderline, agreed):
    """Indicator residual of a biconditional; borderline trials never count."""
    return np.where(borderline | agreed, 0.0, 1.0)


def _branch(holds):
    return np.where(holds, "equality", "strict")


_BROKEN_INPUT = (DimensionMismatch, NotInPositiveCone, NonFinite)


class Trial(Gram):
    """One instance under one config: the lazy record every suite of a trial reads.

    A Trial is the Gram of the instance's pair under its weight (x, y, u,
    a, b, c, the defect, the seminorm values) plus the two minima of the
    defect oracles, D and D*u, from a lambda-grid pass that keeps no
    samples, and the axioms residuals of its sip. Each of the last two
    comes from its whole chunk's one pass of that value (_share_minima)
    when it has one (for the minima, when its pair validates), else from
    its own call. Each value is computed once, on first read, and shared
    by every suite that reads it. A value that raises is not kept
    (lattice.lazy), so every suite raises on exactly the values it reads,
    as it would alone. A check reads a Trial as the group of one trial:
    its values have no trial axis, and the check gives a table of one row.
    """

    # The chunk's shared passes that have not run: one dict for the chunk,
    # from the name of a value to the trials, this one among them, that
    # take it from its pass (_share_minima); the first read of the value
    # pops its entry and runs the pass. None for a lone trial.
    _pending = None

    def __init__(self, inst: Instance, config: TrialConfig):
        super().__init__(inst.sip, inst.x, inst.y, inst.u)
        self.inst = inst
        self.config = config

    @property
    def _weight(self):
        """The validated weight, or None where it does not validate."""
        try:
            return self.u
        except _BROKEN_INPUT:
            return None

    def _from_pass(self, name: str, run):
        """This trial's value of name from its chunk's pass, or None if it has none.

        The first read of name by any trial of the chunk pops the pass
        from the pending dict and runs run(trials).
        """
        trials = self._pending and self._pending.pop(name, None)
        if trials:
            run(trials)
        return vars(self).get(name)

    @lazy
    def minima(self) -> tuple:
        """lambda_minima of the pair under its weight on config.lambda_grid.

        The trials pending a shared pass get theirs from it, the first
        read of any of them making it (_pass_minima); a trial that is
        not in it, or alone, makes its own call, which raises where its
        pair does. A broken weight leaves D*u None and D as it is: cs
        never reads u, and sharp reads u first, so it raises there.
        """
        kept = self._from_pass("minima", _pass_minima)
        if kept is None:
            kept = lambda_minima([self], self.config.lambda_grid, [self._weight])[0]
        return kept

    @lazy
    def axioms(self) -> dict:
        """check_axioms of the sip at AXIOM_SAMPLES, seed 0 and the config's absolute floor.

        The trials of a chunk get theirs from one check_axioms_stack call,
        the first read of any of them making it (_pass_axioms); a lone
        trial checks its sip alone, with the same bits.
        """
        kept = self._from_pass("axioms", _pass_axioms)
        if kept is None:
            kept = check_axioms(self.T, AXIOM_SAMPLES, floor=self.config.tolerances.abs)
        return kept


def _share_minima(trials) -> None:
    """Let trials, of one config, take their lambda minima and their axioms each from one pass.

    Each pass is made on the first read of its value by any of them.
    """
    trials = list(trials)
    pending = {"minima": trials, "axioms": trials}
    for t in trials:
        t._pending = pending


def _pass_minima(trials: list) -> None:
    """Give each of trials whose x and y validate its minima, from one lambda_minima call.

    Each has its validated weight, or None; a row's minima are the bits
    of its pair's call alone (cauchy_schwarz.lambda_minima). The pass is
    popped from the pending dict first, so the others, and every trial if
    the call raises, make their own calls.
    """
    covered = []
    for t in trials:
        try:
            t.x, t.y
        except _BROKEN_INPUT:
            continue
        covered.append(t)
    if covered:
        minima = lambda_minima(covered, covered[0].config.lambda_grid,
                               [t._weight for t in covered])
        for t, m in zip(covered, minima):
            t.minima = m


def _pass_axioms(trials: list) -> None:
    """Give each of trials its axioms residuals, from one check_axioms_stack call over their sips."""
    floor = trials[0].config.tolerances.abs
    for t, residuals in zip(trials, check_axioms_stack([t.T for t in trials], AXIOM_SAMPLES,
                                                       floor=floor)):
        t.axioms = residuals


class TrialGroup(GramStack):
    """Trials of one config whose sips share the codomain R^n: the record a group check reads.

    The GramStack of the trials: each trial evaluates its own values once,
    and the group stacks them on first read, so a suite stacks only what
    it reads and computes every residual as a (k,) array, with each
    trial's bits; the mean oracles run once on the stacked x and y.
    The axioms and defect checks read the trials, group.pairs, for their
    axioms residuals and lambda-grid minima, which the trials take from
    their chunk's one pass of each.
    """

    def __init__(self, trials, config: TrialConfig):
        super().__init__(trials)
        self.config = config


# The checks. Each reads a TrialGroup or a Trial and gives the table of
# its trials (_results): the library computes the residuals on the
# stacked values, and a check only maps them to tolerances.

def check_axioms_trials(rec) -> _Table:
    # Each trial's residuals come from its chunk's one stacked pass
    # (Trial.axioms), in which each distinct multiplication sip is checked
    # once, since its residuals depend on n alone.
    rows = [t.axioms for t in rec.pairs]
    rel = rec.config.tolerances.rel
    return _results(rec, {k: ([r[k] for r in rows], rel) for k in rows[0]},
                    tags=([t.inst.kind for t in rec.pairs],))


def check_cs_trials(rec) -> _Table:
    tol = rec.config.tolerances
    chk = cs_verdict(rec, band=tol.cone_band, floor=tol.abs)
    sandwich, gap = defect_gaps(rec, rec.each(lambda t: t.minima[0]), tol.abs)
    return _results(rec, {
        "identity": (chk.identity, tol.rel),
        "inequality": (chk.inequality, INEQ_FLOOR),
        "defect_sandwich": (sandwich, SANDWICH_FLOOR),
        "defect_gap": (gap, DEFECT_GAP_REL_TOL),
        "equality_iff_defect_zero": (
            _mismatch(chk.borderline, chk.equality_holds == chk.defect_zero), BICOND_TOL),
    }, borderline=chk.borderline, tags=(_branch(chk.equality_holds),))


# The fixed multipliers lam of the means suite's homogeneity identities,
# as a column; |x_0| is the fifth.
_MEANS_LAMBDAS = np.array([[0.0], [0.5], [1.0], [4.0]])


def check_means_trials(rec) -> _Table:
    # The suite states identities of the means on the validated x, y and
    # on u as a vector of their lattice, not the weight of T's codomain;
    # the kernel still catches a + b or lam*a overflowing.
    x, y = rec.x, rec.y
    a, b = np.abs(x), np.abs(y)
    floor = rec.config.tolerances.abs
    # One call evaluates the 14 geometric means of the rows of left and
    # right: (a+b)[*]c, a[*]c, b[*]c, a[*]b, then (lam*a)[*]b and
    # a[*](lam*b) for each lam.
    left, right = np.empty((2, 14) + a.shape)
    np.add(a, b, out=left[0])
    left[1] = left[3] = left[9:] = a
    left[2] = right[3:9] = b
    right[:3] = rec.each(lambda t: as_lattice_vector(t.inst.u, t.x.size))
    # |x_0| adds a scalar that depends on the data, yet keeps the check a
    # pure function of the instance.
    lam = np.empty((5,) + a[..., :1].shape)
    lam.reshape(5, -1)[:4] = _MEANS_LAMBDAS
    lam[4] = a[..., :1]
    np.multiply(lam, a, out=left[4:9])
    np.multiply(lam, b, out=right[9:])
    means = _box_times(left, right, floor)
    biadd = rel_residual(means[0], _box_plus(means[1], means[2]), floor=floor)
    ref = np.sqrt(lam) * means[3]
    # Every residual is +0.0, positive or NaN, so the NaN-first maximum of
    # the ten, folded into 0.0, is the fold of them one by one.
    hom = fold(0.0, np.concatenate((rel_residual(means[4:9], ref, floor=floor),
                                    rel_residual(means[9:], ref, floor=floor))).max(axis=0))
    return _results(rec, {"biadditivity": (biadd, MEANS_REL_TOL),
                          "homogeneity": (hom, MEANS_REL_TOL)})


def check_vsn_trials(rec) -> _Table:
    tol = rec.config.tolerances
    tols = {"positivity": tol.rel, "homogeneity": tol.rel, "triangle": tol.rel,
            "square": SQUARE_REL_TOL}
    residuals = seminorm_residuals(rec, floor=tol.abs)
    return _results(rec, {k: (v, tols[k]) for k, v in residuals.items()})


def check_sharp_trials(rec) -> _Table:
    tol = rec.config.tolerances
    st = sharp_verdict(rec, band=tol.cone_band, floor=tol.abs)
    sandwich, gap = weighted_defect_gaps(rec, rec.each(lambda t: t.minima[1]), tol.abs)
    return _results(rec, {
        "chain": (st.chain, CHAIN_FLOOR),
        "equality_iff_positive": (
            _mismatch(st.borderline, st.equality_holds == st.condition_holds), BICOND_TOL),
        "weighted_sandwich": (sandwich, SANDWICH_FLOOR),
        "weighted_gap": (gap, DEFECT_GAP_REL_TOL),
    }, borderline=st.borderline, tags=(_branch(st.equality_holds),))


def check_additivity_trials(rec) -> _Table:
    tol = rec.config.tolerances
    ac = additivity_verdict(rec, band=tol.cone_band, floor=tol.abs)
    agreed = ac.additive == (ac.condition_pos & ac.condition_defect_zero)
    tags = (
        np.where(ac.additive, "additive", "nonadditive"),
        np.where(ac.condition_pos, "cond_pos_true", "cond_pos_false"),
        np.where(ac.condition_defect_zero, "cond_defect_true", "cond_defect_false"),
    )
    return _results(rec, {"characterization": (_mismatch(ac.borderline, agreed), BICOND_TOL)},
                    borderline=ac.borderline, tags=tags)


def check_pythagoras_trials(rec) -> _Table:
    tol = rec.config.tolerances
    # The identity is only asserted, and its seminorms only evaluated,
    # where the orthogonality hypothesis holds (NaN included); u is read
    # first, so that a broken weight fails the suite either way.
    rec.u
    pre = orthogonality(rec, floor=tol.abs)
    ident = rec.where(~(pre > PRECOND_TOL),
                      lambda held: rel_residual(*pythagoras_sides(held), floor=tol.abs))
    return _results(rec, {"orthogonality": (pre, PRECOND_TOL), "identity": (ident, tol.rel)},
                    tags=([t.inst.kind for t in rec.pairs],))


def check_parallelogram_trials(rec) -> _Table:
    tol = rec.config.tolerances
    sides = parallelogram_sides(rec)
    return _results(rec, {"identity": (rel_residual(*sides, floor=tol.abs), tol.rel)},
                    tags=([t.inst.kind for t in rec.pairs],))


def check_oracle_trials(rec) -> _Table:
    tol = rec.config.tolerances
    theta, angle = rec.config.theta_grid, rec.config.angle_grid
    x, y = rec.x, rec.y
    u, v = np.abs(x), np.abs(y)
    bt_sandwich, bt_gap = box_times_gaps(u, v, theta, tol.abs)
    # Outside the grid's range the theta oracle's over-estimate is not
    # tight, so its gap is not asserted there.
    covered = theta.covers(theta_minimizer(u, v))
    bp_sandwich, bp_gap = box_plus_gaps(x, y, angle, tol.abs)
    quarter = rel_residual(_box_plus_oracle(u, v, angle),
                           _box_plus_oracle(u, v, angle, quarter=True), floor=tol.abs)
    return _results(rec, {
        "box_times_sandwich": (bt_sandwich, SANDWICH_FLOOR),
        "box_times_gap": (np.where(covered, bt_gap, 0.0), BT_GAP_REL_TOL),
        "box_plus_sandwich": (bp_sandwich, SANDWICH_FLOOR),
        "box_plus_gap": (bp_gap, BP_GAP_REL_TOL),
        "quarter_circle": (quarter, QUARTER_REL_TOL),
    }, tags=(np.where(covered, None, "minimizer_not_covered"),))


CHECKS = {
    "axioms": check_axioms_trials,
    "cs": check_cs_trials,
    "means": check_means_trials,
    "vsn": check_vsn_trials,
    "sharp": check_sharp_trials,
    "additivity": check_additivity_trials,
    "pythagoras": check_pythagoras_trials,
    "parallelogram": check_parallelogram_trials,
    "oracle": check_oracle_trials,
}


def _run_check(theorem: str, trial: Trial) -> TrialResult:
    """theorem's result of one trial; the one place that rejects an unknown check name."""
    if theorem not in CHECKS:
        raise ConfigError(f"unknown check {theorem!r}; choose from {sorted(CHECKS)}")
    return _check_group(theorem, trial, [0])[0][1].row(0)


def _check_group(theorem: str, rec, idx: list) -> list:
    """theorem's results of rec's trials, idx their positions, as (positions, _Table) pairs.

    The one caller of CHECKS. rec is a TrialGroup, or a Trial, the record
    of one trial. A broken instance (fault injection) makes the check
    raise: a trial checked alone is then invalid_instance, counted as a
    failure and never silently skipped, and a group is checked again one
    trial at a time, so exactly its broken trials become invalid_instance
    and the others keep their results. Any other exception is a fault and
    propagates.
    """
    try:
        return [(idx, CHECKS[theorem](rec))]
    except _BROKEN_INPUT:
        if len(idx) == 1:
            return [(idx, _unchecked("invalid_instance"))]
        return [part for i, trial in zip(idx, rec.pairs)
                for part in _check_group(theorem, trial, [i])]


def params_from_config(config: TrialConfig) -> dict:
    """The tolerances and grids a check depends on, as stored in a counterexample."""
    return {"tolerances": asdict(config.tolerances),
            "grids": {k: getattr(config, k) for k in GRID_FIELDS}}


def counterexample(theorem: str, res: TrialResult, instance: dict, params: dict) -> dict:
    """The replayable record of an instance (its to_dict) failing theorem's check as res."""
    return {"schema": REPORT_SCHEMA, "theorem": theorem, "failed": list(res.failed),
            "residuals": dict(res.residuals), "instance": instance, "params": params}


def config_from_params(params: dict) -> TrialConfig:
    """Minimal config honoring a counterexample's stored tolerances and grids.

    The inverse of params_from_config. The config is built, and so
    validated, once; the stored grids override its defaults, trials too.
    """
    tolerances = Tolerances(**params.get("tolerances", {}))
    return TrialConfig(**{"trials": 1, **params.get("grids", {})}, tolerances=tolerances)


def read_case(data) -> tuple:
    """(instance, theorem, config) of a parsed instance or counterexample file.

    A counterexample wraps its instance with the theorem it fails and the
    params it was found under, given back as a config; a bare instance has
    no params, and its config is None. The one reader of both formats:
    verify --instances, shrink and replay go through it. Raises ConfigError
    on anything else.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"expected a JSON object, got {type(data).__name__}")
    wrapped = "instance" in data
    try:
        inst = Instance.from_dict(data["instance"] if wrapped else data)
        config = config_from_params(data.get("params", {})) if wrapped else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid instance or counterexample: {exc!r}")
    theorem = data.get("theorem")
    if theorem is not None and not isinstance(theorem, str):
        raise ConfigError(f"a counterexample's theorem must be a string, got {theorem!r}")
    return inst, theorem, config


def replay_counterexample(ce: dict) -> TrialResult:
    """Re-run the named check on the embedded instance with stored params."""
    inst, theorem, config = read_case(ce)
    if config is None:
        raise ConfigError("a counterexample needs an 'instance' and a 'theorem'")
    return _run_check(theorem, Trial(inst, config))


@dataclass
class VerificationReport:
    config: dict
    theorems: dict
    wall_time_s: float
    schema: str = REPORT_SCHEMA

    @property
    def ok(self) -> bool:
        return all(t["failures"] == 0 for t in self.theorems.values())

    def to_dict(self) -> dict:
        return {**vars(self), "ok": self.ok}


def _chunks(config: TrialConfig, purpose: str):
    """config.trials instances of one recipe in trial order, as the lists _recipe_chunk builds.

    Each list is one chunk of _chunk_length trials (the last one may be
    shorter), None where generation gave up: run_suite checks each list as
    it is drawn.
    """
    length = _chunk_length(config, purpose)
    for lo in range(0, config.trials, length):
        yield _recipe_chunk(config, purpose, lo // length, min(length, config.trials - lo))


def _check_chunk(chunk: list, suites: list, config: TrialConfig) -> None:
    """Check the chunk's instances under each suite and fold its results in trial order.

    Every instance is one Trial, and the trials share one lambda-grid
    pass and one axioms pass (_share_minima), each made on the first read
    of any of their values.
    They are checked in groups of one codomain dimension, a group of one
    trial as that Trial: each suite checks a group once. The trials, with
    their values, are dropped with the chunk. Each suite then folds the
    chunk's tables at once, the suites sharing one dict per instance of
    the chunk.
    """
    by_dim, gave_up = {}, []
    for i, inst in enumerate(chunk):
        if inst is None:
            gave_up.append(i)
        else:
            by_dim.setdefault(inst.sip.codomain_dim, []).append(i)
    parts = {suite.name: [([i], _unchecked("generation")) for i in gave_up] for suite in suites}
    trials = {i: Trial(inst, config) for i, inst in enumerate(chunk) if inst is not None}
    _share_minima(trials.values())
    for idx in by_dim.values():
        group = [trials[i] for i in idx]
        rec = group[0] if len(group) == 1 else TrialGroup(group, config)
        for suite in suites:
            parts[suite.name] += _check_group(suite.name, rec, idx)
    dicts = {}
    for suite in suites:
        suite.fold(chunk, parts[suite.name], dicts)


class _SuiteFold:
    """One suite's report entry, folded one list of instances and their result tables at a time.

    A None instance (generation gave up) is a failure with no
    counterexample. The worst trial is the first of the highest ratio,
    with NaN above every number. The entry keeps an instance as its dict,
    so the fold holds no instance. The suites that fold one list of
    instances share one map of their dicts, so every entry of one
    instance, in every suite, is one dict object, built once.
    """

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = params
        self.status, self.counts, self.residual_max, self.kept = Counter(), Counter(), {}, []
        self.worst = None  # (ratio, result, instance dict)

    def fold(self, insts: list, parts: list, dicts: dict) -> None:
        """Fold the results of insts, in their order.

        parts are (positions, table) pairs that cover the positions of
        insts once each: the table's rows are the results of the instances
        at its positions, a list (a one-row table for a trial checked
        alone). Each trial counts under its row's status, and a
        TrialResult is built only for a trial the entry keeps. dicts maps
        a position of insts to its instance's dict, built on first need.
        """
        def instance(p: int) -> dict:
            if p not in dicts:
                dicts[p] = insts[p].to_dict()
            return dicts[p]

        ratio = np.empty(len(insts))
        failing = np.empty(len(insts), dtype=bool)
        for pos, t in parts:
            res = t.residuals
            self.status.update(t.status)
            for column in t.tags:
                self.counts.update(column)
            for k, v in zip(t.names, res.max(axis=0).tolist()):
                self.residual_max[k] = max(self.residual_max.get(k, 0.0), v, key=_nan_first)
            # the largest residual in units of its own tolerance, the first
            # of the checks' order (a NaN before any number)
            q = res / t.tols
            ratio[pos] = q[np.arange(len(pos)), q.argmax(axis=1)]
            failing[pos] = [status == "fail" for status in t.status]

        def result(p: int) -> TrialResult:
            pos, t = next((pos, t) for pos, t in parts if p in pos)
            return t.row(pos.index(p))

        p = int(ratio.argmax())  # the first NaN, or the first highest ratio
        if self.worst is None or _nan_first(ratio[p]) > _nan_first(self.worst[0]):
            self.worst = ratio[p].item(), result(p), instance(p) if insts[p] is not None else None
        for p in np.flatnonzero(failing).tolist():
            if len(self.kept) == MAX_COUNTEREXAMPLES:
                break
            if insts[p] is not None:
                self.kept.append(counterexample(self.name, result(p), instance(p), self.params))

    def entry(self) -> dict:
        ratio, res, inst = self.worst
        status = self.status
        return {
            "trials": sum(status.values()),
            "passes": status["pass"],
            "failures": status["fail"],
            "borderline": status["borderline"],
            "max_residual": max(self.residual_max.values(), default=0.0, key=_nan_first),
            "residuals": self.residual_max,
            "counts": {tag: n for tag, n in self.counts.items() if tag is not None},
            "worst_instance": {"ratio": ratio, "residuals": dict(res.residuals),
                               "failed": list(res.failed), "instance": inst},
            "counterexamples": self.kept,
        }


def run_suite(config: TrialConfig, injected: tuple = ()) -> VerificationReport:
    """Run every selected theorem suite and aggregate a report.

    The suites run one instance recipe (PURPOSES) at a time. A recipe's
    trials are checked a chunk at a time, each chunk exactly as _chunks
    draws it, and at most one chunk is alive: its trials are checked in
    groups of one codomain dimension, each group a record (a TrialGroup,
    or a Trial if it has one trial) that every selected suite of the
    recipe checks once (checks never modify an instance, and the record
    evaluates each value once per trial), and each suite folds its
    results into its entry in trial order. injected instances (the
    fault-injection surface) follow the generated trials in every
    selected suite, checked once as one more chunk under all of them, so
    each instance is one Trial that every suite reads, and the reported
    trial count is config.trials + len(injected) per theorem. The report
    lists the suites in config.theorems order.

    Each instance the report names is one dict, built once: its worst
    instance and counterexample entries, in every suite, are that object
    (the params too are one dict), and report_to_json writes it once. A
    consumer that edits a report copies it first. A dict that
    Instance.to_dict gives is new on every call, and stays the caller's.
    """
    start = time.perf_counter()
    params = params_from_config(config)
    suites = {name: _SuiteFold(name, params) for name in config.theorems}
    for purpose in dict.fromkeys(PURPOSES[name] for name in config.theorems):
        selected = [suites[name] for name in config.theorems if PURPOSES[name] == purpose]
        for chunk in _chunks(config, purpose):
            _check_chunk(chunk, selected, config)
    if injected:
        _check_chunk(list(injected), list(suites.values()), config)
    return VerificationReport(config=asdict(config),
                              theorems={name: suite.entry() for name, suite in suites.items()},
                              wall_time_s=time.perf_counter() - start)


@lru_cache(maxsize=64)
def _kept(size: int, count: int) -> tuple:
    """For each j in range(count), the positions of range(size) but j, in order, read-only.

    v.take(_kept(v.size, count)[j]) is v without its entry j, as slicing
    around j gives it: a malformed vector keeps its extra coordinate, and
    one too short to have an entry j is copied whole. One entry serves
    every vector, and every matrix axis, of one size and count; a shrink
    meets a few.
    """
    keep = []
    for j in range(count):
        idx = np.delete(np.arange(size), j) if j < size else np.arange(size)
        idx.flags.writeable = False
        keep.append(idx)
    return tuple(keep)


def _zeroed(v: np.ndarray, i: int) -> np.ndarray:
    v = v.copy()
    v[i] = 0.0
    return v


def _shrink_candidates(cur: Instance):
    """Every one-step simplification of cur, in the order shrink tries them.

    When n > 1 the first n drop codomain coordinate j = 0, ..., n - 1, in
    order (shrink hands each the current trial's lambda minima without
    row j).
    """
    T, u, x, y = cur.sip, cur.u, cur.x, cur.y
    mult = isinstance(T, MultiplicationSip)
    # Dimensions come from the sip, never from u, x or y: a malformed
    # instance's vectors may carry a coordinate too many or too few.
    n = T.codomain_dim
    if n > 1:
        drop_u = _kept(u.size, n)
        if mult:
            drop_x, drop_y = _kept(x.size, n), _kept(y.size, n)
            for j in range(n):
                yield Instance(MultiplicationSip(n - 1), u.take(drop_u[j]),
                               x.take(drop_x[j]), y.take(drop_y[j]))
        else:
            drop = _kept(n, n)
            for j in range(n):
                yield Instance(PsdFamilySip(T.matrices.take(drop[j], axis=0), validate=False),
                               u.take(drop_u[j]), x, y)
    if not mult and T.domain_dim > 1:
        m = T.domain_dim
        drop, drop_x, drop_y = _kept(m, m), _kept(x.size, m), _kept(y.size, m)
        for k in range(m):
            A = T.matrices.take(drop[k], axis=1).take(drop[k], axis=2)
            yield Instance(PsdFamilySip(A, validate=False), u,
                           x.take(drop_x[k]), y.take(drop_y[k]))
    for i in np.flatnonzero(x).tolist():
        yield Instance(T, u, _zeroed(x, i), y)
    for i in np.flatnonzero(y).tolist():
        yield Instance(T, u, x, _zeroed(y, i))
    for i in np.flatnonzero(u).tolist():
        yield Instance(T, _zeroed(u, i), x, y)
    if not mult:
        # each symmetric pair of entries once, by its upper one, in (j, r, c) order
        pairs, a, b = _upper_pairs(T.domain_dim)
        for j, p in np.argwhere(T.matrices[:, a, b] != 0.0).tolist():
            r, c = pairs[p]
            A = T.matrices.copy()
            A[j, r, c] = A[j, c, r] = 0.0
            yield Instance(PsdFamilySip(A, validate=False), u, x, y)


# The parts of an instance that each check reads: with the sip's m and n
# and the config, all that its result depends on. "sip" is the family:
# its kind and, for a PSD family, its matrices.
_ALL_PARTS = ("sip", "u", "x", "y")
_READS = {
    # check_axioms_trials reads each trial's sip and kind, never u, x or y.
    "axioms": ("sip",),
    # a, b and c are T-values of x and y, and the minima give D from T on
    # lambda*x - y. Trial.minima reads u only for D*u, which cs never
    # reads, and a weight that does not validate leaves D as it is.
    "cs": ("sip", "x", "y"),
    # Means of |x|, |y| and u, read as a vector of x's lattice; x and y
    # are validated against m, and no T-value is read.
    "means": ("u", "x", "y"),
    # The seminorms are T-values under the weight u.
    "vsn": _ALL_PARTS,
    "sharp": _ALL_PARTS,
    "additivity": _ALL_PARTS,
    "pythagoras": _ALL_PARTS,
    "parallelogram": _ALL_PARTS,
    # The mean oracles and closed forms of x and y, validated against m;
    # neither T nor u.
    "oracle": ("x", "y"),
}


# What shrink's memo gives for a key it does not hold: that candidate is checked.
_UNCHECKED = object()


def _read_key(theorem: str, inst: Instance) -> tuple:
    """The check name, m, n and the bytes of the parts of inst that theorem's check reads.

    Instances of one key get one result from the check under one config,
    bit for bit (_READS). m and n are a PSD family's matrix shape
    (n, m, m), or a multiplication sip's dimension. A vector is keyed by
    its shape too, since its bytes alone do not give it; not by its
    dtype, which one shrink call never changes (every candidate's vector
    is a take or a copy of the input's).
    """
    T = inst.sip
    psd = isinstance(T, PsdFamilySip)
    key = [theorem, T.matrices.shape if psd else T.dim]
    for part in _READS[theorem]:
        if part != "sip":
            v = getattr(inst, part)
            key += (v.shape, v.tobytes())
        elif psd:
            key.append(T.matrices.tobytes())
    return tuple(key)


def _inherit_minima(trial: Trial, parent: Trial, j: int) -> None:
    """Give trial, parent's instance without codomain coordinate j, parent's lambda minima but row j.

    Only when parent has computed them under a weight it validated. Each
    row of the lambda-grid samples depends on its own family member (PSD)
    or its own coordinates (multiplication) alone, each row of D*u on its
    own entry of u too, and a minimum is exact, so the rows kept are
    those of trial's own pass, bit for bit. A weight that did not validate
    (of the wrong size, or with a negative entry) may validate without
    entry j, and then trial runs its own pass.
    """
    kept = vars(parent)
    if "minima" in kept and "u" in kept:
        n = parent.T.codomain_dim
        trial.minima = tuple(v.take(_kept(n, n)[j]) for v in kept["minima"])


def shrink(inst: Instance, theorem: str, config: TrialConfig) -> tuple:
    """Greedy minimization of a failing instance.

    Tries, in order: dropping a codomain coordinate, dropping a domain
    coordinate (PSD families), zeroing single entries of x, y, u, and
    zeroing symmetric matrix entry pairs. A move is kept iff the named
    check still fails. Every kept move strictly reduces dimension count or
    nonzero count, so the loop terminates. Returns (instance, result);
    raises ConfigError when the input does not fail to begin with.

    The call keeps a memo, dropped when it returns, from each read key
    (_read_key: the parts of an instance the check reads, _READS) to the
    check's verdict, with the TrialResult of a failing one. A candidate
    whose key is in the memo is not checked again: a move the check does
    not read (an x, y or u move under axioms) or a move refused before the
    last kept one; under a check that reads every part only the latter
    can occur, so the memo keeps only refused candidates. Any other
    candidate gets its status from its one-row table, and one that drops a
    codomain coordinate takes the current trial's lambda minima without
    that row (_inherit_minima).
    """
    trial = Trial(inst, config)
    res = _run_check(theorem, trial)
    if res.status != "fail":
        raise ConfigError("shrink requires an instance that fails the check")
    # Every kept move strictly shrinks the instance, so under a check that
    # reads every part no key comes again before a candidate is refused:
    # none is read till then.
    reads_all = _READS[theorem] == _ALL_PARTS
    memo = {} if reads_all else {_read_key(theorem, inst): res}
    current = inst
    while True:
        n = current.sip.codomain_dim
        drops = n if n > 1 else 0
        for i, cand in enumerate(_shrink_candidates(current)):
            key = _read_key(theorem, cand) if memo else None
            verdict, checked = memo.get(key, _UNCHECKED), None
            if verdict is _UNCHECKED:
                checked = Trial(cand, config)
                if i < drops and trial is not None:
                    _inherit_minima(checked, trial, i)
                (_, table), = _check_group(theorem, checked, [0])
                verdict = table.row(0) if table.status[0] == "fail" else None
                if verdict is None or not reads_all:
                    memo[_read_key(theorem, cand) if key is None else key] = verdict
            if verdict is not None:
                current, res, trial = cand, verdict, checked
                break
        else:
            return current, res


@dataclass
class StudyReport:
    config: dict
    grid_sizes: list
    rows: list
    monotone_ok: bool
    sandwich_ok: bool
    wall_time_s: float
    schema: str = REPORT_SCHEMA

    @property
    def ok(self) -> bool:
        return self.monotone_ok and self.sandwich_ok

    def to_dict(self) -> dict:
        return {**vars(self), "ok": self.ok}


def convergence_study(config: TrialConfig, grid_sizes: tuple) -> StudyReport:
    """Worst oracle gaps as a function of grid resolution.

    For each size G the three grid oracles run with G points against the
    closed forms over config.trials instances (positive log-uniform pairs
    for the means, generic mixed instances for the defect), generated once
    for all sizes. Per size, one lambda_minima call takes every generic
    pair, and the mean oracles one call each per n on the stacked
    positive_log pairs of that n. Gaps must stay one-sided (sandwich_ok)
    and their maxima must not increase under refinement (monotone_ok).
    """
    sizes = sorted(set(int(g) for g in grid_sizes))
    if len(sizes) < 2 or sizes[0] < 4 or sizes[-1] > MAX_GRID_COUNT:
        raise ConfigError(f"need at least two grid sizes, all in [4, {MAX_GRID_COUNT}]")
    start = time.perf_counter()
    floor = config.tolerances.abs
    pairs = list(zip(chain.from_iterable(_chunks(config, "positive_log")),
                     (Gram(g.sip, g.x, g.y)
                      for g in chain.from_iterable(_chunks(config, "generic")))))
    grams = [g for _, g in pairs]
    # the positive_log pairs of each n, stacked for the mean oracles
    by_n = {}
    for pos, _ in pairs:
        by_n.setdefault(pos.x.size, []).append(pos)
    stacks = [(np.array([p.x for p in same]), np.array([p.y for p in same]))
              for same in by_n.values()]
    rows = []
    sandwich_ok = True
    for G in sizes:
        sized = replace(config, theta_count=G, angle_count=G, lambda_count=G)
        theta, angle, lam = sized.theta_grid, sized.angle_grid, sized.lambda_grid
        # (key, (sandwich, gap)) of each oracle at each pair; a row's
        # worst gap does not depend on their order. The mean oracles run
        # first, as they did per pair: with the lambda call first, the
        # process's peak RSS read 4.5 MB higher (BENCH_study_stack.json)
        found = []
        for x, y in stacks:
            for key, stacked in (("box_times_gap", box_times_gaps(abs(x), abs(y), theta, floor)),
                                 ("box_plus_gap", box_plus_gaps(x, y, angle, floor))):
                found += [(key, pair) for pair in zip(*stacked)]
        found += [("defect_gap", defect_gaps(g, d, floor))
                  for g, (d, _) in zip(grams, lambda_minima(grams, lam))]
        row = {"grid_size": G, "box_times_gap": 0.0, "box_plus_gap": 0.0, "defect_gap": 0.0}
        for key, (sandwich, gap) in found:
            sandwich_ok &= bool(sandwich <= SANDWICH_FLOOR)  # NaN fails too
            row[key] = max(row[key], float(gap), key=_nan_first)
        rows.append(row)

    # a NaN gap fails its comparison
    monotone_ok = all(finer[key] <= row[key] + 1e-15 for row, finer in zip(rows, rows[1:])
                      for key in ("box_times_gap", "box_plus_gap", "defect_gap"))

    return StudyReport(
        config=asdict(config),
        grid_sizes=sizes,
        rows=rows,
        monotone_ok=monotone_ok,
        sandwich_ok=sandwich_ok,
        wall_time_s=time.perf_counter() - start,
    )


class _Unencodable(Exception):
    """A value outside the JSON subset _encode writes; json.dumps decides."""


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_json_string = json.encoder.encode_basestring_ascii


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


def _encode(value, indent: str, out: list, spans: dict) -> None:
    """Append json.dumps(value, sort_keys=True, indent=2) at nesting indent to out, for str keys.

    A value is at most one of float, str and int, and bools are tested
    before int and lists or tuples before dicts, as json tests them, so
    subclasses encode as json encodes them; any other value raises
    _Unencodable, and a dict with a key that is not a str TypeError.

    The text goes to out as fragments, which the caller joins once, so no
    level copies its children's text. spans, keyed by id, holds for each
    dict met so far the indent it was written at and the range of out its
    fragments fill. A later occurrence at that indent appends the range
    again; at another indent it joins the range and re-indents it with one
    replace. So a dict that occurs n times is encoded once, and spans keeps
    no text. A dict's text holds no newline but its own line breaks (json
    escapes those of strings), each followed by its indent, so
    re-indenting is that one replace.
    """
    if isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, str):
        out.append(_json_string(value))
    elif isinstance(value, int):
        out.append("true" if value is True else "false" if value is False
                   else int.__repr__(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        # Most of a report's bytes are lists of floats (a counterexample's
        # matrices and vectors): float.__repr__ writes them in one pass and
        # refuses any item that is no float.
        try:
            body = sep.join(map(float.__repr__, value))
        except TypeError:
            head = "[\n" + inner
            for v in value:
                out.append(head)
                _encode(v, inner, out, spans)
                head = sep
            out.append("\n" + indent + "]")
        else:
            if "n" in body:  # nan or inf, which json spells NaN and Infinity
                body = sep.join(map(_json_float, value))
            out += ("[\n" + inner, body, "\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        key = id(value)
        span = spans.get(key)
        if span is not None:
            at, start, end = span
            if at == indent:
                out += out[start:end]
            else:
                out.append("".join(out[start:end]).replace("\n" + at, "\n" + indent))
            return
        start = len(out)
        inner = indent + "  "
        head = "{\n" + inner
        # a key that is no str fails to sort or to encode: TypeError
        for k in sorted(value):
            out.append(head + _json_string(k) + ": ")
            _encode(value[k], inner, out, spans)
            head = ",\n" + inner
        out.append("\n" + indent + "}")
        spans[key] = (indent, start, len(out))
    else:
        raise _Unencodable


def report_to_json(data: dict) -> str:
    """Stable serialization: sorted keys, fixed indentation, newline at EOF.

    The one writer of reports (through emit_report) and of shrink's output.
    Its text is json.dumps(data, sort_keys=True, indent=2) + "\n" byte for
    byte; indent makes json run its pure-Python encoder, so the JSON that
    reports hold is written here instead, and json.dumps writes (or
    refuses) anything else, such as a non-str key, a value of another type
    or a circular structure. The text is written in one pass: _encode
    appends fragments to one list, joined once at the end. A dict that
    data holds at several places, as a report holds each instance's dict
    and the params once per entry that names them, is encoded at its first
    place only; later places repeat its fragments (see _encode).
    """
    out = []
    try:
        _encode(data, "", out, {})
    except (_Unencodable, TypeError, RecursionError):
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def write_json(data, path) -> None:
    """Write report_to_json(data) to path: the one writer of report and shrink files.

    The text is encoded before the file is opened, so data that cannot be
    encoded leaves a file already at path as it was. A path that cannot be
    written raises ConfigError, as a case file that cannot be read does.
    """
    text = report_to_json(data)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def emit_report(report, path) -> None:
    write_json(report.to_dict(), path)
