"""Randomized verification harness.

Runs named theorem suites over randomly generated semi-inner-product
instances and aggregates the results into a deterministic JSON report.
Every trial draws its randomness from a substream keyed by
(config.seed, trial_index), so reports are reproducible bit for bit
(wall time aside) and any recorded counterexample can be replayed or
shrunk offline from its serialized instance alone. A check is a
deterministic function of (instance, config): the oracle grids it samples
are derived on the config, and anything else sampled inside a check uses
fixed seeds or fixed scalar sets, never fresh entropy. A check reads a
Trial, the lazy record of one instance under one config (its Gram, the
WeightedGram under u and the lambda-grid samples), passes its values to
the library's theorem functions, and only maps the residuals they return
to tolerances.

run_suite is trial-major: for each instance recipe it generates trial i,
builds one Trial, runs every selected suite of the recipe on it and folds
each result into that suite's report entry, then drops the trial before
generating trial i + 1. The suites of a trial share its record, so each
T-value and the lambda-grid sampling are evaluated once per trial, and
at most one generated instance is alive. replay_counterexample and
shrink build a fresh record for every check they run.

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
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .lattice import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DimensionMismatch,
    NonFinite,
    NotInPositiveCone,
    _finite,
    as_lattice_vector,
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
    _box_times,
    box_plus_gaps,
    box_plus_oracle,
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
    cs_verdict,
    defect_gaps,
    defect_grid,
    lambda_minimum,
    lambda_samples,
)
from .seminorms import (
    CHAIN_FLOOR,
    SeminormSpec,
    WeightedGram,
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
    NoNontrivialOrthogonal,
    PsdFamilySip,
    check_axioms,
    orthogonal_sample,
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


class ConfigError(ValueError):
    """Invalid verification configuration (CLI exit code 2)."""


class GenerationExhausted(RuntimeError):
    """Instance generation gave up after repeated retries."""


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
        if not (self.entry_hi > 0.0 and self.u_hi > 0.0):
            raise ConfigError("entry ranges must be positive")
        if not (0.0 < self.log_entry_lo < self.log_entry_hi):
            raise ConfigError("log-uniform entry range must satisfy 0 < lo < hi")
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

    @cached_property
    def theta_grid(self) -> LogGrid:
        """Multipliers of the [*] infimum's oracle."""
        return _grid(LogGrid.log_spaced, self.theta_lo, self.theta_hi, self.theta_count)

    @cached_property
    def angle_grid(self) -> AngleGrid:
        """Angles of the [+] supremum's oracle."""
        return _grid(AngleGrid.uniform, self.angle_count)

    @cached_property
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
        in the checks. Non-finite entries are rejected, NaN cannot
        participate in tolerance comparisons meaningfully.
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


def _random_weight(rng: np.random.Generator, n: int, u_hi: float) -> np.ndarray:
    u = rng.uniform(0.0, u_hi, n)
    r = rng.random()
    if r < 0.02:
        u = np.zeros(n)  # fully degenerate weight
    elif r < 0.15:
        k = int(rng.integers(1, n + 1))
        u[rng.choice(n, size=min(k, n), replace=False)] = 0.0
    return u


def generate_instance(config: TrialConfig, trial_index: int,
                      purpose: str = "generic") -> Instance:
    """Deterministic instance for one trial, keyed by (seed, trial_index).

    generic draws mix both sip kinds and bias a quarter of the pairs to
    colinear y and (for the multiplication sip) a quarter to positive-cone
    pairs, so equality branches of the biconditionals appear with
    non-negligible frequency. orthogonal draws return a pair with
    T(x, y) = 0 built by orthogonal_sample, preferring PSD families with
    m > n. positive_log draws signed entries with log-uniform magnitudes
    on the multiplication sip, the stress regime for the grid oracles.
    """
    rng = np.random.default_rng((config.seed, trial_index))

    if purpose == "generic":
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

    if purpose == "positive_log":
        n = int(rng.integers(config.n_lo, config.n_hi + 1))
        T = MultiplicationSip(n)
        lo, hi = np.log10(config.log_entry_lo), np.log10(config.log_entry_hi)
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
        y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
        u = rng.uniform(0.0, config.u_hi, n)
        return Instance(sip=T, u=u, x=x, y=y)

    if purpose == "orthogonal":
        psd_possible, mult_possible = config.orthogonal_recipes
        use_psd = psd_possible and (not mult_possible or rng.random() < 0.7)
        for attempt in range(100):
            if use_psd:
                n = int(rng.integers(config.n_lo, min(config.n_hi, config.m_hi - 1) + 1))
                m = int(rng.integers(max(config.m_lo, n + 1), config.m_hi + 1))
                T = random_psd(rng, m, n)
                x = rng.uniform(-config.entry_hi, config.entry_hi, m)
            else:
                n = int(rng.integers(max(config.n_lo, 2), config.n_hi + 1))
                m = n
                T = MultiplicationSip(n)
                x = rng.uniform(-config.entry_hi, config.entry_hi, m)
                k = int(rng.integers(1, m))  # nonempty proper zero support
                x[rng.choice(m, size=k, replace=False)] = 0.0
            try:
                y = orthogonal_sample(T, x, seed=(config.seed, trial_index, attempt))
            except NoNontrivialOrthogonal:
                continue
            y = y * float(rng.uniform(0.5, config.entry_hi))
            u = rng.uniform(0.0, config.u_hi, n)
            return Instance(sip=T, u=u, x=x, y=y)
        raise GenerationExhausted(
            f"no orthogonal pair after 100 attempts at trial {trial_index}")

    raise ConfigError(f"unknown generation purpose: {purpose!r}")


@dataclass(frozen=True)
class TrialResult:
    status: str  # pass | fail | borderline
    residuals: dict
    tols: dict
    failed: tuple
    tags: tuple = ()


def _rank(v: float) -> tuple:
    """Sort key that ranks NaN above every number, so no maximum drops it."""
    return (v != v, v)


def _result(checks: dict, borderline: bool = False, tags: tuple = ()) -> TrialResult:
    """TrialResult of {check name: (residual, tolerance)}."""
    residuals = {k: v for k, (v, _) in checks.items()}
    tols = {k: tol for k, (_, tol) in checks.items()}
    # not (v <= tol) instead of v > tol so NaN residuals count as failures
    failed = tuple(sorted(k for k, v in residuals.items() if not v <= tols[k]))
    status = "fail" if failed else ("borderline" if borderline else "pass")
    return TrialResult(status=status, residuals=residuals, tols=tols,
                       failed=failed, tags=tags)


def _mismatch(borderline: bool, agreed: bool) -> float:
    """Indicator residual of a biconditional; borderline trials never count."""
    return 0.0 if (borderline or agreed) else 1.0


def _branch(holds: bool) -> tuple:
    return ("equality",) if holds else ("strict",)


class Trial:
    """One instance under one config: the lazy record every suite of a trial reads.

    Each value is computed once, on first read, and shared by every suite
    that reads it: the pair's Gram (a, b, c, bound and the defect), the
    WeightedGram under u built on that Gram (only when a suite reads u),
    the lambda-grid samples T(lambda*x - y, lambda*x - y) of the defect
    oracles, and the validated vectors of the means and oracle suites. A
    value that raises is not kept (cached_property), so every suite raises
    on exactly the values it reads, as it would alone.
    """

    def __init__(self, inst: Instance, config: TrialConfig):
        self.inst = inst
        self.config = config

    @cached_property
    def gram(self) -> Gram:
        return Gram(self.inst.sip, self.inst.x, self.inst.y)

    @cached_property
    def weighted(self) -> WeightedGram:
        return WeightedGram.of(SeminormSpec(self.inst.sip, self.inst.u), self.gram)

    @cached_property
    def samples(self) -> np.ndarray:
        """lambda_samples of the pair on config.lambda_grid."""
        return lambda_samples(self.gram, self.config.lambda_grid)

    @cached_property
    def vectors(self) -> tuple:
        """x and y as vectors of one lattice; the sip is not read."""
        x = as_lattice_vector(self.inst.x)
        return x, as_lattice_vector(self.inst.y, x.size)


def check_axioms_trial(trial: Trial) -> TrialResult:
    tol = trial.config.tolerances
    res = check_axioms(trial.inst.sip, samples=AXIOM_SAMPLES, seed=0, floor=tol.abs)
    return _result({k: (v, tol.rel) for k, v in res.items()}, tags=(trial.inst.kind,))


def check_cs_trial(trial: Trial) -> TrialResult:
    tol = trial.config.tolerances
    g = trial.gram
    chk = cs_verdict(g, band=tol.cone_band, floor=tol.abs)
    sandwich, gap = defect_gaps(
        g, lambda_minimum(trial.samples, trial.config.lambda_grid), tol.abs)
    return _result({
        "identity": (chk.identity, tol.rel),
        "inequality": (chk.inequality, INEQ_FLOOR),
        "defect_sandwich": (sandwich, SANDWICH_FLOOR),
        "defect_gap": (gap, DEFECT_GAP_REL_TOL),
        "equality_iff_defect_zero": (
            _mismatch(chk.borderline, chk.equality_holds == chk.defect_zero), BICOND_TOL),
    }, borderline=chk.borderline, tags=_branch(chk.equality_holds))


def check_means_trial(trial: Trial) -> TrialResult:
    # The suite states identities of the means on the validated x, y, u;
    # the kernels still catch a + b or lam*a overflowing.
    x, y = trial.vectors
    a, b = np.abs(x), np.abs(y)
    c = as_lattice_vector(trial.inst.u, x.size)
    floor = trial.config.tolerances.abs
    biadd = rel_residual(_box_times(a + b, c, floor),
                         _box_plus(_box_times(a, c, floor), _box_times(b, c, floor)),
                         floor=floor)
    hom = 0.0
    ab = _box_times(a, b, floor)
    # |x_0| adds a scalar that depends on the data, yet keeps the check a
    # pure function of the instance.
    for lam in (0.0, 0.5, 1.0, 4.0, float(a[0])):
        ref = np.sqrt(lam) * ab
        hom = max(hom, rel_residual(_box_times(lam * a, b, floor), ref, floor=floor))
        hom = max(hom, rel_residual(_box_times(a, lam * b, floor), ref, floor=floor))
    return _result({"biadditivity": (biadd, MEANS_REL_TOL), "homogeneity": (hom, MEANS_REL_TOL)})


def check_vsn_trial(trial: Trial) -> TrialResult:
    tol = trial.config.tolerances
    tols = {"positivity": tol.rel, "homogeneity": tol.rel, "triangle": tol.rel,
            "square": SQUARE_REL_TOL}
    residuals = seminorm_residuals(trial.weighted, floor=tol.abs)
    return _result({k: (v, tols[k]) for k, v in residuals.items()})


def check_sharp_trial(trial: Trial) -> TrialResult:
    tol = trial.config.tolerances
    g = trial.weighted
    st = sharp_verdict(g, band=tol.cone_band, floor=tol.abs)
    sandwich, gap = weighted_defect_gaps(
        g, lambda_minimum(trial.samples, trial.config.lambda_grid, g.u), tol.abs)
    return _result({
        "chain": (st.chain, CHAIN_FLOOR),
        "equality_iff_positive": (
            _mismatch(st.borderline, st.equality_holds == st.condition_holds), BICOND_TOL),
        "weighted_sandwich": (sandwich, SANDWICH_FLOOR),
        "weighted_gap": (gap, DEFECT_GAP_REL_TOL),
    }, borderline=st.borderline, tags=_branch(st.equality_holds))


def check_additivity_trial(trial: Trial) -> TrialResult:
    tol = trial.config.tolerances
    ac = additivity_verdict(trial.weighted, band=tol.cone_band, floor=tol.abs)
    agreed = ac.additive == (ac.condition_pos and ac.condition_defect_zero)
    tags = (
        "additive" if ac.additive else "nonadditive",
        "cond_pos_true" if ac.condition_pos else "cond_pos_false",
        "cond_defect_true" if ac.condition_defect_zero else "cond_defect_false",
    )
    return _result({"characterization": (_mismatch(ac.borderline, agreed), BICOND_TOL)},
                   borderline=ac.borderline, tags=tags)


def check_pythagoras_trial(trial: Trial) -> TrialResult:
    tol = trial.config.tolerances
    g = trial.weighted
    pre = orthogonality(g, floor=tol.abs)
    # The identity is only asserted, and its seminorms only evaluated,
    # when the orthogonality hypothesis holds.
    ident = 0.0 if pre > PRECOND_TOL else rel_residual(*pythagoras_sides(g), floor=tol.abs)
    return _result({"orthogonality": (pre, PRECOND_TOL), "identity": (ident, tol.rel)},
                   tags=(trial.inst.kind,))


def check_parallelogram_trial(trial: Trial) -> TrialResult:
    tol = trial.config.tolerances
    sides = parallelogram_sides(trial.weighted)
    return _result({"identity": (rel_residual(*sides, floor=tol.abs), tol.rel)},
                   tags=(trial.inst.kind,))


def check_oracle_trial(trial: Trial) -> TrialResult:
    config = trial.config
    tol = config.tolerances
    x, y = trial.vectors
    u, v = np.abs(x), np.abs(y)
    theta, angle = config.theta_grid, config.angle_grid
    bt_sandwich, bt_gap = box_times_gaps(u, v, theta, tol.abs)
    # Outside the grid's range the theta oracle's over-estimate is not
    # tight, so its gap is not asserted there.
    covered = theta.covers(theta_minimizer(u, v))
    bp_sandwich, bp_gap = box_plus_gaps(x, y, angle, tol.abs)
    quarter = rel_residual(box_plus_oracle(u, v, angle),
                           box_plus_oracle(u, v, angle, quarter=True), floor=tol.abs)
    return _result({
        "box_times_sandwich": (bt_sandwich, SANDWICH_FLOOR),
        "box_times_gap": (bt_gap if covered else 0.0, BT_GAP_REL_TOL),
        "box_plus_sandwich": (bp_sandwich, SANDWICH_FLOOR),
        "box_plus_gap": (bp_gap, BP_GAP_REL_TOL),
        "quarter_circle": (quarter, QUARTER_REL_TOL),
    }, tags=() if covered else ("minimizer_not_covered",))


CHECKS = {
    "axioms": check_axioms_trial,
    "cs": check_cs_trial,
    "means": check_means_trial,
    "vsn": check_vsn_trial,
    "sharp": check_sharp_trial,
    "additivity": check_additivity_trial,
    "pythagoras": check_pythagoras_trial,
    "parallelogram": check_parallelogram_trial,
    "oracle": check_oracle_trial,
}


def _run_check(theorem: str, trial: Trial) -> TrialResult:
    """theorem's check of trial; the one place that rejects an unknown check name."""
    check = CHECKS.get(theorem)
    if check is None:
        raise ConfigError(f"unknown check {theorem!r}; choose from {sorted(CHECKS)}")
    try:
        return check(trial)
    except (DimensionMismatch, NotInPositiveCone, NonFinite):
        # Broken instance (fault injection): counted as a failure, never
        # silently skipped. Any other exception is a fault and propagates.
        return _result({"invalid_instance": (1.0, BICOND_TOL)})


def params_from_config(config: TrialConfig) -> dict:
    """The tolerances and grids a check depends on, as stored in a counterexample."""
    return {"tolerances": asdict(config.tolerances),
            "grids": {k: getattr(config, k) for k in GRID_FIELDS}}


def counterexample(theorem: str, res: TrialResult, inst: Instance, params: dict) -> dict:
    """The replayable record of inst failing theorem's check with result res."""
    return {"schema": REPORT_SCHEMA, "theorem": theorem, "failed": list(res.failed),
            "residuals": dict(res.residuals), "instance": inst.to_dict(), "params": params}


def config_from_params(params: dict) -> TrialConfig:
    """Minimal config honoring a counterexample's stored tolerances and grids.

    The inverse of params_from_config.
    """
    base = TrialConfig(trials=1)
    tolerances = Tolerances(**params.get("tolerances", {}))
    return replace(base, tolerances=tolerances, **params.get("grids", {}))


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


def _generate(config: TrialConfig, purpose: str):
    """config.trials instances of one recipe, one at a time, None where generation gave up."""
    for i in range(config.trials):
        try:
            inst = generate_instance(config, i, purpose)
        except GenerationExhausted:
            inst = None
        yield inst


class _SuiteFold:
    """One suite's report entry, folded one (instance, result) pair at a time.

    A None instance (generation gave up) is a failure with no
    counterexample. The worst trial is the first of the highest ratio,
    with NaN above every number; its instance is kept as a dict, so the
    fold holds no instance.
    """

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = params
        self.status, self.counts, self.residual_max, self.kept = Counter(), Counter(), {}, []
        self.worst = None  # (ratio, result, instance dict)

    def add(self, inst, res: TrialResult) -> None:
        self.status[res.status] += 1
        self.counts.update(res.tags)
        for k, v in res.residuals.items():
            self.residual_max[k] = max(self.residual_max.get(k, 0.0), v, key=_rank)
        # the largest residual in units of its own tolerance
        ratio = max((v / res.tols[k] for k, v in res.residuals.items()), default=0.0, key=_rank)
        if self.worst is None or _rank(ratio) > _rank(self.worst[0]):
            self.worst = ratio, res, inst.to_dict() if inst is not None else None
        if res.status == "fail" and inst is not None and len(self.kept) < MAX_COUNTEREXAMPLES:
            self.kept.append(counterexample(self.name, res, inst, self.params))

    def entry(self) -> dict:
        ratio, res, inst = self.worst
        status = self.status
        return {
            "trials": sum(status.values()),
            "passes": status["pass"],
            "failures": status["fail"],
            "borderline": status["borderline"],
            "max_residual": max(self.residual_max.values(), default=0.0, key=_rank),
            "residuals": self.residual_max,
            "counts": dict(self.counts),
            "worst_instance": {"ratio": ratio, "residuals": dict(res.residuals),
                               "failed": list(res.failed), "instance": inst},
            "counterexamples": self.kept,
        }


def run_suite(config: TrialConfig, injected: tuple = ()) -> VerificationReport:
    """Run every selected theorem suite and aggregate a report.

    The suites run one instance recipe (PURPOSES) at a time and, within a
    recipe, one trial at a time: trial i is generated once, wrapped in one
    Trial record that every selected suite of the recipe checks (checks
    never modify an instance, and the record evaluates each value once),
    and each result is folded into its suite's entry before trial i + 1 is
    generated, so at most one generated instance is alive at once.
    injected instances (the fault-injection surface) follow the generated
    trials in every selected suite, each with its own record per recipe,
    so the reported trial count is config.trials + len(injected) per
    theorem. The report lists the suites in config.theorems order.
    """
    start = time.perf_counter()
    params = params_from_config(config)
    folds = {name: _SuiteFold(name, params) for name in config.theorems}
    for purpose in dict.fromkeys(PURPOSES[name] for name in config.theorems):
        selected = [folds[name] for name in config.theorems if PURPOSES[name] == purpose]
        for inst in chain(_generate(config, purpose), injected):
            trial = Trial(inst, config) if inst is not None else None
            for fold in selected:
                fold.add(inst, _run_check(fold.name, trial) if trial is not None
                         else _result({"generation": (1.0, BICOND_TOL)}))
    return VerificationReport(config=asdict(config),
                              theorems={name: fold.entry() for name, fold in folds.items()},
                              wall_time_s=time.perf_counter() - start)


def _drop(v: np.ndarray, i: int) -> np.ndarray:
    # Slicing, unlike np.delete, tolerates an index past the end of a
    # malformed (too short) vector.
    return np.concatenate((v[:i], v[i + 1:]))


def _zeroed(v: np.ndarray, index) -> np.ndarray:
    v = v.copy()
    v[index] = 0.0
    return v


def _shrink_candidates(cur: Instance):
    """Every one-step simplification of cur, in the order shrink tries them."""
    T = cur.sip
    mult = isinstance(T, MultiplicationSip)
    # Dimensions come from the sip, never from u, x or y: a malformed
    # instance's vectors may carry a coordinate too many or too few.
    n = T.codomain_dim
    if n > 1:
        for j in range(n):
            if mult:
                yield Instance(MultiplicationSip(n - 1), _drop(cur.u, j),
                               _drop(cur.x, j), _drop(cur.y, j))
            else:
                yield replace(cur, sip=PsdFamilySip(np.delete(T.matrices, j, axis=0),
                                                    validate=False), u=_drop(cur.u, j))
    if not mult and T.domain_dim > 1:
        for k in range(T.domain_dim):
            A = np.delete(np.delete(T.matrices, k, axis=1), k, axis=2)
            yield Instance(PsdFamilySip(A, validate=False), cur.u,
                           _drop(cur.x, k), _drop(cur.y, k))
    for key in ("x", "y", "u"):
        v = getattr(cur, key)
        for i in np.flatnonzero(v):
            yield replace(cur, **{key: _zeroed(v, i)})
    if not mult:
        m = T.domain_dim
        for j in range(n):
            for r in range(m):
                for c in range(r, m):
                    if T.matrices[j, r, c] != 0.0:
                        A = _zeroed(T.matrices, (j, [r, c], [c, r]))
                        yield replace(cur, sip=PsdFamilySip(A, validate=False))


def shrink(inst: Instance, theorem: str, config: TrialConfig) -> tuple:
    """Greedy minimization of a failing instance.

    Tries, in order: dropping a codomain coordinate, dropping a domain
    coordinate (PSD families), zeroing single entries of x, y, u, and
    zeroing symmetric matrix entry pairs. A move is kept iff the named
    check still fails. Every kept move strictly reduces dimension count or
    nonzero count, so the loop terminates. Returns (instance, result);
    raises ConfigError when the input does not fail to begin with.
    """
    res = _run_check(theorem, Trial(inst, config))
    if res.status != "fail":
        raise ConfigError("shrink requires an instance that fails the check")
    current = inst
    while True:
        for cand in _shrink_candidates(current):
            cand_res = _run_check(theorem, Trial(cand, config))
            if cand_res.status == "fail":
                current, res = cand, cand_res
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
    for all sizes. Gaps must stay one-sided (sandwich_ok) and their maxima
    must not increase under refinement (monotone_ok).
    """
    sizes = sorted(set(int(g) for g in grid_sizes))
    if len(sizes) < 2 or sizes[0] < 4 or sizes[-1] > MAX_GRID_COUNT:
        raise ConfigError(f"need at least two grid sizes, all in [4, {MAX_GRID_COUNT}]")
    start = time.perf_counter()
    floor = config.tolerances.abs
    pairs = list(zip(_generate(config, "positive_log"),
                     (Gram(g.sip, g.x, g.y) for g in _generate(config, "generic"))))
    rows = []
    sandwich_ok = True
    for G in sizes:
        sized = replace(config, theta_count=G, angle_count=G, lambda_count=G)
        theta, angle, lam = sized.theta_grid, sized.angle_grid, sized.lambda_grid
        row = {"grid_size": G, "box_times_gap": 0.0, "box_plus_gap": 0.0, "defect_gap": 0.0}
        for pos, g in pairs:
            for key, (sandwich, gap) in (
                    ("box_times_gap", box_times_gaps(abs(pos.x), abs(pos.y), theta, floor)),
                    ("box_plus_gap", box_plus_gaps(pos.x, pos.y, angle, floor)),
                    ("defect_gap", defect_gaps(g, defect_grid(g.T, g.x, g.y, lam), floor))):
                if not sandwich <= SANDWICH_FLOOR:  # NaN fails too
                    sandwich_ok = False
                row[key] = max(row[key], gap, key=_rank)
        rows.append(row)

    monotone_ok = True
    for key in ("box_times_gap", "box_plus_gap", "defect_gap"):
        vals = [r[key] for r in rows]
        if any(not vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1)):
            monotone_ok = False

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


def _encode(value, indent: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) at nesting indent, for str keys.

    The type tests run in json's order (str, None, bools, int, float,
    list or tuple, dict), so subclasses encode as json encodes them; any
    other value, or a dict with a key that is not a str, raises
    _Unencodable.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # Most of a report's bytes are lists of floats (a counterexample's
        # matrices and vectors): float.__repr__ writes them in one pass and
        # refuses any item that is no float.
        try:
            body = sep.join(map(float.__repr__, value))
        except TypeError:
            body = sep.join([_encode(v, inner) for v in value])
        else:
            if "n" in body:  # nan or inf, which json spells NaN and Infinity
                body = sep.join(map(_json_float, value))
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            raise _Unencodable
        body = sep.join([_json_string(k) + ": " + _encode(value[k], inner) for k in sorted(value)])
        return "{\n" + inner + body + "\n" + indent + "}"
    raise _Unencodable


def report_to_json(data: dict) -> str:
    """Stable serialization: sorted keys, fixed indentation, newline at EOF.

    The one writer of reports (through emit_report) and of shrink's output.
    Its text is json.dumps(data, sort_keys=True, indent=2) + "\n" byte for
    byte; indent makes json run its pure-Python encoder, so the JSON that
    reports hold is written here instead, and json.dumps writes (or
    refuses) anything else, such as a non-str key, a value of another type
    or a circular structure.
    """
    try:
        return _encode(data, "") + "\n"
    except (_Unencodable, RecursionError):
        return json.dumps(data, sort_keys=True, indent=2) + "\n"


def emit_report(report, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report.to_dict()))
