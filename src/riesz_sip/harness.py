"""Randomized verification harness.

Runs named theorem suites over randomly generated semi-inner-product
instances and aggregates the results into a deterministic JSON report.
Every trial draws its randomness from a substream keyed by
(config.seed, trial_index), so reports are reproducible bit for bit
(wall time aside) and any recorded counterexample can be replayed or
shrunk offline from its serialized instance alone. Checks themselves are
deterministic functions of (instance, config): anything sampled inside a
check uses fixed seeds or fixed scalar sets, never fresh entropy. A
check builds one Gram or WeightedGram record per trial, so each T-value is
evaluated once, passes it to the library's theorem functions, and only
maps the residuals they return to tolerances.

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
import numbers
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

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
    box_plus,
    box_plus_gaps,
    box_plus_oracle,
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
    sip_from_dict,
    sip_to_dict,
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
        if not (0.0 < self.theta_lo < self.theta_hi and self.theta_count >= 2):
            raise ConfigError("invalid theta grid")
        if self.angle_count < 4:
            raise ConfigError("invalid angle grid")
        if not (0.0 < self.lambda_lo < self.lambda_hi and self.lambda_count >= 2):
            raise ConfigError("invalid lambda grid")
        unknown = set(self.theorems) - set(THEOREMS)
        if unknown:
            raise ConfigError(f"unknown theorems: {sorted(unknown)}")
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


# The TrialConfig fields the grids are built from, hence the grid part of
# a counterexample's params.
GRID_FIELDS = ("theta_lo", "theta_hi", "theta_count", "angle_count",
               "lambda_lo", "lambda_hi", "lambda_count")


@dataclass(frozen=True)
class Grids:
    theta: LogGrid
    angle: AngleGrid
    lam: LogGrid


def build_grids(c: TrialConfig) -> Grids:
    return Grids(theta=LogGrid.log_spaced(c.theta_lo, c.theta_hi, c.theta_count),
                 angle=AngleGrid.uniform(c.angle_count),
                 lam=LogGrid.log_spaced(c.lambda_lo, c.lambda_hi, c.lambda_count))


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
        d = sip_to_dict(self.sip)
        for key in ("u", "x", "y"):
            d[key] = np.asarray(getattr(self, key), dtype=np.float64).tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        # Dimensions of u/x/y are deliberately not cross-checked here:
        # malformed instances are fault-injection inputs and must fail in
        # the checks, not at load time. Non-finite entries are rejected,
        # NaN cannot participate in tolerance comparisons meaningfully.
        vecs = {}
        for key in ("u", "x", "y"):
            v = np.asarray(d[key], dtype=np.float64)
            if v.ndim != 1:
                raise DimensionMismatch(f"instance field {key!r} must be a vector")
            vecs[key] = _finite(v)
        return cls(sip=sip_from_dict(d), **vecs)


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

    @property
    def ratio(self) -> float:
        """Largest residual in units of its own tolerance, NaN above all."""
        return max((v / self.tols[k] for k, v in self.residuals.items()),
                   default=0.0, key=_rank)


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


def check_axioms_trial(inst: Instance, config: TrialConfig, grids: Grids) -> TrialResult:
    res = check_axioms(inst.sip, samples=AXIOM_SAMPLES, seed=0, floor=config.tolerances.abs)
    return _result({k: (v, config.tolerances.rel) for k, v in res.items()}, tags=(inst.kind,))


def check_cs_trial(inst: Instance, config: TrialConfig, grids: Grids) -> TrialResult:
    tol = config.tolerances
    g = Gram(inst.sip, inst.x, inst.y)
    chk = cs_verdict(g, band=tol.cone_band, floor=tol.abs)
    sandwich, gap = defect_gaps(g, grids.lam, tol.abs)
    return _result({
        "identity": (chk.identity, tol.rel),
        "inequality": (chk.inequality, INEQ_FLOOR),
        "defect_sandwich": (sandwich, SANDWICH_FLOOR),
        "defect_gap": (gap, DEFECT_GAP_REL_TOL),
        "equality_iff_defect_zero": (
            _mismatch(chk.borderline, chk.equality_holds == chk.defect_zero), BICOND_TOL),
    }, borderline=chk.borderline, tags=_branch(chk.equality_holds))


def check_means_trial(inst: Instance, config: TrialConfig, grids: Grids) -> TrialResult:
    # Validated before a + b; the suite states identities of the public
    # means, whose checks catch a + b or lam*a overflowing.
    x = as_lattice_vector(inst.x)
    a, b = np.abs(x), np.abs(as_lattice_vector(inst.y, x.size))
    c = as_lattice_vector(inst.u, x.size)
    floor = config.tolerances.abs
    biadd = rel_residual(box_times(a + b, c, floor=floor),
                         box_plus(box_times(a, c, floor=floor),
                                  box_times(b, c, floor=floor)), floor=floor)
    hom = 0.0
    ab = box_times(a, b, floor=floor)
    # |x_0| adds a scalar that depends on the data, yet keeps the check a
    # pure function of the instance.
    for lam in (0.0, 0.5, 1.0, 4.0, float(a[0])):
        ref = np.sqrt(lam) * ab
        hom = max(hom, rel_residual(box_times(lam * a, b, floor=floor), ref, floor=floor))
        hom = max(hom, rel_residual(box_times(a, lam * b, floor=floor), ref, floor=floor))
    return _result({"biadditivity": (biadd, MEANS_REL_TOL), "homogeneity": (hom, MEANS_REL_TOL)})


def check_vsn_trial(inst: Instance, config: TrialConfig, grids: Grids) -> TrialResult:
    tol = config.tolerances
    g = WeightedGram(SeminormSpec(inst.sip, inst.u), inst.x, inst.y)
    tols = {"positivity": tol.rel, "homogeneity": tol.rel, "triangle": tol.rel,
            "square": SQUARE_REL_TOL}
    return _result({k: (v, tols[k]) for k, v in seminorm_residuals(g, floor=tol.abs).items()})


def check_sharp_trial(inst: Instance, config: TrialConfig, grids: Grids) -> TrialResult:
    tol = config.tolerances
    g = WeightedGram(SeminormSpec(inst.sip, inst.u), inst.x, inst.y)
    st = sharp_verdict(g, band=tol.cone_band, floor=tol.abs)
    sandwich, gap = weighted_defect_gaps(g, grids.lam, tol.abs)
    return _result({
        "chain": (st.chain, CHAIN_FLOOR),
        "equality_iff_positive": (
            _mismatch(st.borderline, st.equality_holds == st.condition_holds), BICOND_TOL),
        "weighted_sandwich": (sandwich, SANDWICH_FLOOR),
        "weighted_gap": (gap, DEFECT_GAP_REL_TOL),
    }, borderline=st.borderline, tags=_branch(st.equality_holds))


def check_additivity_trial(inst: Instance, config: TrialConfig, grids: Grids) -> TrialResult:
    tol = config.tolerances
    g = WeightedGram(SeminormSpec(inst.sip, inst.u), inst.x, inst.y)
    ac = additivity_verdict(g, band=tol.cone_band, floor=tol.abs)
    agreed = ac.additive == (ac.condition_pos and ac.condition_defect_zero)
    tags = (
        "additive" if ac.additive else "nonadditive",
        "cond_pos_true" if ac.condition_pos else "cond_pos_false",
        "cond_defect_true" if ac.condition_defect_zero else "cond_defect_false",
    )
    return _result({"characterization": (_mismatch(ac.borderline, agreed), BICOND_TOL)},
                   borderline=ac.borderline, tags=tags)


def check_pythagoras_trial(inst: Instance, config: TrialConfig, grids: Grids) -> TrialResult:
    tol = config.tolerances
    g = WeightedGram(SeminormSpec(inst.sip, inst.u), inst.x, inst.y)
    pre = orthogonality(g, floor=tol.abs)
    # The identity is only asserted, and its seminorms only evaluated,
    # when the orthogonality hypothesis holds.
    ident = 0.0 if pre > PRECOND_TOL else rel_residual(*pythagoras_sides(g), floor=tol.abs)
    return _result({"orthogonality": (pre, PRECOND_TOL), "identity": (ident, tol.rel)},
                   tags=(inst.kind,))


def check_parallelogram_trial(inst: Instance, config: TrialConfig, grids: Grids) -> TrialResult:
    tol = config.tolerances
    g = WeightedGram(SeminormSpec(inst.sip, inst.u), inst.x, inst.y)
    return _result({"identity": (rel_residual(*parallelogram_sides(g), floor=tol.abs), tol.rel)},
                   tags=(inst.kind,))


def check_oracle_trial(inst: Instance, config: TrialConfig, grids: Grids) -> TrialResult:
    tol = config.tolerances
    x = as_lattice_vector(inst.x)
    y = as_lattice_vector(inst.y, x.size)
    u, v = np.abs(x), np.abs(y)
    bt_sandwich, bt_gap = box_times_gaps(u, v, grids.theta, tol.abs)
    # Outside the grid's range the theta oracle's over-estimate is not
    # tight, so its gap is not asserted there.
    covered = grids.theta.covers(theta_minimizer(u, v))
    bp_sandwich, bp_gap = box_plus_gaps(x, y, grids.angle, tol.abs)
    quarter = rel_residual(box_plus_oracle(u, v, grids.angle),
                           box_plus_oracle(u, v, grids.angle, quarter=True), floor=tol.abs)
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


def _run_check(theorem: str, inst: Instance, config: TrialConfig,
               grids: Grids) -> TrialResult:
    try:
        return CHECKS[theorem](inst, config, grids)
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
    if config is None or theorem not in CHECKS:
        raise ConfigError("a counterexample needs an 'instance' and a known 'theorem'")
    return _run_check(theorem, inst, config, build_grids(config))


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


def _generate_or_none(config: TrialConfig, trial_index: int, purpose: str):
    try:
        return generate_instance(config, trial_index, purpose)
    except GenerationExhausted:
        return None


def run_suite(config: TrialConfig, injected: tuple = ()) -> VerificationReport:
    """Run every selected theorem suite and aggregate a report.

    injected instances (the fault-injection surface) are appended to every
    selected suite after the generated trials, so the reported trial count
    is config.trials + len(injected) per theorem. Each purpose's trials are
    generated once per run and shared by the suites that read them (None
    where generation gave up); checks never modify an instance.
    """
    start = time.perf_counter()
    grids = build_grids(config)
    theorems = {}
    uses = Counter(PURPOSES[name] for name in config.theorems)
    generated: dict = {}
    for name in config.theorems:
        purpose = PURPOSES[name]
        if purpose not in generated:
            generated[purpose] = [_generate_or_none(config, i, purpose)
                                  for i in range(config.trials)]
        uses[purpose] -= 1
        # the last suite of a purpose releases its instances
        trials = generated[purpose] if uses[purpose] else generated.pop(purpose)
        passes = failures = borderline = 0
        residual_max: dict = {}
        counts: dict = {}
        worst = None  # (ratio, summary dict)
        counterexamples = []
        params = params_from_config(config)

        def record(inst: Instance | None, res: TrialResult):
            nonlocal passes, failures, borderline, worst
            for k, v in res.residuals.items():
                residual_max[k] = max(residual_max.get(k, 0.0), v, key=_rank)
            for t in res.tags:
                counts[t] = counts.get(t, 0) + 1
            ratio = res.ratio
            if worst is None or _rank(ratio) > _rank(worst[0]):
                worst = (ratio, {
                    "ratio": ratio,
                    "residuals": dict(res.residuals),
                    "failed": list(res.failed),
                    "instance": inst.to_dict() if inst is not None else None,
                })
            if res.status == "fail":
                failures += 1
                if inst is not None and len(counterexamples) < MAX_COUNTEREXAMPLES:
                    counterexamples.append(counterexample(name, res, inst, params))
            elif res.status == "borderline":
                borderline += 1
            else:
                passes += 1

        for inst in trials:
            if inst is None:
                record(None, _result({"generation": (1.0, BICOND_TOL)}))
            else:
                record(inst, _run_check(name, inst, config, grids))
        for inst in injected:
            record(inst, _run_check(name, inst, config, grids))

        theorems[name] = {
            "trials": config.trials + len(injected),
            "passes": passes,
            "failures": failures,
            "borderline": borderline,
            "max_residual": max(residual_max.values(), default=0.0, key=_rank),
            "residuals": residual_max,
            "counts": counts,
            "worst_instance": worst[1] if worst else None,
            "counterexamples": counterexamples,
        }

    return VerificationReport(
        config=asdict(config),
        theorems=theorems,
        wall_time_s=time.perf_counter() - start,
    )


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
    grids = build_grids(config)
    res = _run_check(theorem, inst, config, grids)
    if res.status != "fail":
        raise ConfigError("shrink requires an instance that fails the check")
    current = inst
    progress = True
    while progress:
        progress = False
        for cand in _shrink_candidates(current):
            cand_res = _run_check(theorem, cand, config, grids)
            if cand_res.status == "fail":
                current, res = cand, cand_res
                progress = True
                break
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
    pairs = []
    for i in range(config.trials):
        gen = generate_instance(config, i, "generic")
        pairs.append((generate_instance(config, i, "positive_log"),
                      Gram(gen.sip, gen.x, gen.y)))
    rows = []
    sandwich_ok = True
    for G in sizes:
        grids = build_grids(replace(config, theta_count=G, angle_count=G, lambda_count=G))
        row = {"grid_size": G, "box_times_gap": 0.0, "box_plus_gap": 0.0, "defect_gap": 0.0}
        for pos, g in pairs:
            for key, (sandwich, gap) in (
                    ("box_times_gap", box_times_gaps(abs(pos.x), abs(pos.y), grids.theta, floor)),
                    ("box_plus_gap", box_plus_gaps(pos.x, pos.y, grids.angle, floor)),
                    ("defect_gap", defect_gaps(g, grids.lam, floor))):
                if sandwich > SANDWICH_FLOOR:
                    sandwich_ok = False
                row[key] = max(row[key], gap)
        rows.append(row)

    monotone_ok = True
    for key in ("box_times_gap", "box_plus_gap", "defect_gap"):
        vals = [r[key] for r in rows]
        if any(vals[i + 1] > vals[i] + 1e-15 for i in range(len(vals) - 1)):
            monotone_ok = False

    return StudyReport(
        config=asdict(config),
        grid_sizes=sizes,
        rows=rows,
        monotone_ok=monotone_ok,
        sandwich_ok=sandwich_ok,
        wall_time_s=time.perf_counter() - start,
    )


def report_to_json(data: dict) -> str:
    """Stable serialization: sorted keys, fixed indentation, newline at EOF.

    The one writer of reports (through emit_report) and of shrink's output.
    """
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def emit_report(report, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report.to_dict()))
