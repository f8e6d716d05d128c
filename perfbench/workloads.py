"""The benchmark workloads, each driven through riesz_sip.cli.main as a user would.

Every workload is a closed loop: one caller, the next operation issued
only after the previous one returns. A workload runs in sessions; each
session's inputs come from (seed, session index) alone and are made
before its clock starts. Only calls into the program are timed.

  verify-default     `verify` over all nine suites at the TrialConfig
                     defaults; only --trials and --seed are set. Tiny shapes,
                     so per-call Python/numpy overhead dominates.
  oracle-study-fine  `oracle-study --grids 1000,10000,100000`; the grid
                     kernels do nearly all the work.
  triage-shrink      fault triage at a batch of 1: `verify --instances` over
                     generated broken instances, then `shrink` for every
                     (instance, failing suite) pair, and a replay of every
                     counterexample written.

Each session records its operations in a Ledger: how many were attempted,
how many failed or raised (with the exception's class and message), and
any wrong output, which fails the correctness gate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import struct
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from riesz_sip import cli, harness

SUITES = harness.THEOREMS
MAX_VIOLATIONS = 50

# Program seeds. Session k of benchmark seed s runs the program at
# SEED_POOL[(s * POOL_STRIDE + k) % len(SEED_POOL)], so runs with seeds that
# differ modulo POOL_CLASSES do disjoint work. The pool is program seeds
# 0..POOL_CLASSES * POOL_STRIDE - 1 less FALSE_FAILURE_SEEDS: those at which
# `riesz-sip verify --trials 50 --seed P` fails a generated trial, each on
# an axioms residual that check_axioms divides by |T(x, y)| (homogeneity,
# symmetry), at 1.1e-9 to 1.3e-9 against a 1e-9 tolerance: rounding error
# over a T(x, y) that nearly cancels. The theorems hold, so these are false
# failures of the program; they are left standing, and
# test_false_failures_still_show replays them. A workload must be one on
# which no operation fails, so the benchmark leaves them out; every other
# pool seed passes that verify call.
POOL_STRIDE = 64  # at least the sessions of a run
POOL_CLASSES = 64
FALSE_FAILURE_SEEDS = frozenset({1882, 1892})
SEED_POOL = tuple(p for p in range(POOL_CLASSES * POOL_STRIDE)
                  if p not in FALSE_FAILURE_SEEDS)

# The speed of a shared machine drifts by tens of percent within seconds.
# Every time sample is therefore rescaled by the speed of the machine
# around it: a Reference kernel's nominal seconds over its time measured
# just before and just after the operation (operations shorter than
# REFRESH_S share the pair). A sample then reads as seconds on a machine
# that runs the kernel in its nominal time. Each workload uses the kernel
# whose mix of work tracks its own best: interpreted Python and numpy calls
# on tiny arrays for the overhead-bound workloads, plus one pass over
# arrays larger than L2 for the grid study. The kernels share no code with
# riesz_sip, so a change to the program does not move them. The samples as
# measured are kept as raw_<name>.
REFRESH_S = 0.1
REUSE_S = 0.05  # a reference timing this recent also opens the next segment


def interpreter_kernel() -> float:
    s = 0
    for i in range(10_000):
        s += i * i
    a = np.arange(16.0)
    for _ in range(600):
        a = np.sqrt(a * a + 1.0)
    b = np.arange(100_000.0)
    for _ in range(6):
        b = np.sqrt(b * b + 1.0)
    return float(s) + float(a[0]) + float(b[0])


def array_kernel() -> float:
    s = 0
    for i in range(10_000):
        s += i * i
    a = np.arange(16.0)
    for _ in range(600):
        a = np.sqrt(a * a + 1.0)
    b = np.arange(1_000_000.0)
    b = np.sqrt(b * b + 1.0)
    return float(s) + float(a[0]) + float(b[0])


class Reference:
    """A fixed kernel and its nominal seconds."""

    def __init__(self, kernel, nominal_s: float):
        self.kernel, self.nominal_s = kernel, nominal_s

    def time(self, reps: int = 3) -> float:
        """Median wall time of the kernel over reps runs."""
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


INTERPRETER = Reference(interpreter_kernel, 0.004)
ARRAYS = Reference(array_kernel, 0.012)


class Segment:
    """Operations between two reference-kernel timings."""

    def __init__(self, ref_before: float):
        self.ref_before = ref_before
        self.speed = None  # set by close()
        self.program_s = 0.0

    def close(self, ref_after: float, nominal_s: float) -> float:
        self.speed = nominal_s / (0.5 * (self.ref_before + ref_after))
        return self.speed


class Timing:
    """Seconds of one or more program calls, as measured and rescaled."""

    def __init__(self):
        self.parts: list = []  # (seconds, Segment)

    def __iadd__(self, other: "Timing") -> "Timing":
        self.parts += other.parts
        return self

    @property
    def raw(self) -> float:
        return sum(dt for dt, _ in self.parts)

    @property
    def scaled(self) -> float:
        return sum(dt * seg.speed for dt, seg in self.parts)


class Ledger:
    """Operations attempted and failed, timing samples and gate violations.

    Time samples are added as Timing objects and resolved into samples[name]
    (rescaled) and samples[raw_<name>] by finish(), once every segment they
    cover is closed.
    """

    def __init__(self, reference: Reference = INTERPRETER):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.violations: list[str] = []
        self.violation_count = 0
        self.samples = defaultdict(list)
        self.program_s = 0.0
        self.report_sha256 = None
        self._segment = None
        self._pending: list = []
        self._last_ref = (-math.inf, 0.0)  # (monotonic time, reference time)

    def error(self, what: str) -> None:
        self.errors[what] = self.errors.get(what, 0) + 1

    def violate(self, what: str) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(what)

    def _reference_time(self, reuse: bool = False) -> float:
        at, ref = self._last_ref
        if not (reuse and time.monotonic() - at < REUSE_S):
            ref = self.reference.time()
            self._last_ref = (time.monotonic(), ref)
        return ref

    def _close(self, seg: Segment, ref_after: float) -> None:
        self.samples["speed"].append(seg.close(ref_after, self.reference.nominal_s))

    def segment(self) -> Segment:
        """The open segment, or a new one when REFRESH_S of program time has passed."""
        seg = self._segment
        if seg is None or seg.program_s >= REFRESH_S:
            ref = self._reference_time(reuse=seg is None)
            if seg is not None:
                self._close(seg, ref)
            seg = self._segment = Segment(ref)
        return seg

    def add(self, key: str, t: Timing, scale: float = 1.0) -> None:
        """A time sample: t's seconds times scale."""
        self._pending.append((key, t, scale, None))

    def add_rate(self, key: str, work: float, t: Timing) -> None:
        """A rate sample: work per second of t."""
        self._pending.append((key, t, 1.0, work))

    def finish(self) -> None:
        """Close the open segment and resolve every pending sample."""
        if self._segment is not None:
            self._close(self._segment, self._reference_time())
            self._segment = None
        for key, t, scale, work in self._pending:
            scaled, raw = t.scaled, t.raw
            if work is None:
                self.samples[key].append(scale * scaled)
                self.samples[f"raw_{key}"].append(scale * raw)
            else:
                self.samples[key].append(work / scaled)
                self.samples[f"raw_{key}"].append(work / raw)
        self._pending.clear()

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "violations": self.violations,
            "violation_count": self.violation_count,
            "samples": dict(self.samples),
            "program_s": self.program_s,
            "report_sha256": self.report_sha256,
        }


def _exc_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def timed(ledger: Ledger, fn, *args):
    """Run one program call; return (result, Timing, exception or None)."""
    seg = ledger.segment()
    start = time.perf_counter()
    try:
        result, exc = fn(*args), None
    except Exception as e:  # a raising operation is counted, never fatal
        result, exc = None, e
    dt = time.perf_counter() - start
    ledger.program_s += dt
    seg.program_s += dt
    t = Timing()
    t.parts.append((dt, seg))
    return result, t, exc


def _cli(argv: list) -> int:
    # Looked up at call time so a traced run sees the wrapped cli.main.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _replay(ce: dict):
    return harness.replay_counterexample(ce)


def report_sha256(report: dict) -> str:
    """Hash of a report as the program serializes it, without wall_time_s."""
    body = {k: v for k, v in report.items() if k != "wall_time_s"}
    text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def same_bits(a: float, b: float) -> bool:
    """Bitwise float equality; any NaN matches any NaN (JSON drops the payload)."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", float(a)) == struct.pack("<d", float(b))


def residuals_match(recorded: dict, replayed: dict) -> bool:
    return recorded.keys() == replayed.keys() and all(
        same_bits(recorded[k], replayed[k]) for k in recorded)


def _finite_residuals(entry: dict) -> bool:
    values = [entry["max_residual"], *entry["residuals"].values()]
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _load(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


# Correctness gates. Each records what is wrong in the ledger.

def verify_gate(report: dict, rc: int, ledger: Ledger, label: str) -> None:
    """A verify run without injected faults: no failures, finite residual maxima."""
    for suite in SUITES:
        entry = report["theorems"][suite]
        if entry["failures"]:
            ledger.failed += entry["failures"]
            ledger.violate(f"{label}: suite {suite} has {entry['failures']} failures")
        if not _finite_residuals(entry):
            ledger.violate(f"{label}: suite {suite} has a non-finite residual maximum")
    if rc != 0 or report["ok"] is not True:
        ledger.violate(f"{label}: exit code {rc}, ok={report['ok']}")


def study_gate(report: dict, rc: int, ledger: Ledger, label: str) -> bool:
    """An oracle study: ok, one-sided, monotone under refinement, finite gaps."""
    gaps = [row[k] for row in report["rows"]
            for k in ("box_times_gap", "box_plus_gap", "defect_gap")]
    ok = (rc == 0 and report["ok"] is True and report["monotone_ok"] is True
          and report["sandwich_ok"] is True and all(map(math.isfinite, gaps)))
    if not ok:
        ledger.failed += 1
        ledger.violate(f"{label}: exit code {rc}, monotone_ok={report['monotone_ok']}, "
                       f"sandwich_ok={report['sandwich_ok']}")
    return ok


def attribute_failures(report: dict, injected: list, ledger: Ledger, label: str) -> tuple:
    """Map each suite's counterexamples back to the injected instances.

    Every failure must belong to an injected instance (the generated trials
    satisfy the theorems), and every injected instance must be caught by at
    least one suite. Returns ({injected index: [suites]}, counterexamples).
    """
    index = {_canonical(inst): i for i, (_, _, inst) in enumerate(injected)}
    failing = defaultdict(list)
    counterexamples = []
    for suite in SUITES:
        entry = report["theorems"][suite]
        ces = entry["counterexamples"]
        if entry["failures"] != len(ces):
            ledger.failed += entry["failures"] - len(ces)
            ledger.violate(f"{label}: suite {suite} has {entry['failures']} failures "
                           f"but {len(ces)} counterexamples")
        for ce in ces:
            i = index.get(_canonical(ce["instance"]))
            if i is None:
                ledger.failed += 1
                ledger.violate(f"{label}: a generated trial fails suite {suite}")
                continue
            failing[i].append(suite)
            counterexamples.append(ce)
    for i, (path, cls, _) in enumerate(injected):
        if not failing[i]:
            ledger.failed += 1
            ledger.violate(f"{label}: injected {cls} instance {path.name} "
                           "is caught by no suite")
    return failing, counterexamples


def replay_gate(ce: dict, ledger: Ledger, what: str) -> Timing:
    """Replay one counterexample: it must still fail, with the same bits."""
    res, t, exc = timed(ledger, _replay, ce)
    ledger.attempted += 1
    ledger.add("replay_us", t, 1e6)
    if exc is not None:
        ledger.failed += 1
        ledger.error(_exc_text(exc))
        ledger.violate(f"replay of {what} raised {_exc_text(exc)}")
    elif res.status != "fail":
        ledger.failed += 1
        ledger.violate(f"replay of {what} no longer fails")
    elif not residuals_match(ce["residuals"], res.residuals):
        ledger.failed += 1
        ledger.violate(f"replay of {what} changed its residuals")
    return t


class Workload:
    """One benchmark workload; subclasses define session, and may extend prepare."""

    name = ""
    min_op_samples = 1  # samples of op_ms a run needs before it may stop
    reference = INTERPRETER
    session_s = 1.0  # about the program seconds of one session on a 2-core VM

    def sessions(self, seconds: float) -> int:
        """The sessions a run of that many seconds does, whatever the machine's speed."""
        return max(1, round(seconds / self.session_s))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def session_seed(self, k: int) -> int:
        """Program seed of session k; the warm-up (k = -1) is the same for every seed."""
        return 0 if k < 0 else SEED_POOL[(self.seed * POOL_STRIDE + k) % len(SEED_POOL)]

    def session_dir(self, k: int) -> Path:
        d = self.workdir / f"s{k}"
        if d.exists():
            shutil.rmtree(d)
        d.mkdir()
        return d

    def prepare(self, k: int) -> dict:
        return {"k": k, "seed": self.session_seed(k), "dir": self.session_dir(k)}

    def warm_up(self) -> None:
        """Run the session code once on throwaway inputs, outside any ledger."""
        inputs = self.prepare(-1)
        inputs["warm"] = True
        self.run(inputs, Ledger(self.reference))

    def run(self, inputs: dict, ledger: Ledger) -> None:
        """One session; its samples are resolved when it returns."""
        try:
            self.session(inputs, ledger)
        finally:
            ledger.finish()

    def session(self, inputs: dict, ledger: Ledger) -> None:
        raise NotImplementedError

    def headline(self, ledger: Ledger) -> dict:
        """Workload-specific metrics as (value, unit, sample count)."""
        return {}


def _one_call_session(ledger: Ledger, t: Timing, work: float) -> None:
    ledger.add("session_s", t)
    ledger.add("op_ms", t, 1e3)
    ledger.add_rate("work_per_s", work, t)


class VerifyDefault(Workload):
    """`verify` at the TrialConfig defaults, one call per session."""

    name = "verify-default"
    session_s = 0.34
    trials = 50
    warm_trials = 2

    def session(self, inputs: dict, ledger: Ledger) -> None:
        trials = self.warm_trials if inputs.get("warm") else self.trials
        report_path = inputs["dir"] / "report.json"
        argv = ["verify", "--trials", str(trials), "--seed", str(inputs["seed"]),
                "--report", str(report_path)]
        rc, t, exc = timed(ledger, _cli, argv)
        checks = trials * len(SUITES)
        ledger.attempted += checks
        report = _load(report_path) if exc is None else None
        if report is None:
            ledger.failed += checks
            ledger.error(_exc_text(exc) if exc is not None else f"verify exit code {rc}, no report")
            return
        verify_gate(report, rc, ledger, f"verify seed {inputs['seed']}")
        _one_call_session(ledger, t, checks)
        if inputs["k"] == 0:
            ledger.report_sha256 = report_sha256(report)

    def headline(self, ledger):
        rates = ledger.samples["work_per_s"]
        return {"verify_trials_per_s": (statistics.median(rates), "trial-checks/s", len(rates))}


class OracleStudyFine(Workload):
    """`oracle-study` at three grid resolutions, one call per session."""

    name = "oracle-study-fine"
    session_s = 1.4
    reference = ARRAYS
    grids = (1000, 10_000, 100_000)
    trials = 25
    warm_trials = 1

    def session(self, inputs: dict, ledger: Ledger) -> None:
        trials = self.warm_trials if inputs.get("warm") else self.trials
        report_path = inputs["dir"] / "study.json"
        argv = ["oracle-study", "--grids", ",".join(map(str, self.grids)),
                "--trials", str(trials), "--seed", str(inputs["seed"]),
                "--report", str(report_path)]
        rc, t, exc = timed(ledger, _cli, argv)
        ledger.attempted += 1
        report = _load(report_path) if exc is None else None
        if report is None:
            ledger.failed += 1
            ledger.error(_exc_text(exc) if exc is not None
                         else f"oracle-study exit code {rc}, no report")
            return
        study_gate(report, rc, ledger, f"oracle-study seed {inputs['seed']}")
        _one_call_session(ledger, t, sum(self.grids) * trials * 3)
        if inputs["k"] == 0:
            ledger.report_sha256 = report_sha256(report)

    def headline(self, ledger):
        rates = ledger.samples["work_per_s"]
        return {"grid_points_per_s": (statistics.median(rates), "points/s", len(rates))}


# One session's injected instances, by class. Shape classes append one
# coordinate to u, x or y of an otherwise valid PSD instance. The seven PSD
# instances of session k take the domain dimensions DOMAIN_DIMS and the
# codomain dimensions CODOMAIN_DIMS rotated by k and 3k places, so every
# session covers m up to 12 and n up to 8, every class meets every
# dimension within seven sessions, and runs with different seeds do the
# same mix of work; the entries come from the seed.
BROKEN_CLASSES = ("asymmetric", "asymmetric", "negative", "negative",
                  "shape-u", "shape-x", "shape-y", "overflow")
DOMAIN_DIMS = (2, 4, 5, 7, 9, 10, 12)
CODOMAIN_DIMS = (1, 2, 3, 5, 6, 7, 8)


def broken_instance(rng: np.random.Generator, cls: str, m: int, n: int) -> dict:
    """A deliberately broken instance in the program's instance JSON format.

    asymmetric: one PSD member gets an antisymmetric perturbation.
    negative:   one member is negated, so it is negative definite.
    shape-*:    u, x or y carries one coordinate too many.
    overflow:   multiplication sip on R^n with x = y holding a 1e200 entry.
    """
    if cls == "overflow":
        x = rng.uniform(-10.0, 10.0, n)
        x[int(rng.integers(n))] = 1e200
        return {"kind": "multiplication", "m": n, "n": n,
                "u": rng.uniform(0.0, 10.0, n).tolist(),
                "x": x.tolist(), "y": x.tolist()}
    B = rng.uniform(-1.0, 1.0, (n, m, m))
    A = np.einsum("jka,jkb->jab", B, B)
    j = int(rng.integers(n))
    if cls == "asymmetric":
        N = rng.uniform(-1.0, 1.0, (m, m))
        A[j] += N - N.T
    elif cls == "negative":
        A[j] = -A[j]
    inst = {"kind": "psd_family", "m": m, "n": n, "matrices": A.tolist(),
            "u": rng.uniform(0.0, 10.0, n).tolist(),
            "x": rng.uniform(-10.0, 10.0, m).tolist(),
            "y": rng.uniform(-10.0, 10.0, m).tolist()}
    if cls.startswith("shape-"):
        key = cls[len("shape-"):]
        inst[key] = inst[key] + [float(rng.uniform(0.0, 10.0))]
    return inst


def _canonical(inst: dict) -> str:
    return json.dumps(inst, sort_keys=True)


class TriageShrink(Workload):
    """verify --instances, then shrink and replay, over broken instances."""

    name = "triage-shrink"
    session_s = 1.0
    trials = 5
    min_op_samples = 100  # so that shrink_p90_ms has 10 samples beyond it

    def prepare(self, k: int) -> dict:
        inputs = super().prepare(k)
        rng = np.random.default_rng(inputs["seed"])
        dims = len(DOMAIN_DIMS)
        inst_dir = inputs["dir"] / "instances"
        inst_dir.mkdir()
        injected = []
        for i, cls in enumerate(BROKEN_CLASSES):
            if cls == "overflow":
                inst = broken_instance(rng, cls, 0, int(rng.integers(1, 9)))
            else:
                inst = broken_instance(rng, cls, DOMAIN_DIMS[(i + k) % dims],
                                       CODOMAIN_DIMS[(i + 3 * k) % dims])
            path = inst_dir / f"{i:02d}-{cls}.json"
            path.write_text(json.dumps(inst), encoding="utf-8")
            injected.append((path, cls, inst))
        inputs.update(instances=inst_dir, injected=injected)
        return inputs

    def warm_up(self) -> None:
        inputs = self.prepare(-1)
        for path, _, _ in inputs["injected"][1:]:
            path.unlink()
        inputs["injected"] = inputs["injected"][:1]
        self.run(inputs, Ledger(self.reference))

    def session(self, inputs: dict, ledger: Ledger) -> None:
        d, injected = inputs["dir"], inputs["injected"]
        label = f"triage seed {inputs['seed']}"
        report_path = d / "report.json"
        argv = ["verify", "--trials", str(self.trials), "--seed", str(inputs["seed"]),
                "--instances", str(inputs["instances"]), "--report", str(report_path)]
        rc, verify_t, exc = timed(ledger, _cli, argv)
        checks = (self.trials + len(injected)) * len(SUITES)
        ledger.attempted += checks
        report = _load(report_path) if exc is None else None
        if report is None:
            ledger.failed += checks
            ledger.error(_exc_text(exc) if exc is not None else f"verify exit code {rc}, no report")
            return
        if rc != 1 or report["ok"] is not False:
            ledger.violate(f"{label}: exit code {rc}, ok={report['ok']} "
                           "with broken instances injected")
        failing, counterexamples = attribute_failures(report, injected, ledger, label)
        session = Timing()
        session += verify_t
        for ce in counterexamples:
            session += replay_gate(ce, ledger, f"verify counterexample ({ce['theorem']})")

        for i, (path, cls, _) in enumerate(injected):
            for suite in failing[i]:
                out = d / f"shrunk-{i:02d}-{suite}.json"
                argv = ["shrink", "--instance", str(path), "--check", suite, "--out", str(out)]
                rc, t, exc = timed(ledger, _cli, argv)
                session += t
                ledger.attempted += 1
                if exc is not None or rc != 0:
                    ledger.failed += 1
                    ledger.error(_exc_text(exc) if exc is not None else f"shrink exit code {rc}")
                    continue
                ledger.add("op_ms", t, 1e3)
                session += replay_gate(_load(out), ledger, f"shrunk {cls} instance ({suite})")

        ledger.add("session_s", session)
        ledger.add_rate("work_per_s", checks, verify_t)
        if inputs["k"] == 0:
            ledger.report_sha256 = report_sha256(report)

    def headline(self, ledger):
        shrink = ledger.samples["op_ms"]
        rates = ledger.samples["work_per_s"]
        out = {"verify_trials_per_s": (statistics.median(rates), "trial-checks/s", len(rates))}
        if shrink:
            out["shrink_p50_ms"] = (statistics.median(shrink), "ms", len(shrink))
        if len(shrink) >= 2:
            out["shrink_p90_ms"] = (percentile(shrink, 90), "ms", len(shrink))
        return out


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


WORKLOADS = {w.name: w for w in (VerifyDefault, OracleStudyFine, TriageShrink)}
