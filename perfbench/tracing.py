"""Span tracing around the public functions of every riesz_sip module.

The tracer wraps functions from the benchmark side only: it rebinds every
name under which a wrapped function is reachable (its home module, each
module that imported it, the package namespace and the harness's CHECKS
registry) and restores the originals on exit. The program itself is not
changed.

A span is (name, start, end, parent). Spans are kept in flat arrays in
memory while the workload runs and written out once at the end. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from riesz_sip.harness import THEOREMS

MODULES = ("lattice", "means", "sip", "cauchy_schwarz", "seminorms", "harness", "cli")
PURPOSES = ("generic", "positive_log", "orthogonal")
DOUBLE = 8  # bytes per float64
# Metrics of the tracing itself, added by the worker next to per_layer_metrics.
TRACE_UNITS = {"trace.spans": "count", "trace.untraced_wall_s": "s",
               "trace.traced_wall_s": "s", "trace.overhead_s": "s"}


class Tracer:
    """Records spans while enabled; wrappers are no-ops when disabled."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn, name=None, name_of=None, note=None):
        """Wrapper recording one span per call of fn.

        name is a fixed span name; name_of(args, kwargs) picks one per call.
        note(args, kwargs, result) attaches a value to the span.
        """
        fixed = self.name_id(name) if name is not None else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(fixed if name_of is None else self.name_id(name_of(args, kwargs)))
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.notes[idx] = ("raised", type(exc).__name__)
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write every span as one CSV row: name,start_s,end_s,parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")


def _purpose(args, kwargs) -> str:
    purpose = args[2] if len(args) > 2 else kwargs.get("purpose", "generic")
    return f"harness.generate.{purpose}"


def _run_check_note(args, kwargs, result):
    return ("invalid" if "invalid_instance" in result.residuals else "ok", result.status)


def _theta_bytes(args, kwargs):
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    points = grid.count if grid is not None else 10_000
    return points * len(args[0]) * DOUBLE


def _angle_bytes(args, kwargs):
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    quarter = args[3] if len(args) > 3 else kwargs.get("quarter", False)
    if grid is None:
        return 4096 * len(args[0]) * DOUBLE
    points = int((grid.points <= 0.5 * math.pi).sum()) if quarter else grid.count
    return points * len(args[0]) * DOUBLE


def _lambda_bytes(args, kwargs):
    # Z = lambda*x - y is (2*count, m); T(Z, Z) is (2*count, n).
    T = args[0]
    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    points = 2 * (grid.count if grid is not None else 2001)
    return points * (len(args[1]) + T.codomain_dim) * DOUBLE


def _bytes_note(size_of):
    return lambda args, kwargs, result: ("bytes", size_of(args, kwargs))


@contextmanager
def traced_program(tracer: Tracer):
    """Install wrappers on every riesz_sip module for the duration of the block."""
    pkg = importlib.import_module("riesz_sip")
    mods = {m: importlib.import_module(f"riesz_sip.{m}") for m in MODULES}
    harness = mods["harness"]

    names = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                names[obj] = f"{short}.{attr}"
    names[harness._run_check] = "harness.run_check"
    for suite, fn in harness.CHECKS.items():
        names[fn] = f"harness.check.{suite}"

    special = {
        harness.generate_instance: dict(name_of=_purpose),
        harness._run_check: dict(note=_run_check_note),
        mods["means"].box_times_oracle: dict(note=_bytes_note(_theta_bytes)),
        mods["means"].box_plus_oracle: dict(note=_bytes_note(_angle_bytes)),
        mods["cauchy_schwarz"].defect_grid: dict(note=_bytes_note(_lambda_bytes)),
    }
    wrappers = {}
    for fn, name in names.items():
        opts = special.get(fn, {})
        wrappers[fn] = tracer.wrap(fn, name=None if "name_of" in opts else name, **opts)

    undo = []
    for mod in (pkg, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    checks = dict(harness.CHECKS)
    harness.CHECKS.update({k: wrappers[v] for k, v in checks.items()})

    methods = [(mods["sip"].PsdFamilySip, "eval_batch", "sip.eval_batch"),
               (mods["sip"].MultiplicationSip, "eval_batch", "sip.eval_batch"),
               (mods["sip"].PsdFamilySip, "eval", "sip.eval"),
               (mods["sip"].MultiplicationSip, "eval", "sip.eval"),
               (harness.Instance, "to_dict", "harness.Instance.to_dict")]
    saved = []
    for cls, attr, name in methods:
        saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name=name))
    from_dict = harness.Instance.__dict__["from_dict"]
    saved.append((harness.Instance, "from_dict", from_dict))
    harness.Instance.from_dict = classmethod(
        tracer.wrap(from_dict.__func__, name="harness.Instance.from_dict"))
    try:
        yield tracer
    finally:
        for cls, attr, orig in saved:
            setattr(cls, attr, orig)
        harness.CHECKS.update(checks)
        for mod, attr, obj in undo:
            setattr(mod, attr, obj)


def span_table(tracer: Tracer) -> tuple:
    """({span name: calls, total_s, self_s}, duration per span, child time per span)."""
    n = len(tracer)
    child = [0.0] * n
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i in range(n):
        row = table[tracer.names[tracer.name[i]]]
        row["calls"] += 1
        row["total_s"] += dur[i]
        row["self_s"] += dur[i] - child[i]
    return dict(table), dur, child


# Per-layer metrics read straight off one span name: (metric, span, stat),
# stat being calls or self seconds per session, or mean microseconds per call.
SPAN_METRICS = (
    ("lattice.as_lattice_vector.calls", "lattice.as_lattice_vector", "calls"),
    ("lattice.as_lattice_vector.self_s", "lattice.as_lattice_vector", "self_s"),
    ("means.box_times.calls", "means.box_times", "calls"),
    ("means.box_plus.calls", "means.box_plus", "calls"),
    ("means.box_times_oracle.self_s", "means.box_times_oracle", "self_s"),
    ("means.box_plus_oracle.self_s", "means.box_plus_oracle", "self_s"),
    ("sip.sip_eval.calls", "sip.sip_eval", "calls"),
    ("sip.sip_eval.self_s", "sip.sip_eval", "self_s"),
    ("sip.eval_batch.self_s", "sip.eval_batch", "self_s"),
    ("sip.orthogonal_sample.self_s", "sip.orthogonal_sample", "self_s"),
    ("cauchy_schwarz.defect_grid.self_s", "cauchy_schwarz.defect_grid", "self_s"),
    ("cauchy_schwarz.defect_closed.calls", "cauchy_schwarz.defect_closed", "calls"),
    ("seminorms.seminorm_eval.calls", "seminorms.seminorm_eval", "calls"),
    ("seminorms.sharpened_triangle.self_s", "seminorms.sharpened_triangle", "self_s"),
    ("seminorms.additivity_check.self_s", "seminorms.additivity_check", "self_s"),
    ("seminorms.pythagoras_check.self_s", "seminorms.pythagoras_check", "self_s"),
    ("seminorms.parallelogram_residual.self_s", "seminorms.parallelogram_residual", "self_s"),
    *((f"harness.generate.{p}.{suffix}", f"harness.generate.{p}", stat)
      for p in PURPOSES for suffix, stat in (("calls", "calls"), ("us_per_instance", "us"))),
    *((f"harness.check.{suite}.us_per_trial", f"harness.check.{suite}", "us")
      for suite in THEOREMS),
    ("harness.emit_report.s", "harness.emit_report", "total_s"),
    ("harness.replay.us_per_call", "harness.replay_counterexample", "us"),
    ("harness.study.self_s", "harness.convergence_study", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "us": "us"}


def per_layer_metrics(tracer: Tracer, sessions: int) -> dict:
    """The per-layer metrics, per session of the traced phase.

    Counts and times are divided by the number of sessions traced, so a
    faster program that fits more sessions into the run reads the same.
    """
    table, dur, child = span_table(tracer)
    names = [tracer.names[nid] for nid in tracer.name]
    per = 1.0 / max(sessions, 1)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}

    for mod in MODULES:
        rows = [r for k, r in table.items() if k.split(".", 1)[0] == mod]
        out[f"{mod}.calls"] = (per * sum(r["calls"] for r in rows), "count")
        out[f"{mod}.self_s"] = (per * sum(r["self_s"] for r in rows), "s")
    for metric, span, stat in SPAN_METRICS:
        r = table.get(span, empty)
        if stat == "us":
            value = 1e6 * r["total_s"] / r["calls"] if r["calls"] else 0.0
        else:
            value = per * r[stat]
        out[metric] = (value, STAT_UNITS[stat])

    grid_bytes = {"means": 0, "cauchy_schwarz": 0}
    invalid = 0
    for idx, note in tracer.notes.items():
        if note[0] == "bytes":
            grid_bytes[names[idx].split(".", 1)[0]] += note[1]
        elif note[0] == "invalid":
            invalid += 1
    out["means.grid_bytes_computed"] = (per * grid_bytes["means"], "B")
    out["cauchy_schwarz.grid_bytes_computed"] = (per * grid_bytes["cauchy_schwarz"], "B")
    out["harness.invalid_instance.count"] = (per * invalid, "count")

    # A parent span always precedes its children, so one pass sees every
    # run_suite and shrink span before the spans inside it.
    aggregate = candidate_s = 0.0
    shrink_ids = set()
    checks_in_shrink = fails_in_shrink = 0
    for i, nm in enumerate(names):
        p = tracer.parent[i]
        if nm == "harness.shrink":
            shrink_ids.add(i)
            candidate_s += dur[i] - child[i]  # the JSON round-trips of candidates
        elif nm == "harness.run_suite":
            aggregate += dur[i]
        if p >= 0 and names[p] == "harness.run_suite" and (
                nm.startswith("harness.generate.") or nm == "harness.run_check"):
            aggregate -= dur[i]  # run_suite time outside generation and checks
        if p in shrink_ids:
            if nm == "harness.run_check":
                checks_in_shrink += 1
                fails_in_shrink += tracer.notes.get(i, ("", ""))[1] == "fail"
            elif nm in ("harness.Instance.from_dict", "harness.Instance.to_dict"):
                candidate_s += dur[i]
    shrinks = len(shrink_ids)
    # The first check of a shrink is the failing input itself; every later
    # check is a candidate, kept when it still fails.
    candidates = checks_in_shrink - shrinks
    out["harness.aggregate.self_s"] = (per * aggregate, "s")
    out["harness.shrink.checks_per_op"] = (
        checks_in_shrink / shrinks if shrinks else 0.0, "count")
    out["harness.shrink.accept_ratio"] = (
        (fails_in_shrink - shrinks) / candidates if candidates > 0 else 0.0, "ratio")
    out["harness.shrink.candidate_self_s"] = (per * candidate_s, "s")
    return out
