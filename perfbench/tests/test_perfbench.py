"""Tests of the benchmark itself: smoke runs, metric names, correctness gate.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from riesz_sip import harness  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spec_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture
def small(monkeypatch):
    """Smoke sizes: a few trials per call."""
    monkeypatch.setattr(workloads.VerifyDefault, "trials", 3)
    monkeypatch.setattr(workloads.OracleStudyFine, "trials", 1)
    monkeypatch.setattr(workloads.TriageShrink, "trials", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_session_passes_the_gate(name, small, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    wl.warm_up()
    ledger = workloads.Ledger()
    wl.run(wl.prepare(0), ledger)
    assert ledger.violations == []
    assert ledger.attempted >= 1
    assert ledger.samples["session_s"] and ledger.samples["work_per_s"]
    assert ledger.samples["op_ms"]
    assert ledger.report_sha256 is not None
    for what, (value, unit, n) in wl.headline(ledger).items():
        assert NAME.fullmatch(what) and value > 0 and n >= 1


def test_triage_counts_raising_operations(small, tmp_path, monkeypatch):
    # A shrink that raises is a failed operation with its class and message
    # recorded; the session goes on with the next one.
    real = workloads._cli

    def cli(argv):
        if argv[0] == "shrink" and argv[4] == "axioms":
            raise ArithmeticError("injected by the test")
        return real(argv)

    monkeypatch.setattr(workloads, "_cli", cli)
    wl = workloads.TriageShrink(7, tmp_path)
    ledger = workloads.Ledger()
    wl.run(wl.prepare(0), ledger)
    raised = ledger.errors.pop("ArithmeticError: injected by the test")
    assert raised >= 2  # both asymmetric families fail the axioms suite
    assert ledger.failed == raised + sum(ledger.errors.values())
    assert ledger.violations == []
    assert len(ledger.samples["op_ms"]) > 0


def test_session_inputs_depend_only_on_seed(tmp_path):
    a = workloads.TriageShrink(3, tmp_path / "a").prepare(2)
    b = workloads.TriageShrink(3, tmp_path / "b").prepare(2)
    c = workloads.TriageShrink(4, tmp_path / "c").prepare(2)
    assert [i for _, _, i in a["injected"]] == [i for _, _, i in b["injected"]]
    assert [i for _, _, i in a["injected"]] != [i for _, _, i in c["injected"]]
    assert a["seed"] == b["seed"] != c["seed"]


def test_session_seeds_come_from_the_pool(tmp_path):
    for seed in (0, 1, 104, 2**40 + 3):
        wl = workloads.VerifyDefault(seed, tmp_path)
        seeds = {wl.session_seed(k) for k in range(3 * workloads.POOL_STRIDE)}
        assert seeds <= set(workloads.SEED_POOL)
        assert not seeds & workloads.FALSE_FAILURE_SEEDS
    firsts = {workloads.VerifyDefault(s, tmp_path).session_seed(0)
              for s in range(workloads.POOL_CLASSES)}
    assert len(firsts) == workloads.POOL_CLASSES


def test_false_failures_still_show():
    # The pool leaves these program seeds out because verify falsely fails a
    # generated axioms trial there. Once the program no longer does, this
    # fails and FALSE_FAILURE_SEEDS can go.
    for seed in sorted(workloads.FALSE_FAILURE_SEEDS):
        config = harness.TrialConfig(trials=50, seed=seed, theorems=("axioms",))
        entry = harness.run_suite(config).theorems["axioms"]
        assert entry["failures"] >= 1, seed
        for ce in entry["counterexamples"]:
            assert set(ce["failed"]) <= {"homogeneity_left", "homogeneity_right",
                                         "symmetry"}, seed


def test_a_run_repeats_its_operations_and_their_outcomes(small, tmp_path, monkeypatch):
    # --seconds fixes the sessions, not a time budget, so two runs of one
    # seed attempt and fail the same operations however fast the machine is.
    monkeypatch.setattr(workloads.TriageShrink, "min_op_samples", 1)
    runs = []
    for d in ("a", "b"):
        wl = workloads.TriageShrink(7, tmp_path / d)
        ledger = workloads.Ledger()
        sessions = worker.run_sessions(wl, ledger, 2 * wl.session_s, wl.prepare(0))
        runs.append((sessions, ledger.attempted, ledger.failed, ledger.errors))
    assert runs[0] == runs[1]
    assert runs[0][0] == 2


def test_metric_names_match_benchmark_json(tmp_path):
    for kind in ("end_to_end", "per_layer"):
        for name in spec_units(kind):
            assert NAME.fullmatch(name), name
    assert run.END_TO_END_UNITS == spec_units("end_to_end")
    tracer = tracing.Tracer()
    layers = tracing.per_layer_metrics(tracer, sessions=1)
    layers.update({k: (0.0, u) for k, u in tracing.TRACE_UNITS.items()})
    assert {k: u for k, (_, u) in layers.items()} == spec_units("per_layer")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric(trace, kind):
    proc = _bench("--workload", "verify-default", "--seed", "5", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == spec_units(kind)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_refuses_a_directory_without_the_program(tmp_path):
    proc = _bench("--workload", "verify-default", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# Negative tests: the gate must trip on tampered program output.

def _verify_report(tmp_path) -> dict:
    wl = workloads.VerifyDefault(1, tmp_path)
    inputs = wl.prepare(0)
    wl.trials = 2
    ledger = workloads.Ledger()
    wl.run(inputs, ledger)
    assert ledger.violations == []
    # the session directory is kept by run(); reread its report
    return json.loads((inputs["dir"] / "report.json").read_text())


def test_gate_trips_on_a_verify_report_with_a_failure(tmp_path):
    report = _verify_report(tmp_path)
    report["theorems"]["sharp"]["failures"] = 1
    ledger = workloads.Ledger()
    workloads.verify_gate(report, 0, ledger, "tampered")
    assert ledger.violation_count == 1 and ledger.failed == 1


def test_gate_trips_on_a_non_finite_residual(tmp_path):
    report = _verify_report(tmp_path)
    report["theorems"]["oracle"]["residuals"]["box_plus_gap"] = float("nan")
    ledger = workloads.Ledger()
    workloads.verify_gate(report, 0, ledger, "tampered")
    assert ledger.violation_count == 1


def test_gate_trips_on_a_failed_study(tmp_path):
    wl = workloads.OracleStudyFine(1, tmp_path)
    inputs = wl.prepare(0)
    wl.trials = 1
    ledger = workloads.Ledger()
    wl.run(inputs, ledger)
    report = json.loads((inputs["dir"] / "study.json").read_text())
    assert workloads.study_gate(report, 0, workloads.Ledger(), "untouched") is True
    report["rows"][-1]["defect_gap"] = 1.0  # refinement no longer monotone
    report["monotone_ok"] = False
    ledger = workloads.Ledger()
    assert workloads.study_gate(report, 0, ledger, "tampered") is False
    assert ledger.violation_count == 1


def _counterexample(tmp_path) -> dict:
    wl = workloads.TriageShrink(2, tmp_path)
    inputs = wl.prepare(0)
    path, _, _ = inputs["injected"][0]  # an asymmetric family: fails axioms
    out = tmp_path / "shrunk.json"
    assert workloads._cli(["shrink", "--instance", str(path), "--check", "axioms",
                           "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_gate_accepts_an_untouched_counterexample(tmp_path):
    ledger = workloads.Ledger()
    workloads.replay_gate(_counterexample(tmp_path), ledger, "untouched")
    assert ledger.violation_count == 0 and ledger.failed == 0


def test_gate_trips_on_a_counterexample_with_an_edited_residual(tmp_path):
    ce = _counterexample(tmp_path)
    key = sorted(ce["residuals"])[0]
    ce["residuals"][key] = math.nextafter(ce["residuals"][key], math.inf)
    ledger = workloads.Ledger()
    workloads.replay_gate(ce, ledger, "tampered")
    assert ledger.violation_count == 1 and ledger.failed == 1


def test_gate_trips_on_a_counterexample_that_no_longer_fails(tmp_path):
    ce = _counterexample(tmp_path)
    ce["instance"] = {"kind": "multiplication", "m": 1, "n": 1,
                      "u": [1.0], "x": [1.0], "y": [2.0]}
    ledger = workloads.Ledger()
    workloads.replay_gate(ce, ledger, "tampered")
    assert ledger.violation_count == 1


def test_gate_trips_on_a_missed_injected_instance(small, tmp_path):
    wl = workloads.TriageShrink(2, tmp_path)
    inputs = wl.prepare(0)
    ledger = workloads.Ledger()
    wl.run(inputs, ledger)
    report = json.loads((inputs["dir"] / "report.json").read_text())
    for entry in report["theorems"].values():  # hide every catch of instance 0
        kept = [ce for ce in entry["counterexamples"]
                if ce["instance"] != inputs["injected"][0][2]]
        entry["failures"] -= len(entry["counterexamples"]) - len(kept)
        entry["counterexamples"] = kept
    ledger = workloads.Ledger()
    workloads.attribute_failures(report, inputs["injected"], ledger, "tampered")
    assert ledger.violation_count == 1 and ledger.failed == 1


def test_bitwise_comparison_of_residuals():
    assert workloads.residuals_match({"a": 0.1, "b": float("nan")},
                                     {"a": 0.1, "b": float("nan")})
    assert not workloads.residuals_match({"a": 0.0}, {"a": -0.0})
    assert not workloads.residuals_match({"a": 0.1}, {"a": 0.1, "b": 0.0})


def test_tracer_wraps_every_binding_and_restores_it():
    import riesz_sip
    from riesz_sip import cli, harness, lattice, means

    before = (riesz_sip.as_lattice_vector, means.as_lattice_vector, harness.box_times,
              harness.CHECKS["cs"], cli.main)
    tracer = tracing.Tracer()
    with tracing.traced_program(tracer):
        assert means.as_lattice_vector is not before[1]
        assert means.as_lattice_vector is lattice.as_lattice_vector
        tracer.enabled = True
        means.box_times([1.0, 4.0], [4.0, 1.0])
        tracer.enabled = False
    after = (riesz_sip.as_lattice_vector, means.as_lattice_vector, harness.box_times,
             harness.CHECKS["cs"], cli.main)
    assert after == before
    table, _, _ = tracing.span_table(tracer)
    assert table["means.box_times"]["calls"] == 1
    assert table["lattice.as_lattice_vector"]["calls"] == 2
    outer = table["means.box_times"]
    assert 0.0 <= outer["self_s"] <= outer["total_s"]
