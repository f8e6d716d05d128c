"""Acceptance gate: ten criteria over a full 10^4-trial verification run.

One test per criterion; each prints a single PASS/FAIL line so the
summary is readable straight off the pytest output. The shared report is
computed once per module with the default configuration (seed 0, 10^4
trials per suite, every theorem).
"""

import hashlib

import numpy as np
import pytest

from riesz_sip.cauchy_schwarz import Gram, defect_grid
from riesz_sip.harness import (
    Instance,
    TrialConfig,
    replay_counterexample,
    report_to_json,
    run_suite,
)
from riesz_sip.seminorms import sharp_verdict
from riesz_sip.sip import MultiplicationSip, PsdFamilySip

WORKED_TOL = 1e-10

# sha256 of the default report (full_report), less wall_time_s. Refactors
# must leave it unchanged; a change that alters reports on purpose updates
# it and says so.
PINNED_DEFAULT_SHA256 = "aca77459078fa2ef572ccd46d818a8aa6b67238d4742bd6b9b6d190bc78eedcf"


@pytest.fixture(scope="module")
def full_report():
    return run_suite(TrialConfig())


@pytest.fixture
def criterion(capsys):
    """Print one PASS/FAIL line per criterion, visible despite capture."""

    def _criterion(num: int, desc: str, checks: dict) -> None:
        failed = sorted(k for k, ok in checks.items() if not ok)
        verdict = "PASS" if not failed else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} {verdict}: {desc}")
        assert not failed, f"criterion {num} failed checks: {failed}"

    return _criterion


def _asymmetric_witness():
    A = np.zeros((1, 2, 2))
    A[0, 0, 1] = 1.0
    return Instance(sip=PsdFamilySip(A, validate=False),
                    u=np.ones(1), x=np.ones(2), y=np.ones(2))


def _negative_witness():
    return Instance(sip=PsdFamilySip([-np.eye(2)], validate=False),
                    u=np.ones(1), x=np.ones(2), y=np.ones(2))


def test_criterion_01_sip_axioms(full_report, criterion):
    entry = full_report.theorems["axioms"]
    injected = run_suite(
        TrialConfig(trials=2, theorems=("axioms",)),
        injected=(_asymmetric_witness(), _negative_witness()))
    ces = injected.theorems["axioms"]["counterexamples"]
    criterion(1, "sip axioms hold at 1e-9 and injected witnesses are caught", {
        "trials": entry["trials"] == 10_000,
        "no_failures": entry["failures"] == 0,
        "max_residual": entry["max_residual"] <= 1e-9,
        "both_kinds": entry["counts"].get("multiplication", 0) > 0
                      and entry["counts"].get("psd_family", 0) > 0,
        "witnesses_caught": injected.theorems["axioms"]["failures"] == 2,
        "asymmetry_flagged": any("symmetry" in ce["failed"] for ce in ces),
        "negativity_flagged": any("positivity" in ce["failed"] for ce in ces),
    })


def test_criterion_02_cauchy_schwarz_identity(full_report, criterion):
    entry = full_report.theorems["cs"]
    r = entry["residuals"]
    criterion(2, "Cauchy-Schwarz identity, inequality, and biconditional", {
        "no_failures": entry["failures"] == 0,
        "identity": r["identity"] <= 1e-8,
        "inequality": r["inequality"] <= 1e-10,
        "biconditional": r["equality_iff_defect_zero"] == 0.0,
        "both_branches": entry["counts"].get("equality", 0) > 0
                         and entry["counts"].get("strict", 0) > 0,
    })


def test_criterion_03_defect_oracle(full_report, criterion):
    entry = full_report.theorems["cs"]
    r = entry["residuals"]
    dot = PsdFamilySip([np.eye(2)])
    closed = Gram(dot, [1.0, 0.0], [0.0, 1.0]).defect
    grid = defect_grid(dot, [1.0, 0.0], [0.0, 1.0], TrialConfig().lambda_grid)
    criterion(3, "defect closed form vs lambda-grid oracle", {
        "sandwich": r["defect_sandwich"] <= 1e-10,
        "gap": r["defect_gap"] <= 1e-4,
        "orthonormal_closed": np.array_equal(closed, [2.0]),
        "orthonormal_grid": abs(grid[0] - 2.0) <= 1e-6 and grid[0] >= 2.0,
    })


def test_criterion_04_mean_oracles(full_report, criterion):
    oracle = full_report.theorems["oracle"]
    means = full_report.theorems["means"]
    ro, rm = oracle["residuals"], means["residuals"]
    criterion(4, "geometric/square mean oracles and mean identities", {
        "no_failures": oracle["failures"] == 0 and means["failures"] == 0,
        "bt_sandwich": ro["box_times_sandwich"] <= 1e-10,
        "bt_gap": ro["box_times_gap"] <= 1e-3,
        "bp_sandwich": ro["box_plus_sandwich"] <= 1e-10,
        "bp_gap": ro["box_plus_gap"] <= 1e-5,
        "quarter_circle": ro["quarter_circle"] <= 1e-12,
        "biadditivity": rm["biadditivity"] <= 1e-10,
        "homogeneity": rm["homogeneity"] <= 1e-10,
    })


def test_criterion_05_seminorm_axioms(full_report, criterion):
    entry = full_report.theorems["vsn"]
    r = entry["residuals"]
    criterion(5, "seminorm axioms and the square identity", {
        "no_failures": entry["failures"] == 0,
        "positivity": r["positivity"] <= 1e-9,
        "homogeneity": r["homogeneity"] <= 1e-9,
        "triangle": r["triangle"] <= 1e-9,
        "square": r["square"] <= 1e-10,
    })


def test_criterion_06_sharpened_triangle(full_report, criterion):
    entry = full_report.theorems["sharp"]
    r = entry["residuals"]

    # the squared sides are the record's, the verdicts sharp_verdict's
    eq_g = Gram(MultiplicationSip(2), [1.0, 2.0], [2.0, 1.0], np.ones(2))
    strict_g = Gram(MultiplicationSip(2), [1.0, 1.0], [-1.0, 1.0], np.ones(2))
    orth_g = Gram(PsdFamilySip([np.eye(2)]), [1.0, 0.0], [0.0, 1.0], np.ones(1))
    eq, strict, orth = (sharp_verdict(g) for g in (eq_g, strict_g, orth_g))

    criterion(6, "sharpened triangle chain, biconditional, worked examples", {
        "no_failures": entry["failures"] == 0,
        "chain": r["chain"] <= 1e-10,
        "biconditional": r["equality_iff_positive"] == 0.0,
        "both_branches": entry["counts"].get("equality", 0) > 0
                         and entry["counts"].get("strict", 0) > 0,
        "weighted_defect_oracle": r["weighted_sandwich"] <= 1e-10
                                  and r["weighted_gap"] <= 1e-4,
        "example_equality": (
            np.max(np.abs(eq_g.lhs_sq - [9.0, 9.0])) <= WORKED_TOL
            and np.max(np.abs(eq_g.middle - [9.0, 9.0])) <= WORKED_TOL
            and eq.equality_holds and eq.condition_holds),
        "example_strict": (
            np.max(np.abs(strict_g.lhs_sq - [0.0, 4.0])) <= WORKED_TOL
            and np.max(np.abs(strict_g.middle - [4.0, 4.0])) <= WORKED_TOL
            and not strict.equality_holds and not strict.condition_holds),
        "example_orthogonal": (
            np.max(np.abs(orth_g.lhs_sq - [2.0])) <= WORKED_TOL
            and np.max(np.abs(orth_g.middle - [2.0])) <= WORKED_TOL
            and np.max(np.abs(orth_g.rhs_sq - [4.0])) <= WORKED_TOL
            and orth.equality_holds and orth.condition_holds),
    })


def test_criterion_07_additivity_characterization(full_report, criterion):
    entry = full_report.theorems["additivity"]
    criterion(7, "additivity holds iff both cone conditions hold", {
        "no_failures": entry["failures"] == 0,
        "biconditional": entry["residuals"]["characterization"] == 0.0,
        "additive_branch": entry["counts"].get("additive", 0) > 0,
        "nonadditive_branch": entry["counts"].get("nonadditive", 0) > 0,
        "pos_condition_fails_somewhere": entry["counts"].get("cond_pos_false", 0) > 0,
        "defect_condition_fails_somewhere":
            entry["counts"].get("cond_defect_false", 0) > 0,
    })


def test_criterion_08_pythagoras(full_report, criterion):
    entry = full_report.theorems["pythagoras"]
    r = entry["residuals"]
    criterion(8, "Pythagorean identity on constructed orthogonal pairs", {
        "no_failures": entry["failures"] == 0,
        "orthogonality": r["orthogonality"] <= 1e-10,
        "identity": r["identity"] <= 1e-9,
        "psd_pairs_dominate": entry["counts"].get("psd_family", 0)
                              > entry["counts"].get("multiplication", 0),
    })


def test_criterion_09_parallelogram(full_report, criterion):
    entry = full_report.theorems["parallelogram"]
    criterion(9, "parallelogram law on unrestricted pairs", {
        "no_failures": entry["failures"] == 0,
        "identity": entry["residuals"]["identity"] <= 1e-9,
    })


def test_criterion_10_determinism_and_replay(criterion):
    config = TrialConfig(seed=2024, trials=300)
    r1 = run_suite(config).to_dict()
    r2 = run_suite(config).to_dict()
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")

    injected = run_suite(TrialConfig(trials=2, theorems=("axioms",)),
                         injected=(_asymmetric_witness(),))
    ce = injected.theorems["axioms"]["counterexamples"][0]
    replayed = replay_counterexample(ce)
    exact = (replayed.status == "fail"
             and set(replayed.residuals) == set(ce["residuals"])
             and all(replayed.residuals[k] == ce["residuals"][k]
                     for k in ce["residuals"]))

    criterion(10, "identical reports for identical config; replay is exact", {
        "reports_identical": r1 == r2,
        "replay_exact": exact,
    })


def test_default_report_bytes_are_pinned(full_report):
    body = full_report.to_dict()
    body.pop("wall_time_s")
    assert hashlib.sha256(report_to_json(body).encode("utf-8")).hexdigest() \
        == PINNED_DEFAULT_SHA256
