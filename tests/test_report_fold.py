"""The report fold: a chunk's result tables fold into the entry that trial-by-trial folding gives.

run_suite folds each suite's results a chunk at a time, as tables with a
row per trial (harness._SuiteFold.fold). ReferenceFold below is the fold
it replaced, which took one (instance, TrialResult) pair at a time, in
trial order. Both must give the same entry, byte for byte once written:
status counts, branch counts, NaN-first residual maxima that start at
0.0, the first trial of the highest ratio (a NaN above every number,
-0.0 kept), and the first MAX_COUNTEREXAMPLES failing trials that have
an instance.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_sip import harness
from riesz_sip.harness import (
    BICOND_TOL,
    MAX_COUNTEREXAMPLES,
    PURPOSES,
    GenerationExhausted,
    Instance,
    Trial,
    TrialConfig,
    _result,
    _run_check,
    _Table,
    counterexample,
    generate_instance,
    params_from_config,
    report_to_json,
    run_suite,
)
from riesz_sip.lattice import _nan_first
from riesz_sip.sip import MultiplicationSip, PsdFamilySip

CONFIG = TrialConfig(trials=1, seed=5)
PARAMS = params_from_config(CONFIG)
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


class ReferenceFold:
    """One suite's report entry, folded one (instance, result) pair at a time."""

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = params
        self.status, self.counts, self.residual_max, self.kept = Counter(), Counter(), {}, []
        self.worst = None  # (ratio, result, instance dict)

    def add(self, inst, res) -> None:
        self.status[res.status] += 1
        self.counts.update(res.tags)
        for k, v in res.residuals.items():
            self.residual_max[k] = max(self.residual_max.get(k, 0.0), v, key=_nan_first)
        ratio = max([v / res.tols[k] for k, v in res.residuals.items()] or [0.0], key=_nan_first)
        if self.worst is None or _nan_first(ratio) > _nan_first(self.worst[0]):
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
            "max_residual": max(self.residual_max.values(), default=0.0, key=_nan_first),
            "residuals": self.residual_max,
            "counts": dict(self.counts),
            "worst_instance": {"ratio": ratio, "residuals": dict(res.residuals),
                               "failed": list(res.failed), "instance": inst},
            "counterexamples": self.kept,
        }


# A check of three residuals; the values include signed zeros, NaN, inf,
# exact ties of ratio across trials (2e-9 and 4e-4 are each twice their
# tolerance) and values either side of each tolerance.
NAMES = ("identity", "gap", "indicator")
TOLS = (1e-9, 2e-4, BICOND_TOL)
VALUES = st.sampled_from([0.0, -0.0, 0.0, 5e-10, 1e-9, 2e-9, 1e-4, 4e-4, 1.0, math.nan,
                          math.inf])
TAGS = st.sampled_from([None, "equality", "strict"])
INVALID = _result({"invalid_instance": 1.0}, {"invalid_instance": BICOND_TOL})
GENERATION_FAILED = _result({"generation": 1.0}, {"generation": BICOND_TOL})


@st.composite
def trial_rows(draw):
    """One trial: (instance or None, a row of the check or None for invalid_instance)."""
    inst = draw(st.one_of(st.none(), st.integers(0, 40).map(
        lambda i: generate_instance(CONFIG, i))))
    if inst is not None and draw(st.integers(0, 5)) == 0:
        return inst, None
    row = (draw(st.lists(VALUES, min_size=3, max_size=3)), draw(st.booleans()),
           draw(st.lists(TAGS, min_size=2, max_size=2)))
    return inst, row


def _reference_result(row):
    if row is None:
        return INVALID
    values, borderline, tags = row
    return _result(dict(zip(NAMES, values)), dict(zip(NAMES, TOLS)), borderline,
                   tuple(t for t in tags if t is not None))


def _parts(chunk, labels):
    """The chunk's rows as run_suite hands them to the fold: tables of groups, one-row tables.

    Rows with a label form groups by label (so a group's positions need not
    be consecutive); an invalid_instance row is a one-row table wherever
    it falls, like a trial of a broken group checked alone.
    """
    groups, parts = {}, []
    for i, ((inst, row), label) in enumerate(zip(chunk, labels)):
        if row is None:
            parts.append(([i], _Table.of([INVALID])))
        else:
            groups.setdefault(label, []).append(i)
    for idx in groups.values():
        rows = [chunk[i][1] for i in idx]
        parts.append((idx, _Table(NAMES, np.array(TOLS), np.array([r[0] for r in rows]),
                                  np.array([r[1] for r in rows]),
                                  tuple(list(c) for c in zip(*(r[2] for r in rows))))))
    return parts


@SETTINGS
@given(data=st.data())
def test_chunk_fold_is_the_trial_by_trial_fold(data):
    trials = data.draw(st.lists(trial_rows(), min_size=1, max_size=40))
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=40))
    reference = ReferenceFold("cs", PARAMS)
    for inst, row in trials:
        reference.add(inst, _reference_result(row))
    fold = harness._SuiteFold("cs", PARAMS)
    start = 0
    for size in sizes + [len(trials)]:
        chunk = trials[start:start + size]
        if not chunk:
            break
        labels = data.draw(st.lists(st.integers(0, 2), min_size=len(chunk), max_size=len(chunk)))
        with np.errstate(all="ignore"):
            fold.fold([inst for inst, _ in chunk], _parts(chunk, labels))
        start += size
    assert report_to_json(fold.entry()) == report_to_json(reference.entry())


def test_chunk_fold_keeps_the_first_counterexamples_and_the_first_worst():
    # 30 failing trials with tied ratios, in two chunks, a group's rows
    # interleaved with the other group's: the first ten failures are kept,
    # and the worst is the first trial of the highest ratio
    trials = [(generate_instance(CONFIG, i), ([2e-9, 0.0, 0.0], False, [None, None]))
              for i in range(30)]
    reference = ReferenceFold("cs", PARAMS)
    for inst, row in trials:
        reference.add(inst, _reference_result(row))
    fold = harness._SuiteFold("cs", PARAMS)
    for chunk in (trials[:13], trials[13:]):
        fold.fold([inst for inst, _ in chunk], _parts(chunk, [i % 2 for i in range(len(chunk))]))
    entry = fold.entry()
    assert len(entry["counterexamples"]) == MAX_COUNTEREXAMPLES
    assert entry["worst_instance"]["instance"] == trials[0][0].to_dict()
    assert report_to_json(entry) == report_to_json(reference.entry())


def _negative_instance():
    A = np.array([[[-1.0, 0.0], [0.0, -2.0]]])
    return Instance(PsdFamilySip(A, validate=False), np.ones(1), np.array([1.0, 2.0]),
                    np.array([3.0, -1.0]))


INJECTED = (
    _negative_instance(),
    Instance(MultiplicationSip(2), np.array([1.0, -1.0]), np.array([1.0, 2.0]),
             np.array([2.0, 1.0])),
    Instance(MultiplicationSip(2), np.array([1.0, 2.0]), np.array([1e200, 3.0]),
             np.array([1e200, 3.0])),
    Instance(MultiplicationSip(2), np.ones(2), np.ones(3), np.ones(2)),
)


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_run_suite_entries_are_the_trial_by_trial_fold(chunk, monkeypatch):
    # small chunks and groups put group, generation-failure and broken-group
    # rows in many chunks; every third trial's generation gives up
    config = TrialConfig(trials=24, seed=11)
    generate = harness.generate_instance

    def gives_up(config, i, purpose="generic"):
        if i % 3 == 1:
            raise GenerationExhausted(f"trial {i}")
        return generate(config, i, purpose)

    monkeypatch.setattr(harness, "TRIAL_CHUNK", chunk)
    monkeypatch.setattr(harness, "GROUP_SAMPLE_BYTES", 3 * 4 * 2 * config.lambda_count * 8)
    monkeypatch.setattr(harness, "generate_instance", gives_up)
    with np.errstate(all="ignore"):
        report = run_suite(config, injected=INJECTED)
        for name in config.theorems:
            reference = ReferenceFold(name, params_from_config(config))
            for inst in list(harness._generate(config, PURPOSES[name])) + list(INJECTED):
                res = (_run_check(name, Trial(inst, config)) if inst is not None
                       else GENERATION_FAILED)
                reference.add(inst, res)
            entry = report.theorems[name]
            assert report_to_json(entry) == report_to_json(reference.entry()), name
            # the 8 trials whose generation gave up fail, with no counterexample
            assert entry["failures"] >= 8
            assert all(ce["instance"] is not None for ce in entry["counterexamples"])


def test_a_table_of_results_gives_back_each_result():
    # results of one check set whose tag counts differ: each result's tags
    # fill the first tag columns, and row i is result i again
    results = [_reference_result(([math.nan, -0.0, 1.0], True, ["strict", None])),
               _reference_result(([0.0, 1e-4, 0.0], True, [None, None])),
               _reference_result(([0.0, 1e-4, 0.0], False, ["equality", "strict"]))]
    for table in (_Table.of(results), *(_Table.of([res]) for res in results)):
        rows = [table.row(i) for i in range(len(table.residuals))]
        expected = results if len(rows) > 1 else [r for r in results if r.tags == rows[0].tags]
        for back, res in zip(rows, expected):
            assert (back.status, back.failed, back.tags, back.tols, list(back.residuals)) == (
                res.status, res.failed, res.tags, res.tols, list(res.residuals))
            assert report_to_json(back.residuals) == report_to_json(res.residuals)
    assert _Table.of([INVALID]).row(0) == INVALID
