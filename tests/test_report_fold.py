"""The report fold: a chunk's result tables fold into the entry that trial-by-trial folding gives.

run_suite folds each suite's results a chunk at a time, as tables with a
row per trial (harness._SuiteFold.fold). ReferenceFold below is the fold
it replaced, which took one (instance, TrialResult) pair at a time, in
trial order. Both must give the same entry, byte for byte once written:
status counts, branch counts, NaN-first residual maxima that start at
0.0, the first trial of the highest ratio (a NaN above every number,
-0.0 kept), and the first MAX_COUNTEREXAMPLES failing trials that have
an instance.

Every check gives a table, a Trial's check a table of one row, and a
table's row is the only TrialResult the harness builds. reference_result
and reference_results below are the scalar status rule and the packing
of one trial's TrialResult that the one-row table replaced: one trial's
result must keep their bits, and a table's row statuses must be the
statuses the fold counts.
"""

import math
import operator
import struct
from collections import Counter
from itertools import chain, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_sip import harness
from riesz_sip.harness import (
    BICOND_TOL,
    MAX_COUNTEREXAMPLES,
    PURPOSES,
    THEOREMS,
    Instance,
    Trial,
    TrialConfig,
    TrialResult,
    _column,
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


def reference_result(residuals: dict, tols: dict, borderline: bool = False,
                     tags: tuple = ()) -> TrialResult:
    """TrialResult of {check name: residual} under {check name: tolerance}, one trial alone."""
    # not (v <= tol) instead of v > tol so NaN residuals count as failures
    failed = tuple(sorted(k for k, v in residuals.items() if not v <= tols[k]))
    status = "fail" if failed else ("borderline" if borderline else "pass")
    return TrialResult(status=status, residuals=residuals, tols=tols,
                       failed=failed, tags=tags)


def reference_results(rec, checks: dict, borderline=False, tags: tuple = ()) -> TrialResult:
    """A Trial's check packing its one TrialResult directly, in place of harness._results."""
    tols = {name: tol for name, (_, tol) in checks.items()}
    tag_row = (_column(t, 1)[0] for t in tags)
    return reference_result({name: _column(v, 1)[0] for name, (v, _) in checks.items()}, tols,
                            _column(borderline, 1)[0], tuple(t for t in tag_row if t is not None))


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
            self.kept.append(counterexample(self.name, res, inst.to_dict(), self.params))

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
INVALID = harness._unchecked("invalid_instance").row(0)
GENERATION_FAILED = harness._unchecked("generation").row(0)


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
    return reference_result(dict(zip(NAMES, values)), dict(zip(NAMES, TOLS)), borderline,
                            tuple(t for t in tags if t is not None))


def _table(rows) -> _Table:
    """The table of rows of the three-residual check, each (values, borderline, tags)."""
    return _Table(NAMES, TOLS, np.array([r[0] for r in rows], dtype=np.float64),
                  [r[1] for r in rows],
                  tuple(list(c) for c in zip(*(r[2] for r in rows))))


def _parts(chunk, labels):
    """The chunk's rows as run_suite hands them to the fold: tables of groups, one-row tables.

    Rows with a label form groups by label (so a group's positions need not
    be consecutive); an invalid_instance row is a one-row table wherever
    it falls, like a trial of a broken group checked alone.
    """
    groups, parts = {}, []
    for i, ((inst, row), label) in enumerate(zip(chunk, labels)):
        if row is None:
            parts.append(([i], harness._unchecked("invalid_instance")))
        else:
            groups.setdefault(label, []).append(i)
    for idx in groups.values():
        parts.append((idx, _table([chunk[i][1] for i in idx])))
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
            fold.fold([inst for inst, _ in chunk], _parts(chunk, labels), {})
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
        fold.fold([inst for inst, _ in chunk], _parts(chunk, [i % 2 for i in range(len(chunk))]),
                  {})
    entry = fold.entry()
    assert len(entry["counterexamples"]) == MAX_COUNTEREXAMPLES
    assert entry["worst_instance"]["instance"] == trials[0][0].to_dict()
    assert report_to_json(entry) == report_to_json(reference.entry())


def _negative_instance():
    A = np.array([[[-1.0, 0.0], [0.0, -2.0]]])
    return Instance(PsdFamilySip(A, validate=False), np.ones(1), np.array([1.0, 2.0]),
                    np.array([3.0, -1.0]))


def _psd_instance():
    B = np.array([[[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]], [[2.0, 0.0, 1.0], [1.0, 1.0, -1.0]]])
    return Instance(PsdFamilySip(np.einsum("jka,jkb->jab", B, B)), np.array([1.0, 3.0]),
                    np.array([1.0, -2.0, 0.5]), np.array([2.0, 1.0, -1.0]))


# Broken instances and, with n = 2, one injected group of three broken
# multiplication pairs, a valid one and a valid PSD family
INJECTED = (
    _negative_instance(),
    Instance(MultiplicationSip(2), np.array([1.0, -1.0]), np.array([1.0, 2.0]),
             np.array([2.0, 1.0])),
    Instance(MultiplicationSip(2), np.array([1.0, 2.0]), np.array([1e200, 3.0]),
             np.array([1e200, 3.0])),
    Instance(MultiplicationSip(2), np.ones(2), np.ones(3), np.ones(2)),
    Instance(MultiplicationSip(2), np.array([2.0, 0.5]), np.array([1.0, -3.0]),
             np.array([-2.0, 4.0])),
    _psd_instance(),
)


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_run_suite_entries_are_the_trial_by_trial_fold(chunk, monkeypatch):
    # small chunks put group, generation-failure and broken-group rows in
    # many chunks and groups; every third trial's generation gives up, in
    # every recipe, as the one chunk builder returns None for it
    config = TrialConfig(trials=24, seed=11)

    def chunk_gives_up(config, purpose, c, stop, _chunk=harness._recipe_chunk):
        first = c * harness._chunk_length(config, purpose)
        return [None if (first + j) % 3 == 1 else inst
                for j, inst in enumerate(_chunk(config, purpose, c, stop))]

    monkeypatch.setattr(harness, "TRIAL_CHUNK", chunk)
    monkeypatch.setattr(harness, "_recipe_chunk", chunk_gives_up)
    injected_parts = {}

    def recorded(self, insts, parts, dicts, _fold=harness._SuiteFold.fold):
        if len(insts) == len(INJECTED) and all(map(operator.is_, insts, INJECTED)):
            injected_parts[self.name] = parts
        return _fold(self, insts, parts, dicts)

    monkeypatch.setattr(harness._SuiteFold, "fold", recorded)
    with np.errstate(all="ignore"):
        report = run_suite(config, injected=INJECTED)
        # the injected instances are checked as a chunk: each row of their
        # tables, a group's included, is the trial's result alone
        for name, parts in injected_parts.items():
            assert sorted(p for pos, _ in parts for p in pos) == list(range(len(INJECTED)))
            for pos, table in parts:
                for j, p in enumerate(pos):
                    alone = _run_check(name, Trial(INJECTED[p], config))
                    assert _exact(table.row(j)) == _exact(alone), name
        assert set(injected_parts) == set(config.theorems)
        assert max(len(pos) for parts in injected_parts.values() for pos, _ in parts) == 5
        for name in config.theorems:
            reference = ReferenceFold(name, params_from_config(config))
            generated = chain.from_iterable(harness._chunks(config, PURPOSES[name]))
            for inst in [*generated, *INJECTED]:
                res = (_run_check(name, Trial(inst, config)) if inst is not None
                       else GENERATION_FAILED)
                reference.add(inst, res)
            entry = report.theorems[name]
            assert report_to_json(entry) == report_to_json(reference.entry()), name
            # the 8 trials whose generation gave up fail, with no counterexample
            assert entry["failures"] >= 8
            assert all(ce["instance"] is not None for ce in entry["counterexamples"])


def _bits(v: float) -> str:
    return struct.pack("<d", v).hex()


def _exact(res) -> tuple:
    """res with each residual as its bits: -0.0 is not 0.0, and a NaN keeps its sign and payload."""
    return (res.status, res.failed, res.tags, res.tols, list(res.residuals),
            [_bits(v) for v in res.residuals.values()])


def reference_check(suite: str, trial) -> TrialResult:
    """suite's result of one trial, packed directly by reference_results."""
    with mock.patch.object(harness, "_results", reference_results):
        try:
            return harness.CHECKS[suite](trial)
        except harness._BROKEN_INPUT:
            return reference_result({"invalid_instance": 1.0}, {"invalid_instance": BICOND_TOL})


BROKEN_CLASSES = ("asymmetric", "negative", "shape-u", "shape-x", "shape-y", "overflow")


def broken_instance(seed: int, cls: str) -> Instance:
    """A deliberately broken instance of class cls, the classes of fault triage.

    asymmetric: one PSD member gets an antisymmetric perturbation.
    negative:   one member is negated, so it is negative definite.
    shape-*:    u, x or y carries one coordinate too many.
    overflow:   multiplication sip on R^n with x = y holding a 1e200 entry.
    """
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
    if cls == "overflow":
        x = rng.uniform(-10.0, 10.0, n)
        x[int(rng.integers(n))] = 1e200
        return Instance(MultiplicationSip(n), rng.uniform(0.0, 10.0, n), x, x.copy())
    B = rng.uniform(-1.0, 1.0, (n, m, m))
    A = np.einsum("jka,jkb->jab", B, B)
    j = int(rng.integers(n))
    if cls == "asymmetric":
        N = rng.uniform(-1.0, 1.0, (m, m))
        A[j] += N - N.T
    elif cls == "negative":
        A[j] = -A[j]
    vecs = {"u": rng.uniform(0.0, 10.0, n), "x": rng.uniform(-10.0, 10.0, m),
            "y": rng.uniform(-10.0, 10.0, m)}
    if cls.startswith("shape-"):
        key = cls[len("shape-"):]
        vecs[key] = np.append(vecs[key], rng.uniform(0.0, 10.0))
    return Instance(PsdFamilySip(A, validate=False), **vecs)


def _one_trial_instances() -> list:
    """Instances whose results hold every status, NaN, tags and invalid_instance.

    Generated instances of every recipe; y about the borderline window of
    the equality verdicts; x and y scaled by 2^+-300 and 2^+-520, whose
    overflow gives NaN residuals and broken input; x of signed zeros;
    broken instances of every class, and shrink steps of these.
    """
    generated = [inst for recipe in dict.fromkeys(PURPOSES.values())
                 for inst in harness._recipe_chunk(CONFIG, recipe, 0, 40)]
    rng = np.random.default_rng(3)
    near = [Instance(g.sip, g.u, g.x, g.x + 10.0 ** -rng.uniform(3.0, 4.5)
                     * rng.uniform(-1.0, 1.0, g.x.size) * np.abs(g.x).max())
            for g in generated[:40]]
    scaled = [Instance(g.sip, g.u, g.x * 2.0 ** e, g.y * 2.0 ** e)
              for g in generated[::10] for e in (-520, -300, 300, 520)]
    zeros = [Instance(g.sip, g.u, -0.0 * g.x, g.y) for g in generated[::10]]
    # x and y far apart in scale: the [*] minimiser leaves the theta grid
    apart = [Instance(g.sip, g.u, g.x * 2.0 ** e, g.y) for g in generated[::10] for e in (-60, 60)]
    broken = [broken_instance(seed, cls) for cls in BROKEN_CLASSES for seed in range(4)]
    steps = [cand for inst in broken[::2] for cand in islice(harness._shrink_candidates(inst), 6)]
    return generated + near + scaled + zeros + apart + broken + steps


ONE_TRIAL = _one_trial_instances()


def test_one_trials_result_keeps_the_bits_it_was_packed_with():
    # _run_check reads row 0 of the trial's one-row table: residual bits,
    # status, the sorted failed list, tags with None dropped and tols are
    # those of the TrialResult a Trial's check packed directly
    seen = Counter()
    with np.errstate(all="ignore"):
        for suite in THEOREMS:
            for inst in ONE_TRIAL:
                got = _run_check(suite, Trial(inst, CONFIG))
                assert _exact(got) == _exact(reference_check(suite, Trial(inst, CONFIG))), suite
                seen[got.status] += 1
                seen["invalid_instance"] += got.failed == ("invalid_instance",)
                seen["nan"] += any(math.isnan(v) for v in got.residuals.values())
                seen["minimizer_not_covered"] += "minimizer_not_covered" in got.tags
    assert all(seen[key] for key in ("pass", "fail", "borderline", "invalid_instance", "nan",
                                     "minimizer_not_covered")), seen


@pytest.mark.parametrize("one_row", [False, True])
def test_a_rows_status_is_the_status_the_fold_counts(one_row):
    # NaN fails; -0.0 passes and keeps its sign; a borderline trial with a
    # failing residual fails; residuals at their tolerances pass
    rows = [([math.nan, 0.0, 0.0], False, [None, None]),
            ([-0.0, -0.0, 0.0], False, ["strict", None]),
            ([5e-9, 1.0, 0.0], True, [None, "equality"]),
            ([0.0, 1e-4, 0.0], True, [None, None]),
            ([1e-9, 2e-4, BICOND_TOL], False, ["equality", "strict"])]
    insts = [generate_instance(CONFIG, i) for i in range(len(rows))]
    parts = ([([i], _table([row])) for i, row in enumerate(rows)] if one_row
             else [(list(range(len(rows))), _table(rows))])
    got = [table.row(pos.index(i)) for pos, table in parts for i in pos]
    assert [_exact(res) for res in got] == [_exact(_reference_result(row)) for row in rows]
    assert [res.status for res in got] == ["fail", "pass", "fail", "borderline", "pass"]
    assert got[2].failed == ("gap", "identity")  # sorted, not in the checks' order
    fold = harness._SuiteFold("cs", PARAMS)
    with np.errstate(all="ignore"):
        fold.fold(insts, parts, {})
    entry = fold.entry()
    assert Counter(res.status for res in got) == Counter(
        {"pass": entry["passes"], "fail": entry["failures"], "borderline": entry["borderline"]})
    assert [ce["failed"] for ce in entry["counterexamples"]] == [
        list(res.failed) for res in got if res.status == "fail"]


def test_a_trial_that_could_not_be_checked_is_a_failing_row():
    for name in ("invalid_instance", "generation"):
        assert _exact(harness._unchecked(name).row(0)) == _exact(
            reference_result({name: 1.0}, {name: BICOND_TOL}))
