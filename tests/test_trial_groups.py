"""Batch invariance of the check layer: a group of trials is checked as its trials are alone.

run_suite checks a chunk's trials in groups of one codomain dimension
(harness.TrialGroup), computing every residual on the stacked values as a
(k,) array, and a group's check gives its results as one table, a row per
trial; replay and shrink check one Trial at a time. Each suite must give
every trial of a group, in its row of the table, the residual bits,
status, failed list and tags it gets alone as a TrialResult. The groups
mix sip kinds and domain dimensions, and hold signed zeros, magnitudes
2^+-300 and 2^+-520 (whose overflow gives NaN residuals and broken-input
errors), colinear and near-colinear (borderline) pairs and orthogonal
pairs. The means and oracle suites
stack x and y themselves, so a group of mixed domains has no stack there:
its check raises DimensionMismatch, and harness._check_group checks the
trials one at a time (run_suite builds such a group only of injected
instances: a generated instance of their recipe has m = n).

The trials alone are checked with the folds of residuals computed by
Python's max(..., key=_nan_first), the scalar definition that
lattice.fold states per trial, so a group fold that dropped a NaN would
show here as well as a reduction over the whole group in place of one
per row.
"""

import math
from dataclasses import replace
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_sip import cauchy_schwarz, harness, lattice, seminorms
from riesz_sip.harness import (
    CHECKS,
    PURPOSES,
    THEOREMS,
    Instance,
    Trial,
    TrialConfig,
    TrialGroup,
    generate_instance,
)
from riesz_sip.lattice import (
    DimensionMismatch,
    _nan_first,
    as_lattice_vector,
    fold,
    rel_residual,
)
from riesz_sip.means import _box_plus, _box_times
from riesz_sip.sip import ORTHOGONAL, MultiplicationSip, PsdFamilySip, orthogonal_stack

CONFIG = TrialConfig(trials=1, seed=9)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
# 2^520 makes products of two entries overflow
SCALES = st.sampled_from([0, 0, 0, -520, -300, -40, 40, 300, 520])


def entries(m):
    """m entries: zeros of both signs and signed values of mixed magnitude."""
    value = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False))
    return st.lists(value, min_size=m, max_size=m).map(np.array)


def scales(m):
    """2^e for the whole vector, or one 2^e per entry."""
    return st.one_of(SCALES, st.lists(SCALES, min_size=m, max_size=m).map(np.array)).map(
        lambda e: 2.0 ** e)


@st.composite
def instances(draw, n, multiplication_only=False):
    """An instance with codomain R^n: either sip kind, m = 1..6, entries scaled by 2^e."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if multiplication_only or draw(st.booleans()):
        T = MultiplicationSip(n)
    else:
        m = int(rng.integers(1, 7))
        B = rng.uniform(-1.0, 1.0, (n, m, m))
        T = PsdFamilySip(np.einsum("jka,jkb->jab", B, B), validate=False)
    m = T.domain_dim
    x = draw(st.one_of(entries(m), st.just(rng.uniform(-10.0, 10.0, m)))) * draw(scales(m))
    style = draw(st.sampled_from(["generic", "colinear", "near", "near", "same", "orthogonal"]))
    if style == "colinear":
        y = draw(st.floats(-3.0, 3.0)) * x
    elif style == "near":  # about the borderline window of the equality verdicts
        y = x + 10.0 ** -rng.uniform(3.0, 4.5) * rng.uniform(-1.0, 1.0, m) * np.abs(x).max()
    elif style == "same":
        y = x.copy()
    elif style == "orthogonal" and np.any(x):
        # orthogonal_stack of this one pair, or entries where it has no y
        A = None if isinstance(T, MultiplicationSip) else T.matrices[None]
        g = np.random.default_rng(draw(st.integers(0, 99))).standard_normal(m)
        Y, status = orthogonal_stack(A, x[None], g[None])
        y = Y[0] * np.abs(x).max() if status[0] == ORTHOGONAL else draw(entries(m))
    else:
        y = draw(entries(m)) * draw(scales(m))
    u = np.abs(draw(st.one_of(entries(n), st.just(rng.uniform(0.0, 10.0, n)))))
    return Instance(sip=T, u=u * draw(scales(n)), x=x, y=y)


def groups(suite):
    """1 to 8 instances of one codomain dimension; the means suite's draw m = n."""
    return st.integers(1, 4).flatmap(lambda n: st.lists(
        instances(n, multiplication_only=suite == "means"), min_size=1, max_size=8))


def _bits(v: float) -> str:
    return "nan" if math.isnan(v) else float(v).hex()


def _summary(res) -> tuple:
    return (res.status, res.failed, res.tags,
            {k: _bits(v) for k, v in res.residuals.items()})


def _scalar_fold(a, b):
    return max(a, b, key=_nan_first)


def rows(table) -> list:
    """The TrialResult of each row of a group check's table."""
    k = len(table.residuals)
    assert table.residuals.shape == (k, len(table.names))
    assert len(table.borderline) == k and all(len(column) == k for column in table.tags)
    return [table.row(i) for i in range(k)]


def checked(suite: str, group) -> list:
    """harness._check_group's results of the group's trials, in order, each given once."""
    parts = harness._check_group(suite, group, list(range(len(group.pairs))))
    at = {i: r for pos, table in parts for i, r in zip(pos, rows(table))}
    assert sorted(at) == list(range(len(group.pairs)))
    assert sum(len(pos) for pos, _ in parts) == len(group.pairs)
    return [at[i] for i in range(len(group.pairs))]


def alone(suite: str, insts) -> list:
    """Each instance checked as a Trial, every fold the scalar NaN-first max."""
    with mock.patch.object(lattice, "fold", _scalar_fold), \
            mock.patch.object(cauchy_schwarz, "fold", _scalar_fold), \
            mock.patch.object(seminorms, "fold", _scalar_fold), \
            mock.patch.object(harness, "fold", _scalar_fold):
        return [harness._run_check(suite, Trial(inst, CONFIG)) for inst in insts]


@pytest.mark.parametrize("suite", THEOREMS)
@SETTINGS
@given(data=st.data())
def test_a_group_gives_each_trial_its_result_alone(suite, data):
    insts = data.draw(groups(suite))
    group = TrialGroup([Trial(inst, CONFIG) for inst in insts], CONFIG)
    with np.errstate(all="ignore"):
        expected = [_summary(r) for r in alone(suite, insts)]
        if any(failed == ("invalid_instance",) for _, failed, _, _ in expected):
            # a broken trial: the group is checked again one trial at a time
            got = checked(suite, group)
        elif suite == "oracle" and len({inst.sip.domain_dim for inst in insts}) > 1:
            # the oracle suite stacks x and y, which have no stack across
            # domains: the group's check raises, and its trials are
            # checked one at a time
            with pytest.raises(DimensionMismatch):
                CHECKS[suite](group)
            got = checked(suite, group)
        else:
            # no trial is broken, so the group's check must not raise
            got = rows(CHECKS[suite](group))
    assert [_summary(r) for r in got] == expected


# One broken trial among valid ones: a negative weight, x = y holding a
# 1e200 entry, and an x of the wrong length; each maps to the suites it
# fails, every suite that reads the broken value.
READS_U = {"means", "vsn", "sharp", "additivity", "pythagoras", "parallelogram"}
BROKEN = {
    "negative_u": (Instance(MultiplicationSip(2), np.array([1.0, -1.0]),
                            np.array([1.0, 2.0]), np.array([2.0, 1.0])), READS_U),
    "overflow": (Instance(MultiplicationSip(2), np.array([1.0, 2.0]),
                          np.array([1e200, 3.0]), np.array([1e200, 3.0])),
                 set(THEOREMS) - {"axioms"}),
    "x_too_long": (Instance(MultiplicationSip(2), np.ones(2), np.ones(3), np.ones(2)),
                   set(THEOREMS) - {"axioms"}),
}


def _valid(suite: str, count: int) -> list:
    """Generated instances of the suite's recipe with codomain R^2."""
    insts = chain.from_iterable(harness._chunks(replace(CONFIG, trials=200), PURPOSES[suite]))
    return [inst for inst in insts if inst.sip.codomain_dim == 2][:count]


@pytest.mark.parametrize("broken", sorted(BROKEN))
@pytest.mark.parametrize("suite", THEOREMS)
def test_a_broken_trial_fails_alone_in_its_group(suite, broken):
    inst, fails = BROKEN[broken]
    valid = _valid(suite, 6)
    insts = valid[:3] + [inst] + valid[3:]
    group = TrialGroup([Trial(i, CONFIG) for i in insts], CONFIG)
    with np.errstate(all="ignore"):
        got = [_summary(r) for r in checked(suite, group)]
        expected = [_summary(r) for r in alone(suite, insts)]
    assert got == expected
    assert [status == "fail" for status, _, _, _ in got] == [
        i == 3 and suite in fails for i in range(len(insts))]


def means_loop(rec) -> tuple:
    """(biadditivity, homogeneity) of the means suite, one geometric mean per call.

    The check before its 14 means were stacked into one call, kept as the
    reference: each residual folded into the last, the homogeneity
    residuals starting from 0.0.
    """
    x, y = rec.x, rec.y
    a, b = np.abs(x), np.abs(y)
    c = rec.each(lambda t: as_lattice_vector(t.inst.u, t.x.size))
    floor = rec.config.tolerances.abs
    biadd = rel_residual(_box_times(a + b, c, floor),
                         _box_plus(_box_times(a, c, floor), _box_times(b, c, floor)),
                         floor=floor)
    hom = 0.0
    ab = _box_times(a, b, floor)
    for lam in (0.0, 0.5, 1.0, 4.0, a[..., :1]):
        ref = np.sqrt(lam) * ab
        hom = fold(fold(hom, rel_residual(_box_times(lam * a, b, floor), ref, floor=floor)),
                   rel_residual(_box_times(a, lam * b, floor), ref, floor=floor))
    return biadd, hom


def _means_bits(rec) -> list:
    """The means suite's residual bits of each trial of rec, or "broken" if it raises as such."""
    try:
        table = CHECKS["means"](rec)
    except harness._BROKEN_INPUT:
        return "broken"
    return [[_bits(res.residuals["biadditivity"]), _bits(res.residuals["homogeneity"])]
            for res in rows(table)]


def _means_loop_bits(rec) -> list:
    try:
        biadd, hom = means_loop(rec)
    except harness._BROKEN_INPUT:
        return "broken"
    return [[_bits(b), _bits(h)] for b, h in zip(np.atleast_1d(biadd).tolist(),
                                                  np.atleast_1d(hom).tolist())]


def _check_means_against_the_loop(insts):
    """The means suite's residuals of each trial alone and of the group are the loop's."""
    def group():
        return TrialGroup([Trial(inst, CONFIG) for inst in insts], CONFIG)

    with np.errstate(all="ignore"):
        for inst in insts:
            assert _means_bits(Trial(inst, CONFIG)) == _means_loop_bits(Trial(inst, CONFIG))
        assert _means_bits(group()) == _means_loop_bits(group())


@SETTINGS
@given(data=st.data())
def test_means_in_one_call_is_the_loop_of_means(data):
    _check_means_against_the_loop(data.draw(groups("means")))


@pytest.mark.parametrize("broken", [
    # a negative weight: c leaves the positive cone
    Instance(MultiplicationSip(2), np.array([1.0, -1.0]), np.array([1.0, 2.0]),
             np.array([2.0, 1.0])),
    # a + b stays finite, but x_0 * a overflows
    Instance(MultiplicationSip(2), np.array([1.0, 2.0]), np.array([1e200, 1.0]),
             np.array([1.0, 1.0])),
])
def test_means_in_one_call_raises_where_the_loop_raises(broken):
    valid = _valid("means", 3)
    _check_means_against_the_loop([broken])
    _check_means_against_the_loop(valid[:1] + [broken] + valid[1:])
    with np.errstate(all="ignore"):
        assert _summary(harness._run_check("means", Trial(broken, CONFIG)))[1] == (
            "invalid_instance",)


@SETTINGS
@given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, math.nan, math.inf]),
                         min_size=2, max_size=2), min_size=1, max_size=8))
def test_fold_is_the_nan_first_max_of_each_pair(pairs):
    a, b = np.array(pairs).T
    got = fold(a, b)
    assert [_bits(v) for v in got] == [_bits(_scalar_fold(x, y)) for x, y in pairs]


def test_a_group_holds_all_of_a_chunks_trials_of_one_n(monkeypatch):
    # a trial keeps its two lambda-grid minima, never its samples, so no
    # grid size splits a group: each is the chunk's trials of one codomain
    # dimension, in trial order, and each suite checks it once
    config = TrialConfig(trials=40, seed=4, lambda_count=10**5, theorems=("cs", "sharp"))
    monkeypatch.setattr(harness, "TRIAL_CHUNK", 16)
    seen = {name: [] for name in config.theorems}
    for name in config.theorems:
        def recorded(rec, _check=CHECKS[name], _seen=seen[name]):
            _seen.append([t.inst.x.tobytes() for t in rec.pairs])
            return _check(rec)
        monkeypatch.setitem(CHECKS, name, recorded)
    harness.run_suite(config)
    expected = []
    for chunk in harness._chunks(config, "generic"):
        by_n = {}
        for inst in chunk:
            by_n.setdefault(inst.sip.codomain_dim, []).append(inst.x.tobytes())
        expected += by_n.values()
    assert len(expected) > 3 and max(map(len, expected)) > 1
    assert seen == {name: expected for name in config.theorems}


# cs's defect_gap bits of a generated PSD trial and a multiplication one,
# as they were when each trial kept its lambda-grid samples
CS_DEFECT_GAP = {0: "0x1.ff8ad5b68be1bp-18", 2: "0x1.6c5c0c7a481fbp-16"}


@pytest.mark.parametrize("i", sorted(CS_DEFECT_GAP))
@pytest.mark.parametrize("weight", ["shape", "negative"])
def test_a_broken_weight_keeps_the_cs_row_and_fails_sharp(i, weight):
    # the pass leaves D*u None for a weight it cannot read: cs, which
    # never reads u, gives the row of the same pair under a valid weight,
    # and sharp reads u first and fails the trial as invalid_instance,
    # whichever suite reads the trial first
    inst = generate_instance(TrialConfig(seed=0), i)
    n = inst.sip.codomain_dim
    u = np.ones(n + 1) if weight == "shape" else np.where(np.arange(n) == 0, -1.0, inst.u)
    broken = Instance(inst.sip, u, inst.x, inst.y)
    valid = _summary(harness._run_check("cs", Trial(inst, CONFIG)))
    assert valid[3]["defect_gap"] == CS_DEFECT_GAP[i]
    for order in (("cs", "sharp"), ("sharp", "cs")):
        trial = Trial(broken, CONFIG)
        got = {name: _summary(harness._run_check(name, trial)) for name in order}
        assert got["cs"] == valid
        assert got["sharp"][1] == ("invalid_instance",)
    # in a group the broken trial keeps its cs row, and fails sharp alone
    def group():
        return TrialGroup([Trial(inst, CONFIG), Trial(broken, CONFIG)], CONFIG)
    assert [_summary(r) for r in checked("cs", group())] == [valid, valid]
    sharp = [_summary(r) for r in checked("sharp", group())]
    assert sharp[0] == _summary(harness._run_check("sharp", Trial(inst, CONFIG)))
    assert sharp[1][1] == ("invalid_instance",)


def test_a_lone_trial_is_checked_as_its_trial(monkeypatch):
    # with chunks of one trial, each generated trial is a group of one and
    # arrives at its checks as its Trial; injected instances of one n
    # arrive as one TrialGroup, and
    # a broken instance alone in its n is checked once per suite, with no
    # second attempt after its check raises. A Trial's table keeps its row
    # as floats and builds its one-row array when the fold reads it: each
    # check of a Trial gains a NaN, a -0.0 and a bool residual here, and
    # the array and rows must be those the group path packs
    monkeypatch.setattr(harness, "TRIAL_CHUNK", 1)
    config = TrialConfig(trials=3, seed=2)
    valid = _valid("means", 3)
    broken = Instance(MultiplicationSip(1), np.ones(1), np.array([1e200]), np.array([1e200]))
    injected = (valid[0], broken, valid[1], valid[2])
    seen = {name: [] for name in THEOREMS}
    for name in THEOREMS:
        def recorded(rec, _check=CHECKS[name], _seen=seen[name]):
            _seen.append((type(rec).__name__, [t.inst for t in rec.pairs]))
            return _check(rec)
        monkeypatch.setitem(CHECKS, name, recorded)
    lone, results = [], harness._results
    extra = {"nan": (np.float64(math.nan), 1.0), "negative_zero": (np.array(-0.0), 1.0),
             "bool": (np.True_, 1.0)}

    def with_extra(rec, checks, *args, **kwargs):
        if isinstance(rec, Trial):
            checks = {**checks, **extra}
            lone.append(([v for v, _ in checks.values()], results(rec, checks, *args, **kwargs)))
            return lone[-1][1]
        return results(rec, checks, *args, **kwargs)

    monkeypatch.setattr(harness, "_results", with_extra)
    with np.errstate(all="ignore"):
        report = harness.run_suite(config, injected=injected)
    # every generated trial in each suite, and the broken one where its check gets that far
    assert len(lone) > config.trials * len(THEOREMS)
    for values, table in lone:
        packed = np.array([np.reshape(v, 1) for v in values], dtype=np.float64).T
        assert all(type(v) is float for v in table.rows[0])
        assert [_bits(v) for v in table.rows[0]] == [_bits(v) for v in packed[0].tolist()]
        assert [_bits(v) for v in table.rows[0][-3:]] == ["nan", (-0.0).hex(), (1.0).hex()]
        assert table.residuals.shape == packed.shape
        assert table.residuals.tobytes() == packed.tobytes()
        assert table.status == ["fail"]
    for name in THEOREMS:
        calls = seen[name]
        assert [kind for kind, _ in calls[:config.trials]] == ["Trial"] * config.trials, name
        injected_calls = [(kind, [id(i) for i in insts]) for kind, insts in calls[config.trials:]]
        assert sorted(injected_calls) == sorted([
            ("TrialGroup", [id(valid[0]), id(valid[1]), id(valid[2])]),
            ("Trial", [id(broken)])]), name
        assert report.theorems[name]["trials"] == config.trials + len(injected)


def test_every_suite_reads_an_injected_instance_through_one_trial(monkeypatch):
    # run_suite checks the injected instances once, as one chunk under
    # every selected suite, in groups of one codomain dimension: each
    # instance is one Trial, which all nine suites read. Valid PSD
    # instances of one n and two m (u a vector of x's lattice, as the
    # means suite reads it) make one group, whose x and y have no stack:
    # under means and oracle its check raises and falls back to lone
    # checks, and each row is the trial's lone check, bit for bit
    rng = np.random.default_rng(6)
    insts = []
    for m in (2, 3, 3, 2, 3):
        B = rng.uniform(-1.0, 1.0, (2, m, m))
        T = PsdFamilySip(np.einsum("jka,jkb->jab", B, B), validate=False)
        insts.append(Instance(T, rng.uniform(0.0, 5.0, m), rng.uniform(-5.0, 5.0, m),
                              rng.uniform(-5.0, 5.0, m)))
    config = TrialConfig(trials=2, seed=3)
    stacked = ("means", "oracle")
    expected = {name: [_summary(harness._run_check(name, Trial(inst, config))) for inst in insts]
                for name in stacked}
    assert all(summary[0] != "fail" for lone in expected.values() for summary in lone)
    ids = {id(inst): k for k, inst in enumerate(insts)}
    seen = {name: [] for name in THEOREMS}
    checks = dict(CHECKS)
    for name in THEOREMS:
        def recorded(rec, _check=checks[name], _seen=seen[name]):
            # kept before the check, so that an attempt that raises shows;
            # the trials themselves are kept, so that no id is reused
            call = [type(rec).__name__, [ids.get(id(t.inst)) for t in rec.pairs], rec.pairs, None]
            _seen.append(call)
            call[3] = _check(rec)
            return call[3]
        monkeypatch.setitem(CHECKS, name, recorded)
    with np.errstate(all="ignore"):
        harness.run_suite(config, injected=tuple(insts))
    calls = {name: [call for call in seen[name] if call[1] != [None] * len(call[1])]
             for name in THEOREMS}
    trials = {}
    for _, attempt, pairs, _ in chain.from_iterable(calls.values()):
        for k, trial in zip(attempt, pairs):
            trials.setdefault(k, []).append(trial)
    assert sorted(trials) == list(range(len(insts)))
    for k, seen_as in trials.items():
        assert all(trial is seen_as[0] for trial in seen_as), k
    for name in THEOREMS:
        assert calls[name][0][:2] == ["TrialGroup", [0, 1, 2, 3, 4]], name
    for name in stacked:
        assert calls[name][0][3] is None, name
        with pytest.raises(DimensionMismatch):
            checks[name](TrialGroup([Trial(inst, config) for inst in insts], config))
        assert [(kind, attempt) for kind, attempt, _, _ in calls[name][1:]] == [
            ("Trial", [k]) for k in range(len(insts))], name
        for _, attempt, _, table in calls[name][1:]:
            assert [_summary(r) for r in rows(table)] == [expected[name][k] for k in attempt]
