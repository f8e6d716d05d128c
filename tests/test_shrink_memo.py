"""shrink with its memo and inherited lambda minima gives what the plain greedy loop gives.

harness.shrink keeps, for one call, a memo from each candidate's read key
(the parts of the instance its check reads, harness._READS) to the check's
verdict, and checks no candidate whose key it holds; a candidate that
drops codomain coordinate j takes the current trial's lambda minima
without row j. reference_shrink below is the loop it replaced: every
candidate checked afresh, with no memo and no inheritance. Both must end
at the same instance, bit for bit, with the same failed checks, tags and
residual bits, under all nine checks, over the shrink inputs of
tools/compare.py's tiny corpus and its shrink cases, and over the eight
broken instances of perfbench's triage-shrink sessions at three seeds.

Inherited minima must be those of a fresh pass, bit for bit, for both sip
kinds at m <= 12, n <= 8, under weights that are valid, hold a zero, hold
a negative entry at the dropped row or away from it, hold a negative
entry within the clamp, or have one entry too many.
"""

import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from riesz_sip import harness
from riesz_sip.harness import THEOREMS, Instance, Trial, TrialConfig, read_case, run_suite
from riesz_sip.sip import MultiplicationSip, random_psd

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]

import compare  # noqa: E402


def reference_shrink(inst: Instance, theorem: str, config: TrialConfig) -> tuple:
    """Greedy shrink with every candidate checked afresh, as a Trial of its own."""
    res = harness._run_check(theorem, Trial(inst, config))
    assert res.status == "fail"
    current = inst
    while True:
        for cand in harness._shrink_candidates(current):
            got = harness._run_check(theorem, Trial(cand, config))
            if got.status == "fail":
                current, res = cand, got
                break
        else:
            return current, res


def _bits(v: float) -> str:
    return "nan" if math.isnan(v) else float(v).hex()


def _array(a) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def _outcome(inst: Instance, res) -> tuple:
    T = inst.sip
    sip = (T.dim,) if isinstance(T, MultiplicationSip) else _array(T.matrices)
    return (inst.kind, sip, _array(inst.u), _array(inst.x), _array(inst.y),
            res.status, res.failed, res.tags, res.tols,
            [(k, _bits(v)) for k, v in res.residuals.items()])


def _corpus_cases() -> list:
    """(label, instance, theorem, config) of every shrink of compare.py's tiny corpus."""
    cases, seen = [], set()
    for name, config, injected in compare.reports(tiny=True):
        report = run_suite(config, injected=injected)
        for theorem, entry in report.theorems.items():
            for i, ce in enumerate(entry["counterexamples"]):
                key = harness.report_to_json(ce)
                if key not in seen:
                    seen.add(key)
                    cases.append((f"{name}/{theorem}/{i}", *read_case(ce)))
    for name, ce in compare.shrink_cases():
        inst, theorem, config = read_case(ce)
        cases.append((name, inst, theorem, config))
    return cases


def _triage_cases() -> list:
    """The failing (instance, check) pairs of three triage-shrink sessions' broken instances."""
    config = TrialConfig(trials=1)
    cases = []
    for seed in range(3):
        for i, d in enumerate(compare._triage_instances(seed, seed)):
            inst = Instance.from_dict(d)
            for theorem in THEOREMS:
                if harness._run_check(theorem, Trial(inst, config)).status == "fail":
                    cases.append((f"seed={seed}/{i}/{theorem}", inst, theorem, config))
    return cases


def _count_paths(monkeypatch) -> Counter:
    """Counts of shrink's candidates, checks and inherited minima from here on."""
    seen = Counter()
    candidates, check, inherit = (harness._shrink_candidates, harness._check_group,
                                  harness._inherit_minima)

    def counted_candidates(cur):
        for cand in candidates(cur):
            seen["candidates"] += 1
            yield cand

    def counted_check(theorem, rec, idx):
        seen["checks"] += 1
        return check(theorem, rec, idx)

    def counted_inherit(trial, parent, j):
        inherit(trial, parent, j)
        seen["inherited"] += "minima" in vars(trial)

    monkeypatch.setattr(harness, "_shrink_candidates", counted_candidates)
    monkeypatch.setattr(harness, "_check_group", counted_check)
    monkeypatch.setattr(harness, "_inherit_minima", counted_inherit)
    return seen


@pytest.mark.parametrize("cases", [_corpus_cases, _triage_cases])
def test_shrink_is_the_reference_loop(cases, monkeypatch):
    with np.errstate(all="ignore"):
        cases = cases()
        expected = [_outcome(*reference_shrink(inst, theorem, config))
                    for _, inst, theorem, config in cases]
        seen = _count_paths(monkeypatch)
        got = [_outcome(*harness.shrink(inst, theorem, config))
               for _, inst, theorem, config in cases]
    for (label, *_), g, e in zip(cases, got, expected):
        assert g == e, label
    assert {theorem for _, _, theorem, _ in cases} == set(THEOREMS)
    # the memo spared checks, and codomain drops took inherited minima
    assert seen["checks"] < seen["candidates"] + len(cases) and seen["inherited"] > 0, seen


def _weight(kind: str, u: np.ndarray, j: int) -> np.ndarray:
    u = u.copy()
    if kind == "zero":
        u[j] = 0.0
    elif kind == "negative-dropped":
        u[j] = -1.0
    elif kind == "negative-other":
        u[(j + 1) % u.size] = -1.0
    elif kind == "clamped":  # within the clamp to 0
        u[j] = u[(j + 1) % u.size] = -1e-13
    elif kind == "long":
        u = np.append(u, 1.0)
    return u


WEIGHTS = {"valid": True, "zero": True, "clamped": True,
           "negative-dropped": False, "negative-other": False, "long": False}
SHAPES = {"psd_family": ((1, 2), (2, 2), (3, 5), (7, 3), (12, 8), (5, 8), (12, 2)),
          "multiplication": ((2, 2), (3, 3), (5, 5), (8, 8))}


def _minima_bits(minima: tuple) -> tuple:
    return tuple(None if v is None else _array(v) for v in minima)


@pytest.mark.parametrize("lambda_count", [2001, 6000])
@pytest.mark.parametrize("kind", sorted(SHAPES))
def test_inherited_minima_are_a_fresh_pass(kind, lambda_count):
    # 12,000 signed grid points take several blocks per pair, of a width
    # that depends on max(m, n), so where n > m a parent and its candidate
    # fold their blocks at different columns
    config = TrialConfig(trials=1, lambda_count=lambda_count)
    rng = np.random.default_rng(12)
    for m, n in SHAPES[kind]:
        T = MultiplicationSip(n) if kind == "multiplication" else random_psd(rng, m, n)
        u = rng.uniform(0.0, 10.0, n)
        x, y = rng.uniform(-10.0, 10.0, (2, m))
        for weight, inherits in WEIGHTS.items():
            for j in range(n):
                parent = Trial(Instance(T, _weight(weight, u, j), x, y), config)
                parent.minima
                cand = list(harness._shrink_candidates(parent.inst))[j]
                assert cand.sip.codomain_dim == n - 1
                trial = Trial(cand, config)
                harness._inherit_minima(trial, parent, j)
                assert ("minima" in vars(trial)) == inherits, (m, n, weight, j)
                fresh = Trial(cand, config).minima
                assert _minima_bits(trial.minima) == _minima_bits(fresh), (m, n, weight, j)
