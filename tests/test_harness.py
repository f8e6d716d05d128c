import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from riesz_sip.harness import (
    CHECKS,
    MAX_GRID_COUNT,
    PURPOSES,
    THEOREMS,
    ConfigError,
    Instance,
    Tolerances,
    TrialConfig,
    build_grids,
    config_from_params,
    convergence_study,
    emit_report,
    generate_instance,
    params_from_config,
    replay_counterexample,
    report_to_json,
    run_suite,
    shrink,
)
from riesz_sip.lattice import DimensionMismatch
from riesz_sip.sip import MultiplicationSip, PsdFamilySip, random_psd, sip_eval

SMALL = TrialConfig(seed=42, trials=40)

# sha256 of the report of test_report_bytes_are_pinned, less wall_time_s.
# Refactors must leave it unchanged; a change that alters reports on
# purpose updates it and says so.
PINNED_REPORT_SHA256 = "300b4df6dec70464f36a9650aa9c9c4a642812cf482b52a3dacf4abd58ef1fd2"
# The same for the study of test_study_bytes_are_pinned.
PINNED_STUDY_SHA256 = "c03b03308d74d19ddc48e7248e9bc164505e4701546d6e6ac7bccf142c7f3e3e"
# The same for the report of test_injected_overflow_and_shape_report_is_pinned.
PINNED_INJECTED_SHA256 = "eaa7c99532bf6f0e4c594830cfa5a9452d56449447521df7f392f28b7d9fe13d"


def _asymmetric_instance(m=8):
    A = np.zeros((1, m, m))
    A[0, 0, 1] = 1.0
    return Instance(sip=PsdFamilySip(A, validate=False),
                    u=np.ones(1), x=np.ones(m), y=np.ones(m))


def _negative_instance():
    return Instance(sip=PsdFamilySip([-np.eye(2)], validate=False),
                    u=np.ones(1), x=np.ones(2), y=np.ones(2))


def test_config_validation():
    with pytest.raises(ConfigError):
        TrialConfig(trials=0)
    with pytest.raises(ConfigError):
        TrialConfig(seed=-1)
    with pytest.raises(ConfigError):
        TrialConfig(seed=2**64)
    with pytest.raises(ConfigError):
        TrialConfig(m_lo=0)
    with pytest.raises(ConfigError):
        TrialConfig(m_lo=5, m_hi=4)
    with pytest.raises(ConfigError):
        TrialConfig(n_hi=65)
    with pytest.raises(ConfigError):
        TrialConfig(theorems=("axioms", "nonsense"))
    with pytest.raises(ConfigError):
        TrialConfig(tolerances=Tolerances(rel=0.0))
    with pytest.raises(ConfigError):
        TrialConfig(lambda_lo=1.0, lambda_hi=0.5)
    with pytest.raises(ConfigError):
        TrialConfig(theta_count=1)
    for count in ("angle_count", "lambda_count", "theta_count"):
        with pytest.raises(ConfigError):
            TrialConfig(**{count: 4096.0})
        with pytest.raises(ConfigError):
            TrialConfig(**{count: MAX_GRID_COUNT + 1})
        TrialConfig(**{count: MAX_GRID_COUNT})
    with pytest.raises(ConfigError):
        TrialConfig(log_entry_lo=10.0, log_entry_hi=1.0)
    # pythagoras trials need an orthogonal pair to exist
    with pytest.raises(ConfigError):
        TrialConfig(theorems=("pythagoras",), m_lo=1, m_hi=1, n_lo=1, n_hi=1)
    # same dims are fine for suites that do not need orthogonality
    TrialConfig(theorems=("axioms",), m_lo=1, m_hi=1, n_lo=1, n_hi=1)


def test_generate_is_deterministic():
    for purpose in ("generic", "positive_log", "orthogonal"):
        a = generate_instance(SMALL, 7, purpose).to_dict()
        b = generate_instance(SMALL, 7, purpose).to_dict()
        assert a == b
        c = generate_instance(SMALL, 8, purpose).to_dict()
        assert a != c
    with pytest.raises(ConfigError):
        generate_instance(SMALL, 0, "bogus")


def test_generate_generic_shapes():
    kinds = set()
    for i in range(200):
        inst = generate_instance(SMALL, i, "generic")
        kinds.add(inst.kind)
        n = inst.sip.codomain_dim
        assert SMALL.n_lo <= n <= SMALL.n_hi
        assert inst.u.shape == (n,)
        assert np.min(inst.u) >= 0.0
        assert np.max(inst.u) <= SMALL.u_hi
        assert np.max(np.abs(inst.x)) <= SMALL.entry_hi
        assert inst.x.shape == (inst.sip.domain_dim,)
    assert kinds == {"multiplication", "psd_family"}


def test_generate_positive_log_range():
    for i in range(100):
        inst = generate_instance(SMALL, i, "positive_log")
        assert inst.kind == "multiplication"
        mags = np.abs(np.concatenate([inst.x, inst.y]))
        assert np.min(mags) >= SMALL.log_entry_lo
        assert np.max(mags) <= SMALL.log_entry_hi


def test_generate_orthogonal_pairs():
    for i in range(100):
        inst = generate_instance(SMALL, i, "orthogonal")
        b = sip_eval(inst.sip, inst.x, inst.y)
        scale = max(1.0, float(np.max(np.abs(inst.x))))
        assert float(np.max(np.abs(b))) <= 1e-8 * scale
        if inst.kind == "psd_family":
            assert inst.sip.domain_dim > inst.sip.codomain_dim
        else:
            assert np.min(np.abs(inst.x)) == 0.0  # zeroed support


def test_instance_round_trip():
    inst = generate_instance(SMALL, 3, "generic")
    back = Instance.from_dict(inst.to_dict())
    assert back.to_dict() == inst.to_dict()
    with pytest.raises(ValueError):
        Instance.from_dict({"kind": "multiplication", "m": 1, "n": 1,
                            "u": [1.0], "x": [float("nan")], "y": [1.0]})
    # dimension mismatches load fine and must fail in the checks instead
    bad = Instance.from_dict({"kind": "multiplication", "m": 2, "n": 2,
                              "u": [1.0, 1.0], "x": [1.0, 2.0, 3.0],
                              "y": [1.0, 2.0]})
    assert bad.x.shape == (3,)


def test_run_suite_bookkeeping():
    config = TrialConfig(seed=1, trials=100, theorems=("parallelogram",))
    report = run_suite(config)
    assert set(report.theorems) == {"parallelogram"}
    entry = report.theorems["parallelogram"]
    assert entry["trials"] == 100
    assert entry["passes"] + entry["failures"] + entry["borderline"] == 100
    assert entry["failures"] == 0
    assert report.ok
    assert entry["worst_instance"] is not None
    assert entry["max_residual"] == max(entry["residuals"].values())


def test_run_suite_all_theorems_pass_small():
    report = run_suite(SMALL)
    assert set(report.theorems) == set(THEOREMS)
    for name, entry in report.theorems.items():
        assert entry["failures"] == 0, (name, entry["residuals"])
    assert report.ok


def test_run_suite_empty_selection():
    report = run_suite(TrialConfig(trials=1, theorems=()))
    assert report.theorems == {}
    assert report.ok


def test_run_suite_is_deterministic():
    r1 = run_suite(TrialConfig(seed=42, trials=30)).to_dict()
    r2 = run_suite(TrialConfig(seed=42, trials=30)).to_dict()
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert r1 == r2
    r3 = run_suite(TrialConfig(seed=43, trials=30)).to_dict()
    r3.pop("wall_time_s")
    assert r1 != r3


def test_injected_witness_is_caught():
    config = TrialConfig(seed=2, trials=5, theorems=("axioms",))
    report = run_suite(config, injected=(_asymmetric_instance(),))
    entry = report.theorems["axioms"]
    assert entry["trials"] == 6
    assert entry["failures"] == 1
    assert not report.ok
    assert len(entry["counterexamples"]) == 1
    ce = entry["counterexamples"][0]
    assert ce["theorem"] == "axioms"
    assert "symmetry" in ce["failed"]
    assert ce["schema"] == "riesz-sip/1"


def test_injected_negative_definite_is_caught():
    config = TrialConfig(seed=2, trials=5, theorems=("axioms",))
    report = run_suite(config, injected=(_negative_instance(),))
    ce = report.theorems["axioms"]["counterexamples"][0]
    assert "positivity" in ce["failed"]


def test_counterexample_replay_is_exact():
    config = TrialConfig(seed=2, trials=5, theorems=("axioms",))
    report = run_suite(config, injected=(_asymmetric_instance(),))
    ce = report.theorems["axioms"]["counterexamples"][0]
    res = replay_counterexample(ce)
    assert res.status == "fail"
    assert set(res.residuals) == set(ce["residuals"])
    for k, v in res.residuals.items():
        assert abs(v - ce["residuals"][k]) <= 1e-12
    for bad in (ce["instance"], {**ce, "theorem": "bogus"}, {**ce, "theorem": ["axioms"]}, [ce],
                {**ce, "params": {"grids": {"theta_count": 100.5}}},
                {**ce, "params": {"grids": {"theta_count": 10**15}}}):
        with pytest.raises(ConfigError):
            replay_counterexample(bad)


def test_nan_residuals_are_never_hidden():
    # T(x,x) overflows, so the oracle residuals are NaN: the maxima and the
    # worst instance must show the failing trial, not the worst finite one
    overflow = Instance(sip=MultiplicationSip(2), u=np.ones(2),
                        x=np.array([1e200, 1.0]), y=np.array([1e200, 1.0]))
    with np.errstate(all="ignore"):
        report = run_suite(TrialConfig(trials=3, theorems=("oracle", "cs")),
                           injected=(overflow,))
    entry = report.theorems["oracle"]
    assert entry["failures"] == 1
    assert np.isnan(entry["max_residual"])
    assert any(np.isnan(v) for v in entry["residuals"].values())
    worst = entry["worst_instance"]
    assert worst["failed"] and np.isnan(worst["ratio"])
    assert worst["instance"] == overflow.to_dict()


def test_mismatched_instance_fails_as_invalid():
    bad = Instance(sip=MultiplicationSip(2), u=np.ones(2),
                   x=np.ones(3), y=np.ones(2))
    config = TrialConfig(seed=2, trials=2, theorems=("cs",))
    report = run_suite(config, injected=(bad,))
    entry = report.theorems["cs"]
    assert entry["failures"] == 1
    assert entry["counterexamples"][0]["failed"] == ["invalid_instance"]


def test_only_broken_input_counts_as_invalid(monkeypatch):
    # a check failing with any error but the three of broken input is a
    # fault of the program: it propagates instead of being recorded
    def faulty(inst, config, grids):
        raise ValueError("a fault of the program")
    monkeypatch.setitem(CHECKS, "cs", faulty)
    with pytest.raises(ValueError, match="a fault of the program"):
        run_suite(TrialConfig(trials=1, theorems=("cs",)))
    # x and y that numpy cannot add are refused at the suite's entry
    bad = Instance(sip=MultiplicationSip(3), u=np.ones(3), x=np.ones(3), y=np.ones(2))
    with pytest.raises(DimensionMismatch):
        CHECKS["means"](bad, SMALL, build_grids(SMALL))


def test_shrink_minimizes_asymmetric_witness():
    config = TrialConfig(seed=0, trials=1, theorems=("axioms",))
    small, res = shrink(_asymmetric_instance(m=8), "axioms", config)
    assert res.status == "fail"
    d = small.to_dict()
    assert d["m"] == 2 and d["n"] == 1
    assert d["matrices"] == [[[0.0, 1.0], [0.0, 0.0]]]
    assert d["x"] == [0.0, 0.0] and d["y"] == [0.0, 0.0] and d["u"] == [0.0]


def test_shrink_fixed_point():
    config = TrialConfig(seed=0, trials=1, theorems=("axioms",))
    small, _ = shrink(_asymmetric_instance(m=8), "axioms", config)
    again, res = shrink(small, "axioms", config)
    assert again.to_dict() == small.to_dict()
    assert res.status == "fail"


def test_shrink_takes_dimensions_from_the_sip():
    # u carries one coordinate more than the family has matrices: every
    # candidate must still be a well-formed sip that fails as invalid.
    T = random_psd(np.random.default_rng(1), 3, 2)
    inst = Instance(sip=T, u=np.ones(3), x=np.ones(3), y=np.ones(3))
    small, res = shrink(inst, "sharp", TrialConfig(trials=1))
    assert res.status == "fail" and res.failed == ("invalid_instance",)
    assert small.sip.codomain_dim == 1 and small.u.shape == (2,)


def test_shrink_rejects_passing_instance():
    good = Instance(sip=random_psd(np.random.default_rng(0), 2, 1), u=np.ones(1),
                    x=np.ones(2), y=np.ones(2))
    with pytest.raises(ConfigError):
        shrink(good, "axioms", TrialConfig(trials=1))


def test_config_from_params_honors_stored_settings():
    params = {"tolerances": {"rel": 1e-6, "abs": 1e-10, "cone_band": 1e-7},
              "grids": {"lambda_count": 11, "theta_count": 33}}
    config = config_from_params(params)
    assert config.tolerances.rel == 1e-6
    assert config.lambda_count == 11
    assert config.theta_count == 33


def test_convergence_study_gaps_shrink():
    config = TrialConfig(seed=3, trials=25)
    study = convergence_study(config, grid_sizes=(64, 256, 1024))
    assert study.ok
    assert study.monotone_ok and study.sandwich_ok
    assert [r["grid_size"] for r in study.rows] == [64, 256, 1024]
    for key in ("box_times_gap", "box_plus_gap", "defect_gap"):
        vals = [r[key] for r in study.rows]
        assert vals[0] >= vals[-1]
        assert vals[-1] < 1e-2
    with pytest.raises(ConfigError):
        convergence_study(config, grid_sizes=(100,))
    with pytest.raises(ConfigError):
        convergence_study(config, grid_sizes=(2, 100))
    with pytest.raises(ConfigError):
        convergence_study(config, grid_sizes=(4, MAX_GRID_COUNT + 1))


def test_report_serialization():
    report = run_suite(TrialConfig(seed=5, trials=10, theorems=("means",)))
    text = report_to_json(report.to_dict())
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == json.loads(json.dumps(report.to_dict()))
    assert parsed["schema"] == "riesz-sip/1"
    assert parsed["ok"] is True
    # stable: serializing twice gives identical bytes
    assert text == report_to_json(report.to_dict())


def test_emit_report(tmp_path):
    report = run_suite(TrialConfig(seed=5, trials=5, theorems=("means",)))
    out = tmp_path / "report.json"
    emit_report(report, out)
    assert json.loads(out.read_text()) == json.loads(report_to_json(report.to_dict()))


def _sha256_less_wall_time(report) -> str:
    body = report.to_dict()
    body.pop("wall_time_s")
    text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_report_bytes_are_pinned():
    report = run_suite(TrialConfig(trials=200, seed=2024),
                       injected=(_asymmetric_instance(m=2), _negative_instance()))
    assert _sha256_less_wall_time(report) == PINNED_REPORT_SHA256


def _mult(x, y, u=None):
    u = np.ones(len(x)) if u is None else u
    return Instance(sip=MultiplicationSip(len(x)), u=np.array(u, dtype=float),
                    x=np.array(x, dtype=float), y=np.array(y, dtype=float))


def _psd(matrices, x, y, u=(1.0,)):
    return Instance(sip=PsdFamilySip(matrices, validate=False), u=np.array(u, dtype=float),
                    x=np.array(x, dtype=float), y=np.array(y, dtype=float))


_SUBNORMAL = 1e-320 * np.eye(2)[None]       # T(x,x) stays finite for x near 1e308
_SINGULAR = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
_VALID = random_psd(np.random.default_rng(7), 4, 2)
_U_TOO_LONG = Instance(sip=_VALID, u=np.ones(3), x=np.ones(4), y=np.ones(4))

# Broken instances that reach each finiteness, cone and shape check a suite
# relies on: overflow of a T-value, of T(x,x)*u, of x+y, x-y and alpha*x,
# families that are singular, huge or negative definite, and vectors of
# the wrong dimension.
INJECTED_OVERFLOW_AND_SHAPE = (
    _mult([1e200, 1.0], [1e200, 1.0]),
    _mult([1e154], [1.0], u=[10.0]),
    _mult([1e308, 1.0], [1e308, 1.0]),
    _mult([1.7e308, 1.0], [-1.7e308, 1.0]),
    _psd(_SUBNORMAL, [1.7e308, 1.0], [-1.7e308, 1.0]),
    _psd(_SUBNORMAL, [2e300, 1.0], [1.0, 1.0]),
    _psd(_SUBNORMAL, [1e308, 1e308], [1e308, 1e308]),
    _psd(_SINGULAR, [1.0, 2.0], [3.0, -1.0]),
    _psd(1e300 * _SINGULAR, [1.0, 2.0], [3.0, -1.0]),
    _psd([-np.eye(2)], [1.0, 2.0], [3.0, -1.0]),
    _U_TOO_LONG,
    Instance(sip=_VALID, u=np.ones(2), x=np.ones(5), y=np.ones(4)),
    Instance(sip=_VALID, u=np.ones(2), x=np.ones(4), y=np.ones(5)),
    _mult([1.0], [1.0, 2.0]),
)


def test_injected_overflow_and_shape_report_is_pinned():
    config = TrialConfig(trials=3, seed=5)
    with np.errstate(all="ignore"):
        report = run_suite(config, injected=INJECTED_OVERFLOW_AND_SHAPE)
        invalid = {name for name in THEOREMS if replay_counterexample({
            "instance": _U_TOO_LONG.to_dict(), "theorem": name,
            "params": params_from_config(config)}).failed == ("invalid_instance",)}
    assert _sha256_less_wall_time(report) == PINNED_INJECTED_SHA256
    # only the suites that read u reject it
    assert invalid == {"vsn", "sharp", "additivity", "pythagoras", "parallelogram", "means"}


def test_suites_share_instances_without_changing_them():
    # each purpose's instances are generated once and read by several
    # suites: a suite's entry must not depend on the suites run before it
    config = TrialConfig(trials=200, seed=2024)
    injected = (_asymmetric_instance(m=2), _negative_instance())
    together = run_suite(config, injected=injected).theorems
    for name in THEOREMS:
        alone = run_suite(replace(config, theorems=(name,)), injected=injected).theorems
        assert report_to_json(alone[name]) == report_to_json(together[name]), name


def test_study_bytes_are_pinned():
    # both log-spaced grids and the lambda-grid sampler, at three sizes
    study = convergence_study(TrialConfig(trials=50, seed=2024), grid_sizes=(64, 256, 1024))
    assert _sha256_less_wall_time(study) == PINNED_STUDY_SHA256


def test_each_gram_value_is_evaluated_once(monkeypatch):
    calls = []
    for cls in (PsdFamilySip, MultiplicationSip):
        def counted(self, x, y, _eval=cls.eval):
            calls.append(1)
            return _eval(self, x, y)
        monkeypatch.setattr(cls, "eval", counted)
    # distinct T-values per trial: a, b, c, T(x+y,x+y), T(x-y,x-y), and
    # the five scaled pairs of the seminorm homogeneity check
    distinct = {"cs": 3, "sharp": 4, "additivity": 4, "pythagoras": 4,
                "parallelogram": 4, "vsn": 8}
    grids = build_grids(SMALL)
    for suite, expected in distinct.items():
        for i in range(20):
            inst = generate_instance(SMALL, i, PURPOSES[suite])
            del calls[:]
            assert CHECKS[suite](inst, SMALL, grids).status != "fail"
            assert len(calls) == expected, suite
