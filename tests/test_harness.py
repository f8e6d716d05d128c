import hashlib
import json
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesz_sip import harness
from riesz_sip.cli import main
from riesz_sip.harness import (
    CHECKS,
    MAX_GRID_COUNT,
    PURPOSES,
    THEOREMS,
    ConfigError,
    GenerationExhausted,
    Instance,
    Tolerances,
    Trial,
    TrialConfig,
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
from riesz_sip.cauchy_schwarz import Gram
from riesz_sip.lattice import DimensionMismatch
from riesz_sip.sip import MultiplicationSip, PsdFamilySip, check_axioms, random_psd

SMALL = TrialConfig(seed=42, trials=40)

# sha256 of the report of test_report_bytes_are_pinned, less wall_time_s.
# Refactors must leave it unchanged; a change that alters reports on
# purpose updates it and says so.
PINNED_REPORT_SHA256 = "300b4df6dec70464f36a9650aa9c9c4a642812cf482b52a3dacf4abd58ef1fd2"
# The same for the study of test_study_bytes_are_pinned.
PINNED_STUDY_SHA256 = "c03b03308d74d19ddc48e7248e9bc164505e4701546d6e6ac7bccf142c7f3e3e"
# The same for the study of test_multi_block_study_bytes_are_pinned.
PINNED_MULTI_BLOCK_STUDY_SHA256 = "c072876243c18c426d38e878ad7949b074e4b5123751e064cd670e9994e7a328"
# The same for the report of test_injected_overflow_and_shape_report_is_pinned.
PINNED_INJECTED_SHA256 = "eaa7c99532bf6f0e4c594830cfa5a9452d56449447521df7f392f28b7d9fe13d"
# sha256 of the instances of test_orthogonal_generation_is_pinned.
PINNED_ORTHOGONAL_SHA256 = "63cb08861d5b2a61ffb716143a570eb0eaeedcd921804047e08342f91baf9647"


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
    with pytest.raises(ConfigError, match=r"^duplicate theorems: \['cs'\]$"):
        TrialConfig(theorems=("cs", "axioms", "cs"))
    with pytest.raises(ConfigError):
        TrialConfig(tolerances=Tolerances(rel=0.0))
    with pytest.raises(ConfigError):
        TrialConfig(lambda_lo=1.0, lambda_hi=0.5)
    for hi in ("theta_hi", "lambda_hi"):
        with pytest.raises(ConfigError):
            TrialConfig(**{hi: float("inf")})
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
    # orthogonal generation scales y by a factor drawn from [0.5, entry_hi]
    with pytest.raises(ConfigError):
        TrialConfig(trials=3, entry_hi=1e-6, theorems=("pythagoras",))
    assert run_suite(TrialConfig(trials=3, entry_hi=0.5, theorems=("pythagoras",))).ok
    assert run_suite(TrialConfig(trials=3, entry_hi=1e-6, theorems=("cs",))).ok


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
        b = Gram(inst.sip, inst.x, inst.y).b
        scale = max(1.0, float(np.max(np.abs(inst.x))))
        assert float(np.max(np.abs(b))) <= 1e-8 * scale
        if inst.kind == "psd_family":
            assert inst.sip.domain_dim > inst.sip.codomain_dim
        else:
            assert np.min(np.abs(inst.x)) == 0.0  # zeroed support


def test_orthogonal_generation_is_pinned():
    # Shapes beyond the defaults (m <= 6, n <= 4) give null spaces of
    # dimension 2 and more, where the layout of the kernel basis decides
    # the summation order of y, and so its bits.
    config = TrialConfig(seed=2024, m_lo=1, m_hi=12, n_lo=1, n_hi=8)
    instances = []
    for i in range(2000):
        try:
            instances.append(generate_instance(config, i, "orthogonal").to_dict())
        except GenerationExhausted:
            instances.append(None)
    text = json.dumps(instances, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_ORTHOGONAL_SHA256


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


def test_serialization_round_trip():
    T = random_psd(np.random.default_rng(6), 3, 2)
    d = Instance(sip=T, u=np.ones(2), x=np.ones(3), y=np.ones(3)).to_dict()
    assert d["kind"] == "psd_family"
    assert d["m"] == 3 and d["n"] == 2
    back = Instance.from_dict(d)
    assert np.array_equal(back.sip.matrices, T.matrices)

    vectors = {"u": [1.0] * 4, "x": [2.0] * 4, "y": [3.0] * 4}
    d2 = Instance(MultiplicationSip(4), *(np.array(vectors[k]) for k in ("u", "x", "y"))).to_dict()
    assert d2 == {"kind": "multiplication", "m": 4, "n": 4, **vectors}
    assert Instance.from_dict(d2).sip.dim == 4


def test_deserialization_never_validates():
    # a broken family must load so the axiom checker can flag it
    d = {"kind": "psd_family", "m": 2, "n": 1,
         "matrices": [[[0.0, 1.0], [0.0, 0.0]]], "u": [1.0], "x": [1.0, 1.0], "y": [1.0, 1.0]}
    broken = Instance.from_dict(d).sip
    assert max(check_axioms(broken, samples=100, seed=0).values()) > 1e-9


def test_deserialization_validation_errors():
    vectors = {"u": [1.0], "x": [1.0], "y": [1.0]}
    with pytest.raises(DimensionMismatch):
        Instance.from_dict({"kind": "multiplication", "m": 2, "n": 3, **vectors})
    with pytest.raises(DimensionMismatch):
        Instance.from_dict({"kind": "psd_family", "m": 2, "n": 2,
                            "matrices": [[[1.0]]], **vectors})
    with pytest.raises(ValueError):
        Instance.from_dict({"kind": "something_else", "m": 1, "n": 1, **vectors})
    # dimensions that int() would truncate or coerce
    for m, n in ((2.7, 2.7), (True, True), ("2", "2"), (2, 2.0)):
        with pytest.raises(DimensionMismatch, match="must be integers"):
            Instance.from_dict({"kind": "multiplication", "m": m, "n": n, **vectors})
    with pytest.raises(DimensionMismatch, match="must be integers"):
        Instance.from_dict({"kind": "psd_family", "m": 1, "n": 1.5,
                            "matrices": [[[1.0]]], **vectors})


def test_grids_are_built_on_first_read_and_kept():
    names = ("theta_grid", "angle_grid", "lambda_grid")
    config = TrialConfig()
    assert not set(names) & set(vars(config))
    for name in names:
        assert getattr(config, name) is getattr(config, name)
    # the grids are no fields: the config, its params and a report's echo
    # of it read as before they were built
    fresh = TrialConfig()
    assert config == fresh and hash(config) == hash(fresh)
    assert asdict(config) == asdict(fresh)
    assert params_from_config(config) == params_from_config(fresh)
    report = run_suite(replace(config, trials=1, theorems=("oracle",)))
    assert set(report.config) == set(asdict(fresh)) and not set(names) & set(report.config)
    sized = replace(config, theta_count=33)
    assert sized.theta_grid.count == 33 and config.theta_grid.count == config.theta_count


def test_unknown_check_names_are_config_errors():
    with pytest.raises(ConfigError, match="unknown check 'bogus'"):
        shrink(_asymmetric_instance(), "bogus", SMALL)
    ce = run_suite(TrialConfig(trials=1, theorems=("axioms",)),
                   injected=(_asymmetric_instance(),)).theorems["axioms"]["counterexamples"][0]
    with pytest.raises(ConfigError, match="unknown check 'bogus'"):
        replay_counterexample({**ce, "theorem": "bogus"})


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


@pytest.mark.parametrize("index", [0, 1, 2])
def test_overflowing_pair_fails_every_suite_that_reads_it(index):
    # x = y holds one 1e200 entry, so sqrt(|x|*|y|) overflows: every suite
    # but axioms (which never reads x) must fail, the means suite included,
    # whose homogeneity residual is then NaN or its scaling overflows
    x = np.insert([2.0, 3.0], index, 1e200)
    overflow = Instance(sip=MultiplicationSip(3), u=np.array([1.0, 2.0, 3.0]),
                        x=x, y=x.copy())
    with np.errstate(all="ignore"):
        report = run_suite(replace(SMALL, trials=2), injected=(overflow,))
    for name, entry in report.theorems.items():
        kept = [ce["instance"] for ce in entry["counterexamples"]]
        assert kept == ([] if name == "axioms" else [overflow.to_dict()]), name


def test_mismatched_instance_fails_as_invalid():
    bad = Instance(sip=MultiplicationSip(2), u=np.ones(2),
                   x=np.ones(3), y=np.ones(2))
    config = TrialConfig(seed=2, trials=2, theorems=("cs",))
    report = run_suite(config, injected=(bad,))
    entry = report.theorems["cs"]
    assert entry["failures"] == 1
    assert entry["counterexamples"][0]["failed"] == ["invalid_instance"]


def test_vectors_outside_the_sip_domain_fail_every_suite_that_reads_them():
    # x, y and u share a length that is not the sip's dimension; every
    # suite but axioms reads x, so every one but axioms rejects them
    bad = Instance(sip=MultiplicationSip(2), u=np.ones(3),
                   x=np.array([1.0, 2.0, 3.0]), y=np.array([2.0, 1.0, 0.5]))
    report = run_suite(replace(SMALL, trials=2), injected=(bad,))
    for name, entry in report.theorems.items():
        failed = [ce["failed"] for ce in entry["counterexamples"]]
        assert failed == ([] if name == "axioms" else [["invalid_instance"]]), name


def test_only_broken_input_counts_as_invalid(monkeypatch):
    # a check failing with any error but the three of broken input is a
    # fault of the program: it propagates instead of being recorded
    def faulty(trial):
        raise ValueError("a fault of the program")
    monkeypatch.setitem(CHECKS, "cs", faulty)
    with pytest.raises(ValueError, match="a fault of the program"):
        run_suite(TrialConfig(trials=1, theorems=("cs",)))
    # x and y that numpy cannot add are refused at the suite's entry
    bad = Instance(sip=MultiplicationSip(3), u=np.ones(3), x=np.ones(3), y=np.ones(2))
    with pytest.raises(DimensionMismatch):
        CHECKS["means"](Trial(bad, SMALL))


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


def test_convergence_study_never_hides_nan_gaps():
    # near 1e300 the products of box_times overflow, so some oracle gaps
    # and sandwiches are NaN; run_suite counts them as oracle failures
    with np.errstate(all="ignore"):
        study = convergence_study(TrialConfig(trials=50, log_entry_hi=1e300), (4, 8))
    assert not study.sandwich_ok and not study.monotone_ok and not study.ok
    assert any(np.isnan(v) for k, v in study.rows[1].items() if k != "grid_size")


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


_FLOATS = st.one_of(
    st.floats(),  # every float: NaN, +-inf, -0.0 and subnormals included
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, -2.5e-310]),
    st.floats().map(np.float64),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, st.text())
# str keys with escapes and non-ASCII code points (st.text draws both), and
# the values json.dumps writes or refuses: other key types, which it
# converts or fails to sort, and values of types it does not know.
_KEYS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n", "\x00", "\u00e9", "\U0001f600"]),
                  st.integers(), st.floats(), st.booleans(), st.none())
_UNKNOWN = st.sampled_from([np.int64(3), np.bool_(True), {1, 2}, b"bytes", np.ones(2)])


def _json_values(scalars):
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(_FLOATS, max_size=6),
        st.dictionaries(st.text(), inner, max_size=6),
        st.dictionaries(_KEYS, inner, max_size=4),
    ), max_leaves=40)


def _outcome(write, value):
    """The text write gives value, or the class of the error it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _json_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(_json_values(_SCALARS))
def test_report_writer_is_json_dumps_byte_for_byte(value):
    assert _outcome(report_to_json, value) == _outcome(_json_dumps, value)


@settings(max_examples=100, deadline=None)
@given(_json_values(st.one_of(_SCALARS, _UNKNOWN)))
def test_report_writer_refuses_what_json_dumps_refuses(value):
    assert _outcome(report_to_json, value) == _outcome(_json_dumps, value)


def test_report_writer_examples():
    with pytest.raises(TypeError):
        report_to_json({"trials": np.int64(3)})
    with pytest.raises(TypeError):
        report_to_json({"a": 1, 2: 3})  # json cannot sort str against int
    circular = []
    circular.append(circular)
    with pytest.raises(ValueError):
        report_to_json(circular)
    assert report_to_json({"x": [float("nan"), -0.0, np.float64(0.1)], "e": []}) == (
        '{\n  "e": [],\n  "x": [\n    NaN,\n    -0.0,\n    0.1\n  ]\n}\n')


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
_X_TOO_LONG = Instance(sip=_VALID, u=np.ones(2), x=np.ones(5), y=np.ones(4))

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
    _X_TOO_LONG,
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


def test_subnormal_family_keeps_its_defect_verdicts():
    # the lambda-grid samples multiply the matrix entry first: 1e-320*2e300
    # is small, while z_a*z_b first overflows at lambda*2e300 and the
    # oracle then fails its sandwich on a pair whose closed form holds
    trial = Trial(_psd(_SUBNORMAL, [2e300, 1.0], [1.0, 1.0]), TrialConfig(trials=3, seed=5))
    with np.errstate(all="ignore"):
        cs, sharp = CHECKS["cs"](trial), CHECKS["sharp"](trial)
    assert (cs.status, cs.failed, cs.residuals["defect_sandwich"]) == ("borderline", (), 0.0)
    assert (sharp.status, sharp.failed, sharp.residuals["weighted_sandwich"]) == ("pass", (), 0.0)


def test_suites_share_instances_without_changing_them(capsys):
    # each recipe's instances are generated once and read by several
    # suites: a suite's entry must not depend on the suites run before it,
    # and the report and verify's lines follow config.theorems, even where
    # the order interleaves recipes. A u of the wrong length fails only
    # the suites that read u, and an x of the wrong length every suite
    # that reads x: a suite must not fail on a value only another reads.
    config = TrialConfig(trials=200, seed=2024)
    injected = (_asymmetric_instance(m=2), _negative_instance(), _U_TOO_LONG, _X_TOO_LONG)
    alone = {name: run_suite(replace(config, theorems=(name,)), injected=injected)
             .theorems[name] for name in THEOREMS}
    interleaved = ("oracle", "cs", "pythagoras", "means")
    for order in (THEOREMS, interleaved):
        together = run_suite(replace(config, theorems=order), injected=injected).theorems
        assert list(together) == list(order)
        for name in order:
            assert report_to_json(together[name]) == report_to_json(alone[name]), name
    assert main(["verify", "--trials", "20", "--theorems", ",".join(interleaved)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [*interleaved, "ok"]


def test_at_most_one_chunk_of_generated_instances_is_alive(monkeypatch):
    # run_suite checks the trials of one chunk of TRIAL_CHUNK instances
    # under every selected suite of its recipe and drops the chunk before
    # generating the next, and no report entry keeps an instance, so while
    # any check runs at most TRIAL_CHUNK generated instances are alive;
    # injected instances are not counted
    monkeypatch.setattr(harness, "TRIAL_CHUNK", 2)
    config = TrialConfig(trials=5, seed=3)
    # Instance is unhashable (it holds arrays), so no WeakSet
    refs = []
    seen = []

    def tracked(*args, _generate=harness.generate_instance, **kwargs):
        inst = _generate(*args, **kwargs)
        refs.append(weakref.ref(inst))
        return inst

    monkeypatch.setattr(harness, "generate_instance", tracked)
    checked = []
    for name, check in list(CHECKS.items()):
        def counted(rec, _check=check):
            seen.append(sum(ref() is not None for ref in refs))
            checked.append(len(rec.pairs))
            return _check(rec)
        monkeypatch.setitem(CHECKS, name, counted)
    injected = (_asymmetric_instance(m=2), _negative_instance())
    run_suite(config, injected=injected)
    assert sum(checked) == len(THEOREMS) * (config.trials + len(injected))
    assert max(seen) == 2


def test_study_bytes_are_pinned():
    # both log-spaced grids and the lambda-grid sampler, at three sizes
    study = convergence_study(TrialConfig(trials=50, seed=2024), grid_sizes=(64, 256, 1024))
    assert _sha256_less_wall_time(study) == PINNED_STUDY_SHA256


def test_multi_block_study_bytes_are_pinned():
    # grids of 10^5 points: each oracle evaluates them in several blocks,
    # where the 64-1,024-point grids above fit in one
    study = convergence_study(TrialConfig(trials=20, seed=7), grid_sizes=(1000, 100_000))
    assert _sha256_less_wall_time(study) == PINNED_MULTI_BLOCK_STUDY_SHA256


def test_run_suite_evaluates_each_value_once_per_trial(monkeypatch):
    # a generic trial has 10 distinct T-values (a, b, c, T(x+y,x+y),
    # T(x-y,x-y) and the five scaled pairs of the seminorm homogeneity
    # check) and one lambda-grid sampling, which its six suites share;
    # each orthogonal trial adds the 4 T-values of pythagoras and, at this
    # seed, one T-value of generation's orthogonality check; the axioms
    # suite evaluates its 11 stacked pairs in one batch per generic trial
    calls = {"eval": 0, "eval_batch": 0, "quadratic": 0}
    for cls in (PsdFamilySip, MultiplicationSip):
        for name in calls:
            def counted(self, *args, _method=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(cls, name, counted)
    run_suite(TrialConfig(trials=50, seed=3))
    assert calls == {"eval": 750, "eval_batch": 50, "quadratic": 50}


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
    for suite, expected in distinct.items():
        for i in range(20):
            inst = generate_instance(SMALL, i, PURPOSES[suite])
            del calls[:]
            assert CHECKS[suite](Trial(inst, SMALL)).status != "fail"
            assert len(calls) == expected, suite
