import hashlib
import json
import math
import tracemalloc
import weakref
from collections import Counter
from dataclasses import asdict, replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesz_sip import cauchy_schwarz, harness
from riesz_sip.cli import main
from riesz_sip.harness import (
    CHECKS,
    MAX_GRID_COUNT,
    PURPOSES,
    THEOREMS,
    ConfigError,
    Instance,
    Tolerances,
    Trial,
    TrialConfig,
    _run_check,
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
from riesz_sip.lattice import DimensionMismatch, NonFinite
from riesz_sip.sip import (
    NOT_ORTHOGONAL,
    ORTHOGONAL,
    OVERFLOW,
    MultiplicationSip,
    PsdFamilySip,
    check_axioms,
    orthogonal_stack,
    random_psd,
)

SMALL = TrialConfig(seed=42, trials=40)

# sha256 of the report of test_report_bytes_are_pinned, less wall_time_s.
# Refactors must leave it unchanged; a change that alters reports on
# purpose updates it and says so.
PINNED_REPORT_SHA256 = "37dd1f49164e41f07cf05de03ca6b49c8b1c218955632343ddd759d1a244f2ad"
# The same for the study of test_study_bytes_are_pinned.
PINNED_STUDY_SHA256 = "260cda3c71587cbfb477e3aa82ef426e774a7b2399408c67e351923eb3488144"
# The same for the study of test_multi_block_study_bytes_are_pinned.
PINNED_MULTI_BLOCK_STUDY_SHA256 = "f702418df2d378227f68c14084b4f4842d2a06c52f84c1662bf5b1eb694448c8"
# The same for the report of test_injected_overflow_and_shape_report_is_pinned.
PINNED_INJECTED_SHA256 = "e03517a0aa2e254e42028a97b4f7612386e44fc37689274c6e8321dc53c969cf"
# sha256 of the instances of test_orthogonal_generation_is_pinned.
PINNED_ORTHOGONAL_SHA256 = "0feda88ce5eba5afd0406d0cb4610073174e4a29ec3e84347858b96635120c8d"


def _asymmetric_instance(m=8, n=1):
    A = np.zeros((n, m, m))
    A[0, 0, 1] = 1.0
    return Instance(sip=PsdFamilySip(A, validate=False),
                    u=np.ones(n), x=np.ones(m), y=np.ones(m))


def _negative_instance(m=2, n=1):
    return Instance(sip=PsdFamilySip([-np.eye(m)] * n, validate=False),
                    u=np.ones(n), x=np.ones(m), y=np.ones(m))


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


@pytest.mark.parametrize("field", ["entry_hi", "u_hi", "log_entry_lo", "log_entry_hi"])
def test_non_finite_entry_ranges_are_config_errors(field):
    # an infinite or NaN bound is a config error, caught before generation
    # hands it to numpy's uniform, which refuses it with a bare OverflowError
    for value in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            run_suite(TrialConfig(trials=3, **{field: value}))
    TrialConfig(entry_hi=1e300, u_hi=1e300, log_entry_lo=1e-300, log_entry_hi=1e300)


@pytest.mark.parametrize("entry_hi", [1e308, 9e307])
def test_entry_ranges_of_infinite_width_are_config_errors(entry_hi):
    # generation draws from (-entry_hi, entry_hi), whose width 2*entry_hi
    # overflows: numpy's uniform would refuse it with a bare OverflowError
    with pytest.raises(ConfigError):
        run_suite(TrialConfig(trials=3, entry_hi=entry_hi))


def test_the_widest_entry_range_counts_every_trial():
    # 2 * 8e307 is finite, but x'A_j of an orthogonal draw and the T-values
    # overflow: every trial is counted, and none raises out of run_suite
    with np.errstate(all="ignore"):
        report = run_suite(TrialConfig(trials=3, entry_hi=8e307))
    assert all(entry["trials"] == 3 for entry in report.theorems.values())
    assert report.theorems["pythagoras"]["failures"] == 3


def test_an_overflowing_orthogonal_draw_is_retried_then_counted(monkeypatch):
    # at m = 12, n = 1 and entry_hi = 8e307 the rows x'A_j of every PSD
    # draw overflow: orthogonal_stack reports OVERFLOW, the trial draws its
    # retries, and a trial whose every attempt overflows is a counted
    # generation failure, with no exception out of run_suite
    config = TrialConfig(trials=3, entry_hi=8e307, m_lo=12, m_hi=12, n_hi=1,
                         theorems=("pythagoras",))
    statuses = []

    def recorded(*args, _stack=harness.orthogonal_stack, **kwargs):
        Y, status = _stack(*args, **kwargs)
        statuses.extend(status.tolist())
        return Y, status

    monkeypatch.setattr(harness, "orthogonal_stack", recorded)
    with np.errstate(all="ignore"):
        assert harness._recipe_chunk(config, "orthogonal", 0, 1) == [None]
        assert statuses == [OVERFLOW] * harness.ORTHOGONAL_ATTEMPTS
        del statuses[:]
        entry = run_suite(config).theorems["pythagoras"]
    # one chunk of three trials, then 99 retries of each
    assert statuses == [OVERFLOW] * (3 + 3 * (harness.ORTHOGONAL_ATTEMPTS - 1))
    assert entry["failures"] == 3 and entry["residuals"] == {"generation": 1.0}
    assert entry["counterexamples"] == []


def _trial(config: TrialConfig, i: int, purpose: str) -> Instance:
    """Trial i of a recipe, built from its chunk's draws."""
    c, j = divmod(i, harness._chunk_length(config, purpose))
    return harness._recipe_chunk(config, purpose, c, j + 1)[j]


def test_generate_is_deterministic():
    for purpose in ("generic", "positive_log", "orthogonal"):
        a = _trial(SMALL, 7, purpose).to_dict()
        b = _trial(SMALL, 7, purpose).to_dict()
        assert a == b
        c = _trial(SMALL, 8, purpose).to_dict()
        assert a != c


KEY_SEEDS = (0, 2**32 - 1, 2**40 + 9, 2**64 - 1)
KEY_INDICES = (0, 255, 256, 2**32 - 1)


def _psd_family(B: np.ndarray, n: int, m: int) -> np.ndarray:
    """A_j = B_j' B_j of the top-left (m, m) block of the first n factors, summed over k in order."""
    B = B[:n, :m, :m]
    A = B[:, 0, :, None] * B[:, 0, None, :]
    for k in range(1, m):
        A = A + B[:, k, :, None] * B[:, k, None, :]
    return A


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_trials_draw_from_default_rng_of_their_key(seed, monkeypatch):
    # the report contract: generic trial i draws from default_rng((seed,
    # i)); chunk c of the positive_log and orthogonal recipes draws its
    # blocks from default_rng((seed, RECIPE_KEYS[recipe], c)) in a stated
    # order, and trial i is row i % length of chunk i // length; the
    # retries of orthogonal trial i draw from default_rng((seed, 2, c, i))
    config = TrialConfig(seed=seed)
    assert harness.RECIPE_KEYS == {"positive_log": 1, "orthogonal": 2}
    lo, hi = np.log10(config.log_entry_lo), np.log10(config.log_entry_hi)
    for i in KEY_INDICES:
        rng = np.random.default_rng((seed, i))
        mult = rng.random() < 0.5
        n = int(rng.integers(config.n_lo, config.n_hi + 1))
        inst = generate_instance(config, i)
        assert (inst.kind == "multiplication", inst.sip.codomain_dim) == (mult, n)

        length = harness._chunk_length(config, "positive_log")
        c, j = divmod(i, length)
        rng = np.random.default_rng((seed, 1, c))
        shape = (length, config.n_hi)
        n = int(rng.integers(config.n_lo, config.n_hi + 1, length)[j])
        x = harness._SIGNS[rng.integers(0, 2, shape)] * 10.0 ** rng.uniform(lo, hi, shape)
        y = harness._SIGNS[rng.integers(0, 2, shape)] * 10.0 ** rng.uniform(lo, hi, shape)
        u = rng.uniform(0.0, config.u_hi, shape)
        inst = _trial(config, i, "positive_log")
        assert inst.sip.codomain_dim == n
        assert (inst.x.tobytes(), inst.y.tobytes(), inst.u.tobytes()) == (
            x[j, :n].tobytes(), y[j, :n].tobytes(), u[j, :n].tobytes())

        length = harness._chunk_length(config, "orthogonal")
        c, j = divmod(i, length)
        rng = np.random.default_rng((seed, 2, c))
        w, m_hi, n_hi = max(config.m_hi, config.n_hi), config.m_hi, config.n_hi
        psd = rng.random(length)[j] < 0.7
        n_psd = rng.integers(config.n_lo, min(n_hi, m_hi - 1) + 1, length)
        m_psd = rng.integers(np.maximum(config.m_lo, n_psd + 1), m_hi + 1)
        B = rng.uniform(-1.0, 1.0, (length, min(n_hi, m_hi - 1), m_hi, m_hi))[j]
        n_mult = rng.integers(max(config.n_lo, 2), n_hi + 1, length)
        size = rng.integers(1, n_mult)[j]
        keys = rng.random((length, w))[j]
        x = rng.uniform(-config.entry_hi, config.entry_hi, (length, w))[j]
        g = rng.standard_normal((length, w))[j]
        scale = rng.uniform(0.5, config.entry_hi, length)[j]
        u = rng.uniform(0.0, config.u_hi, (length, n_hi))[j]
        if psd:
            n, m = int(n_psd[j]), int(m_psd[j])
            A, x = _psd_family(B, n, m), x[:m]
        else:
            n = m = int(n_mult[j])
            A, x = None, x[:m].copy()
            x[np.argsort(keys[:m])[:size]] = 0.0
        Y, status = orthogonal_stack(None if A is None else A[None], x[None], g[None, :m])
        assert status[0] == ORTHOGONAL
        inst = _trial(config, i, "orthogonal")
        assert inst.kind == ("psd_family" if psd else "multiplication")
        if psd:
            assert inst.sip.matrices.tobytes() == A.tobytes()
        assert (inst.sip.codomain_dim, inst.sip.domain_dim) == (n, m)
        assert (inst.x.tobytes(), inst.y.tobytes(), inst.u.tobytes()) == (
            x.tobytes(), (Y[0] * scale).tobytes(), u[:n].tobytes())

    # a pair that fails draws its retries, each a chunk of one trial, one
    # after another from the trial's retry key: every pair of the chunk
    # fails here, and then every trial's first retry
    def failing_twice(*args, _stack=orthogonal_stack, **kwargs):
        Y, status = _stack(*args, **kwargs)
        (chunk if sum(chunk) < rows else retries).append(len(status))
        fails = not retries or len(retries) % 2 == 1
        return Y, np.full_like(status, NOT_ORTHOGONAL) if fails else status

    length = harness._chunk_length(config, "orthogonal")
    for i in KEY_INDICES:
        rows, chunk, retries = i % length + 1, [], []
        with monkeypatch.context() as patch:
            patch.setattr(harness, "orthogonal_stack", failing_twice)
            inst = _trial(config, i, "orthogonal")
        assert sum(chunk) == rows and retries == [1, 1] * rows
        retry = np.random.default_rng((seed, 2, i // length, i))
        harness._orthogonal_chunk(retry, config, 1, 1)
        expected, = harness._orthogonal_chunk(retry, config, 1, 1)
        assert inst.to_dict() == expected.to_dict()


@pytest.mark.parametrize("purpose", ["generic", "positive_log", "orthogonal"])
def test_a_trials_instance_does_not_depend_on_the_trial_count(purpose):
    # a trial's instance depends on the seed, the recipe, its index and
    # the chunk length: the same bytes however many trials a run holds,
    # within its chunk, at its end or past it, and alone
    config = TrialConfig(seed=5)
    assert harness._chunk_length(config, purpose) == 256
    for i in (0, 17, 49):
        alone = _trial(config, i, purpose).to_dict()
        for trials in (i + 1, 50, 255, 256, 257, 600):
            chunks = harness._chunks(replace(config, trials=trials), purpose)
            insts = list(chain.from_iterable(chunks))
            assert len(insts) == trials
            assert insts[i].to_dict() == alone, (i, trials)


def test_orthogonal_chunks_hold_a_bounded_block():
    # 256 trials of (n, m) = (63, 64) factors would take 528 MB: the chunk
    # length falls with n_hi * m_hi^2, and generation at that shape stays
    # under 16 MB
    config = TrialConfig(trials=3, m_lo=64, m_hi=64, n_lo=63, n_hi=63, theorems=("pythagoras",))
    assert harness._chunk_length(config, "orthogonal") == 1
    assert harness._chunk_length(replace(config, m_lo=12, m_hi=12, n_lo=8, n_hi=8),
                                "orthogonal") == 113
    tracemalloc.start()
    try:
        kinds = [inst and inst.kind
                 for inst in chain.from_iterable(harness._chunks(config, "orthogonal"))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kinds) == 3 and None not in kinds
    assert peak < 16 * 2**20, peak


def test_run_suite_checks_each_chunk_as_it_is_drawn(monkeypatch):
    # every recipe's trials reach the checks in the lists its one chunk
    # builder draws: 256 trials for generic and positive_log, and at m_hi =
    # 12, n_hi = 8 orthogonal chunks of 113, never re-cut to 256
    config = TrialConfig(seed=4, trials=300, m_hi=12, n_hi=8)
    assert harness._chunk_length(config, "orthogonal") == 113
    lengths = {}

    def recorded(chunk, suites, *args, _check=harness._check_chunk):
        lengths.setdefault(PURPOSES[suites[0].name], []).append(len(chunk))
        return _check(chunk, suites, *args)

    monkeypatch.setattr(harness, "_check_chunk", recorded)
    run_suite(config)
    assert lengths == {"generic": [256, 44], "positive_log": [256, 44],
                       "orthogonal": [113, 113, 74]}


def test_generate_generic_shapes():
    kinds = set()
    for i in range(200):
        inst = generate_instance(SMALL, i)
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
    for inst in chain.from_iterable(harness._chunks(replace(SMALL, trials=100), "positive_log")):
        assert inst.kind == "multiplication"
        mags = np.abs(np.concatenate([inst.x, inst.y]))
        assert np.min(mags) >= SMALL.log_entry_lo
        assert np.max(mags) <= SMALL.log_entry_hi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), trial=st.integers(0, 10**6), n=st.integers(1, 64))
def test_positive_log_signs_draw_what_rng_choice_draws(seed, trial, n):
    # generation indexes harness._SIGNS with rng.integers(0, 2, n) in place
    # of rng.choice([-1.0, 1.0], n): the same signs, and the same stream after
    indexed, chosen = (np.random.default_rng((seed, trial)) for _ in range(2))
    assert harness._SIGNS[indexed.integers(0, 2, n)].tobytes() == chosen.choice(
        [-1.0, 1.0], n).tobytes()
    assert indexed.random() == chosen.random()


def test_generate_orthogonal_pairs():
    for inst in chain.from_iterable(harness._chunks(replace(SMALL, trials=100), "orthogonal")):
        b = Gram(inst.sip, inst.x, inst.y).b
        scale = max(1.0, float(np.max(np.abs(inst.x))))
        assert float(np.max(np.abs(b))) <= 1e-8 * scale
        if inst.kind == "psd_family":
            assert inst.sip.domain_dim > inst.sip.codomain_dim
        else:
            assert np.min(np.abs(inst.x)) == 0.0  # zeroed support


def test_orthogonal_generation_is_pinned():
    # Shapes beyond the defaults (m <= 6, n <= 4) give null spaces of
    # dimension 2 and more, whose pivot columns sum several free ones, and
    # orthogonal chunks of 113 trials.
    config = TrialConfig(seed=2024, trials=2000, m_lo=1, m_hi=12, n_lo=1, n_hi=8)
    instances = [inst and inst.to_dict()
                 for inst in chain.from_iterable(harness._chunks(config, "orthogonal"))]
    text = json.dumps(instances, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_ORTHOGONAL_SHA256


def test_instance_round_trip():
    inst = generate_instance(SMALL, 3)
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
    # PsdFamilySip(validate=False) does not scan for finiteness; loading does
    for entry in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFinite, match="matrix entries must be finite"):
            Instance.from_dict({"kind": "psd_family", "m": 1, "n": 1,
                                "matrices": [[[entry]]], **vectors})


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


@st.composite
def _shared_values(draw):
    """A value that holds one list or dict object at several places and depths.

    The shared object may hold NaN, -0.0 and keys that json converts or
    cannot sort, and sits at least at two depths.
    """
    shared = draw(st.one_of(
        st.lists(_FLOATS, min_size=1, max_size=6),
        st.lists(_json_values(_SCALARS), min_size=1, max_size=4),
        st.dictionaries(st.text(), _json_values(_SCALARS), min_size=1, max_size=4),
        st.dictionaries(_KEYS, _json_values(_SCALARS), min_size=1, max_size=3)))
    holders = _json_values(st.one_of(_SCALARS, st.just(shared)))
    return draw(st.lists(holders, max_size=3)) + [shared, {"at": [shared]}]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_json_values(_SCALARS), _shared_values()))
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


def test_report_writer_writes_a_shared_subtree_as_json_dumps_does():
    row = [float("nan"), -0.0, 1.5]
    shared = {"m": [row, row], "x": row, "deep": {"k": [[row]]}}
    value = {"a": shared, "b": [shared, {"c": [shared]}], "d": row, "e": [[[row]]]}
    assert report_to_json(value) == _json_dumps(value)
    # keys json converts, inside a shared dict
    keys = {1: float("nan"), 2.5: -0.0}
    assert report_to_json({"x": keys, "y": [keys]}) == _json_dumps({"x": keys, "y": [keys]})
    with pytest.raises(TypeError):
        report_to_json({"x": {1: 0.0, "a": -0.0}, "y": [{1: 0.0, "a": -0.0}]})
    # a circular structure is refused as json.dumps refuses it, whether it
    # is reached once or from several places
    cycle = {"a": [1.0]}
    cycle["self"] = [cycle]
    for data in (cycle, {"x": cycle, "y": [cycle]}, [row, [row, cycle]]):
        assert _outcome(report_to_json, data) == _outcome(_json_dumps, data) == ValueError


class _CountingDict(dict):
    """A dict that counts the reads of its values, as the writer reads each once per encoding."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_report_writer_keeps_text_only_for_a_repeated_dict():
    once, twice = {"x": [1.0, 2.0]}, _CountingDict(y=-0.0, z=[float("nan")])
    out, spans = [], {}
    data = {"a": once, "b": [twice, {"c": twice}], "d": twice}
    harness._encode(data, "", out, spans)
    assert "".join(out) + "\n" == _json_dumps(data)
    # spans keeps each dict's indent and its range of out, and no text:
    # a dict met once keeps no text, and one met three times is encoded once
    assert set(spans) == {id(data), id(once), id(twice), id(data["b"][1])}
    for indent, start, end in spans.values():
        assert indent.strip(" ") == "" and 0 <= start < end <= len(out)
    assert twice.reads == 2
    assert spans[id(twice)][0] == " " * 4


def test_report_writer_repeats_a_dict_at_any_indent():
    row = [1.5, float("nan"), -0.0]
    inner = {"v": row, "w": "t\n\u00e9"}
    outer = {"i": inner, "j": [inner, {"k": inner}]}
    cases = [
        # one dict at two indents, first at the deeper one and then at the shallower
        {"a": [[inner]], "b": inner},
        # and first at the shallower one
        {"a": inner, "b": [[inner]]},
        # a repeated dict inside another repeated dict, at several indents
        {"a": outer, "b": [outer, {"c": outer}], "d": inner, "e": [[outer]]},
        # a first occurrence inside a list of dicts, then inside one of its dicts
        {"a": [{"x": 1}, inner, {"k": inner}], "b": inner, "c": [{"y": [inner]}]},
    ]
    for data in cases:
        assert report_to_json(data) == _json_dumps(data)


def test_report_writer_on_a_triage_report():
    # the witnesses at m = 12, n = 8 are named in several suites each, at
    # two indents (counterexamples and worst_instance)
    injected = (_asymmetric_instance(12, 8), _negative_instance(12, 8))
    report = run_suite(TrialConfig(seed=4, trials=5), injected).to_dict()
    named = {id(ce["instance"]) for e in report["theorems"].values()
             for ce in e["counterexamples"]}
    worst = {id(e["worst_instance"]["instance"]) for e in report["theorems"].values()}
    assert len(named) == 2 and named <= worst
    assert report_to_json(report) == _json_dumps(report)


def test_report_holds_each_instance_once():
    # every injected instance fails at least three suites (axioms, means,
    # pythagoras), and some suites also name it as their worst instance
    config = TrialConfig(seed=3, trials=5)
    injected = (_asymmetric_instance(), _negative_instance(), _asymmetric_instance(3))
    report = run_suite(config, injected).to_dict()
    report["wall_time_s"] = 0.0
    named = [ce["instance"] for e in report["theorems"].values() for ce in e["counterexamples"]]
    named += [e["worst_instance"]["instance"] for e in report["theorems"].values()]
    objects, times = {}, Counter()
    for d in named:
        key = json.dumps(d, sort_keys=True)
        objects.setdefault(key, set()).add(id(d))
        times[key] += 1
    assert all(len(ids) == 1 for ids in objects.values())
    assert all(times[json.dumps(inst.to_dict(), sort_keys=True)] >= 3 for inst in injected)
    text = report_to_json(report)
    assert text == _json_dumps(report)
    # a dict that to_dict gives is its caller's: editing it reaches no report
    for inst in injected:
        mine = inst.to_dict()
        mine["x"][0], mine["m"] = 99.0, 0
        mine.pop("matrices")
    again = run_suite(config, injected).to_dict()
    again["wall_time_s"] = 0.0
    assert report_to_json(again) == text


def test_emit_report(tmp_path):
    report = run_suite(TrialConfig(seed=5, trials=5, theorems=("means",)))
    out = tmp_path / "report.json"
    emit_report(report, out)
    assert out.read_bytes() == report_to_json(report.to_dict()).encode("utf-8")
    # the text is encoded before the file is opened: a value that cannot
    # be encoded leaves the file as it was
    with pytest.raises(TypeError):
        harness.write_json({"trials": np.int64(3)}, out)
    assert out.read_bytes() == report_to_json(report.to_dict()).encode("utf-8")
    with pytest.raises(ConfigError, match="cannot write"):
        emit_report(report, tmp_path / "missing" / "report.json")


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
        cs, sharp = CHECKS["cs"](trial).row(0), CHECKS["sharp"](trial).row(0)
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
    # injected instances are not counted. A check counts the trials it
    # gives a result: those of its table, or the lone trial whose check
    # raises (invalid_instance). The two injected witnesses share n = 1,
    # and where their group's check raises each is checked again alone
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
            try:
                table = _check(rec)
            except harness._BROKEN_INPUT:
                if len(rec.pairs) == 1:
                    checked.append(1)
                raise
            checked.append(len(rec.pairs))
            return table
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


def _count_rows(monkeypatch) -> tuple:
    """(rows, calls, sips): the T-values cauchy_schwarz.eval_stack evaluates per sip, by id.

    Each evaluation is j argument pairs at each of its sips, so it adds j
    rows to every sip; sips keeps the sips alive, so that no id is reused.
    """
    rows, calls, sips = Counter(), [], []

    def counted(stack, L, R, _eval_stack=cauchy_schwarz.eval_stack):
        calls.append(1)
        sips.extend(stack)
        for T in stack:
            rows[id(T)] += len(L)
        return _eval_stack(stack, L, R)

    monkeypatch.setattr(cauchy_schwarz, "eval_stack", counted)
    return rows, calls, sips


def test_run_suite_evaluates_each_value_once_per_trial(monkeypatch):
    # a generic trial has 10 distinct T-values, evaluated on its group's
    # stacks: a, b and c in one evaluation, T(x+y,x+y) in a second, the
    # five scaled pairs of the seminorm homogeneity check in a third and
    # T(x-y,x-y), which parallelogram alone reads, in a fourth, and one
    # lambda-grid sampling, which its six suites share; each orthogonal
    # trial has the 4 T-values pythagoras reads (all but T(x-y,x-y)), and
    # generation checks its pairs inside orthogonal_stack, with no eval;
    # positive_log trials evaluate none; the axioms suite evaluates the
    # columns of its 11 stacked pairs once per PSD family, in its chunk's
    # one stacked pass (a family stacked with the others of its m, or
    # alone on eval_batch), and once per distinct multiplication sip,
    # whose residuals depend on n alone: the 50 trials are one chunk
    from riesz_sip import sip

    config = TrialConfig(trials=50, seed=3)
    insts = [generate_instance(config, i) for i in range(config.trials)]
    psd = [inst.sip for inst in insts if inst.kind == "psd_family"]
    mult = {inst.sip.codomain_dim for inst in insts if inst.kind == "multiplication"}
    assert (len(psd), len(mult)) == (20, 4)
    calls = {"eval": 0, "lambda_minima": 0}
    # the axiom columns evaluated per family, keyed by its matrices' bytes
    # (a multiplication sip by its n)
    columns = Counter()

    def key(T):
        return T.matrices.tobytes() if isinstance(T, PsdFamilySip) else T.dim

    for cls in (PsdFamilySip, MultiplicationSip):
        def counted(self, *args, _method=cls.eval):
            calls["eval"] += 1
            return _method(self, *args)

        def batch(self, *args, _method=cls.eval_batch):
            columns[key(self)] += self.codomain_dim
            return _method(self, *args)
        monkeypatch.setattr(cls, "eval", counted)
        monkeypatch.setattr(cls, "eval_batch", batch)

    def stacked(families, L, R, _function=sip._eval_stacked):
        for T in families:
            columns[key(T)] += T.codomain_dim
        return _function(families, L, R)

    monkeypatch.setattr(sip, "_eval_stacked", stacked)
    # one lambda_minima call per generic chunk, which samples the rows of
    # each of its trials, one per codomain coordinate, once
    sampled_rows = Counter()

    def sampled(pairs, grid, weights=None, _function=harness.lambda_minima):
        calls["lambda_minima"] += 1
        for g in pairs:
            sampled_rows[id(g)] += g.T.codomain_dim
        return _function(pairs, grid, weights)

    monkeypatch.setattr(harness, "lambda_minima", sampled)
    rows, _, _ = _count_rows(monkeypatch)
    run_suite(config)
    assert calls == {"eval": 0, "lambda_minima": 1}
    assert columns == Counter({**{key(T): T.codomain_dim for T in psd}, **{n: n for n in mult}})
    assert sorted(sampled_rows.values()) == sorted(inst.sip.codomain_dim for inst in insts)
    # one count per trial: 50 generic trials of 10 rows, 50 orthogonal of 4
    assert Counter(rows.values()) == {10: 50, 4: 50}


def _broken_chunk() -> tuple:
    """(chunk, broken): 12 valid generic instances and three broken ones among them, by position.

    A shape-broken x (three entries for a sip on R^2), a negative weight
    on a valid pair, and a pair whose T-values overflow.
    """
    valid = list(chain.from_iterable(harness._chunks(TrialConfig(trials=12, seed=5), "generic")))
    v = valid[0]
    shape = Instance(MultiplicationSip(2), u=np.ones(2), x=np.ones(3), y=np.ones(2))
    negative = Instance(v.sip, u=-np.ones(v.u.size), x=v.x, y=v.y)
    big = np.array([1e200, 1.0])
    overflow = Instance(MultiplicationSip(2), u=np.ones(2), x=big, y=big.copy())
    chunk = valid[:4] + [shape] + valid[4:8] + [negative] + valid[8:] + [overflow]
    return chunk, {"shape": 4, "negative": 9, "overflow": 14}


def _counted_minima(monkeypatch) -> list:
    """The number of pairs of each harness.lambda_minima call, in call order."""
    calls = []

    def counted(pairs, grid, weights=None, _function=harness.lambda_minima):
        calls.append(len(pairs))
        return _function(pairs, grid, weights)

    monkeypatch.setattr(harness, "lambda_minima", counted)
    return calls


def _minima_bytes(minima: tuple) -> tuple:
    return tuple(None if v is None else v.tobytes() for v in minima)


def test_a_chunk_takes_its_minima_from_one_pass_on_first_read(monkeypatch):
    # the first read of a valid trial's minima makes one lambda_minima call
    # over every trial whose x and y validate, each under its validated
    # weight or None, and every covered trial has the bits of its own
    # lone pass; the shape-broken trial is left to its own call, which
    # raises as it does alone
    config = TrialConfig(trials=1)
    chunk, broken = _broken_chunk()
    trials = [Trial(inst, config) for inst in chunk]
    harness._share_minima(trials)
    calls = _counted_minima(monkeypatch)
    assert calls == []
    with np.errstate(all="ignore"):
        trials[0].minima
        assert calls == [len(chunk) - 1]
        for i, (t, inst) in enumerate(zip(trials, chunk)):
            if i == broken["shape"]:
                assert "minima" not in vars(t)
                with pytest.raises(DimensionMismatch):
                    t.minima
                continue
            alone = Trial(inst, config).minima
            assert _minima_bytes(vars(t)["minima"]) == _minima_bytes(alone), i
            assert (t.minima[1] is None) == (i == broken["negative"]), i
    # one lone call each: the broken trial's, which raised, and the references
    assert calls == [len(chunk) - 1, 1] + [1] * (len(chunk) - 1)


# The suites in which each broken trial of _broken_chunk is invalid_instance.
_INVALID_IN = {
    "shape": set(THEOREMS) - {"axioms"},
    "negative": {"means", "vsn", "sharp", "additivity", "pythagoras", "parallelogram"},
    "overflow": set(THEOREMS) - {"axioms", "oracle"},
}


def test_broken_trials_of_a_chunk_stay_invalid_in_their_suites(monkeypatch):
    class Kept:
        def __init__(self, name):
            self.name, self.failed = name, {}

        def fold(self, insts, parts, dicts):
            for pos, table in parts:
                for k, p in enumerate(pos):
                    self.failed[p] = table.row(k).failed

    chunk, broken = _broken_chunk()
    calls = _counted_minima(monkeypatch)
    suites = [Kept(name) for name in THEOREMS]
    config = TrialConfig(trials=1)
    with np.errstate(all="ignore"):
        harness._check_chunk(chunk, suites, config)
    assert calls == [len(chunk) - 1]
    for what, p in broken.items():
        invalid = {s.name for s in suites if s.failed[p] == ("invalid_instance",)}
        assert invalid == _INVALID_IN[what], what
    # and every trial fails the checks it fails alone (the means suite
    # reads u as a vector of x's lattice, so a valid generic trial with
    # m != n is invalid there too: ROADMAP item 12)
    with np.errstate(all="ignore"):
        for p, inst in enumerate(chunk):
            for s in suites:
                assert s.failed[p] == _run_check(s.name, Trial(inst, config)).failed, (s.name, p)


def test_suites_that_read_no_defect_make_no_lambda_call(monkeypatch):
    chunk, _ = _broken_chunk()
    calls = _counted_minima(monkeypatch)
    with np.errstate(all="ignore"):
        run_suite(TrialConfig(trials=50, theorems=("axioms", "means", "oracle")),
                  injected=tuple(chunk))
    assert calls == []


def test_each_gram_value_is_evaluated_once(monkeypatch):
    rows, calls, _ = _count_rows(monkeypatch)
    # (evaluations, T-values) per trial: a, b and c in one evaluation,
    # the T(x+y,x+y) and T(x-y,x-y) a suite reads in another, and the five
    # scaled pairs of the seminorm homogeneity check in a third; a suite
    # evaluates those it reads, and b along with a and c
    distinct = {"cs": (1, 3), "sharp": (2, 4), "additivity": (2, 4), "pythagoras": (2, 4),
                "parallelogram": (2, 5), "vsn": (3, 9)}
    for suite, expected in distinct.items():
        for inst in harness._recipe_chunk(SMALL, PURPOSES[suite], 0, 20):
            rows.clear()
            del calls[:]
            assert CHECKS[suite](Trial(inst, SMALL)).row(0).status != "fail"
            assert (len(calls), rows[id(inst.sip)]) == expected, suite
            assert list(rows) == [id(inst.sip)]
