"""check_axioms: one stacked evaluation per family, against eleven separate calls; and
check_axioms_stack, many families at once, against each family alone."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_sip import sip
from riesz_sip.harness import AXIOM_SAMPLES, TrialConfig, generate_instance
from riesz_sip.lattice import DEFAULT_ABS_TOL
from riesz_sip.means import GRID_BLOCK
from riesz_sip.sip import (
    AXIOM_OPERANDS_CACHED,
    MultiplicationSip,
    PsdFamilySip,
    _axiom_operands,
    check_axioms,
    check_axioms_stack,
    random_psd,
)


def _worst(diff: np.ndarray, scale: np.ndarray, floor: float) -> float:
    """A residual's worst: the largest |diff| / (scale + floor)."""
    return float((np.abs(diff) / (scale + floor)).max())


def check_axioms_per_pair(T, samples, seed=0, floor=DEFAULT_ABS_TOL):
    """check_axioms as eleven separate eval_batch calls on (samples, m) operands."""
    rng = np.random.default_rng(seed)
    m = T.domain_dim
    X = rng.uniform(-10.0, 10.0, (samples, m))
    Y = rng.uniform(-10.0, 10.0, (samples, m))
    Z = rng.uniform(-10.0, 10.0, (samples, m))
    lam = rng.uniform(-4.0, 4.0, (samples, 1))

    Txy = T.eval_batch(X, Y)
    Tyx = T.eval_batch(Y, X)
    Txz = T.eval_batch(X, Z)
    Tyz = T.eval_batch(Y, Z)
    Txx = T.eval_batch(X, X)
    scale_pair = np.abs(Txy) + np.abs(Txz) + np.abs(Tyz)

    return {
        "additivity_left": _worst(
            T.eval_batch(X + Y, Z) - (Txz + Tyz), scale_pair, floor),
        "additivity_right": _worst(
            T.eval_batch(Z, X + Y) - (T.eval_batch(Z, X) + T.eval_batch(Z, Y)),
            scale_pair, floor),
        "homogeneity_left": _worst(
            T.eval_batch(lam * X, Y) - lam * Txy, np.abs(lam * Txy), floor),
        "homogeneity_right": _worst(
            T.eval_batch(X, lam * Y) - lam * Txy, np.abs(lam * Txy), floor),
        "symmetry": _worst(Txy - Tyx, np.abs(Txy), floor),
        "positivity": _worst(np.maximum(-Txx, 0.0), np.abs(Txx), floor),
    }


def bits(residuals: dict) -> dict:
    return {k: v.hex() for k, v in residuals.items()}


def families(rng, m, n):
    """A valid PSD family, an asymmetric one, a negative-definite one and the multiplication sip on R^m."""
    asym = random_psd(rng, m, n).matrices.copy()
    asym[:, 0, -1] += 0.5
    yield random_psd(rng, m, n)
    yield PsdFamilySip(asym, validate=False)
    yield PsdFamilySip(-random_psd(rng, m, n).matrices - np.eye(m), validate=False)
    yield MultiplicationSip(m)


# The stacked call takes the contraction path einsum picks for one pair's
# samples rows, so at these shapes each residual keeps the bits of eleven
# separate calls.
# At samples = 1 a two-step path's first product is a matrix-vector one
# for one pair and a matrix-matrix one for the stack, and the last bits
# can move; that size checks the multiplication sip alone, whose product
# is elementwise.
@pytest.mark.parametrize("samples", [1, 13, AXIOM_SAMPLES, 200])
def test_stacked_pairs_keep_the_per_pair_bits(samples):
    rng = np.random.default_rng(samples)
    for m in range(1, 13):
        for n in range(1, 9):
            for T in families(rng, m, n):
                if isinstance(T, PsdFamilySip) and samples == 1:
                    continue
                for seed, floor in ((0, DEFAULT_ABS_TOL), (5, 1e-7)):
                    got = check_axioms(T, samples, seed=seed, floor=floor)
                    ref = check_axioms_per_pair(T, samples, seed=seed, floor=floor)
                    assert bits(got) == bits(ref), (m, n, type(T).__name__, seed)


# Shapes up to the largest the harness accepts (m, n <= 64), at its 64
# samples. For the last four, einsum's search picks another path for the
# 11 * 64 stacked rows than for 64 rows, so their bits stay only because
# the stacked call takes the path of one pair. Over every m, n <= 64 the
# bits stayed but at the twelve shapes of the next test.
@pytest.mark.parametrize("m, n", [(63, 8), (8, 63), (64, 1), (1, 64),
                                  (64, 2), (9, 64), (63, 64), (64, 64)])
def test_stacked_pairs_keep_the_per_pair_bits_at_the_largest_shapes(m, n):
    rng = np.random.default_rng(m * 100 + n)
    for T in families(rng, m, n):
        got = check_axioms(T, AXIOM_SAMPLES)
        ref = check_axioms_per_pair(T, AXIOM_SAMPLES)
        assert bits(got) == bits(ref), type(T).__name__


# A known, accepted bit move. At n = 1 and 64 samples the PSD form's path
# has a BLAS matrix product whose other dimension is the row count, and
# OpenBLAS (0.3.31, as measured) rounds some of its products differently
# at 11 * 64 rows than at 64: at m in 41..44, 49..52 and 57..60 the stacked
# residuals move in their last bits, by at most 7e-13 in the shapes
# measured. These are the bits of both at (41, 1); a kernel whose bits do
# not depend on the row count (ROADMAP item 5) makes them equal.
STACKED_AT_41_1 = {"additivity_left": "0x1.cc4c6d8228cddp-51",
                   "homogeneity_left": "0x1.54b7e28e1f24bp-48",
                   "homogeneity_right": "0x1.9bb3871665a1bp-48",
                   "symmetry": "0x1.ccef120080b07p-48"}
PER_PAIR_AT_41_1 = {"additivity_left": "0x1.cc4c6d8228cdcp-51",
                    "homogeneity_left": "0x1.a9e5db31a6ed0p-49",
                    "homogeneity_right": "0x1.a9e5db31a6ed0p-48",
                    "symmetry": "0x1.b6a3b2ebe57c1p-48"}


def test_stacked_bits_move_where_blas_rounds_by_row_count():
    T = random_psd(np.random.default_rng(41), 41, 1)
    got = bits(check_axioms(T, AXIOM_SAMPLES))
    ref = bits(check_axioms_per_pair(T, AXIOM_SAMPLES))
    moved = {k for k in got if got[k] != ref[k]}
    assert {k: got[k] for k in moved} == STACKED_AT_41_1
    assert {k: ref[k] for k in moved} == PER_PAIR_AT_41_1


def test_cached_operands_are_read_only():
    L, R, lam = _axiom_operands(64, AXIOM_SAMPLES, 0)
    assert L.shape == R.shape == (11, AXIOM_SAMPLES, 64)
    for a in (L, R, lam):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        with pytest.raises(ValueError):
            a += 1.0
    assert _axiom_operands(64, AXIOM_SAMPLES, 0)[0] is L
    assert _axiom_operands.cache_info().maxsize == AXIOM_OPERANDS_CACHED


def entry_bytes(m: int) -> int:
    return sum(a.nbytes for a in _axiom_operands.__wrapped__(m, AXIOM_SAMPLES, 0))


def test_cached_operands_stay_small():
    # every m = 1..12 of a triage stays cached, in under 1 MiB
    assert AXIOM_OPERANDS_CACHED >= 12
    assert sum(entry_bytes(m) for m in range(1, 13)) < 2**20
    # a full cache of the largest domains the harness accepts, m = 49..64
    largest = range(65 - AXIOM_OPERANDS_CACHED, 65)
    assert sum(entry_bytes(m) for m in largest) < 10 * 2**20


# Generic trials whose axioms residuals exceed the 1e-9 tolerance on a
# correct program: each divides a difference by |T(x, y)| or |lambda
# T(x, y)| where x'A_j y nearly cancels (ROADMAP item 1). These are the
# bits of every residual above 1e-9; rescaling the residuals by the terms'
# magnitudes is meant to clear them, and this test with them.
FALSE_AXIOM_FAILURES = {
    (2, 5156): {"homogeneity_left": "0x1.18ed2c55543a3p-29",
                "homogeneity_right": "0x1.73993f60aafdcp-29",
                "symmetry": "0x1.20bb426f7ecb7p-28"},
    (7, 4948): {"homogeneity_left": "0x1.2d97c449984b5p-28",
                "symmetry": "0x1.108a0fa8935b0p-29"},
    (14, 7170): {"homogeneity_left": "0x1.abf643e7f963bp-26",
                 "homogeneity_right": "0x1.abf643e7f963bp-26"},
    (17, 1774): {"homogeneity_left": "0x1.cd6b96b2393a4p-30",
                 "symmetry": "0x1.e8360ad3a5677p-30"},
    (1882, 27): {"homogeneity_right": "0x1.502f8186f12b5p-30"},
    (1892, 46): {"symmetry": "0x1.261ba352b7d3ap-30"},
}


def test_recorded_false_axiom_failures_keep_their_bits():
    for (seed, trial), expected in FALSE_AXIOM_FAILURES.items():
        config = TrialConfig(seed=seed)
        T = generate_instance(config, trial).sip
        residuals = check_axioms(T, samples=AXIOM_SAMPLES, seed=0,
                                 floor=config.tolerances.abs)
        failing = {k: v for k, v in residuals.items() if v > 1e-9}
        assert bits(failing) == expected, (seed, trial)


# The columns of one stacked contraction at AXIOM_SAMPLES rows.
BLOCK_COLUMNS = GRID_BLOCK // (11 * AXIOM_SAMPLES)


def check_axioms_alone(T, samples, floor=DEFAULT_ABS_TOL):
    """check_axioms as one eval_batch call on T's 11 stacked pairs, with no other family."""
    L, R, lam = _axiom_operands(T.domain_dim, samples, 0)
    Txy, Tyx, Txz, Tyz, Txx, Tx_yz, Tzx_y, Tzx, Tzy, Tlxy, Txly = T.eval_batch(L, R)
    scale_pair = np.abs(Txy) + np.abs(Txz) + np.abs(Tyz)
    return {
        "additivity_left": _worst(Tx_yz - (Txz + Tyz), scale_pair, floor),
        "additivity_right": _worst(Tzx_y - (Tzx + Tzy), scale_pair, floor),
        "homogeneity_left": _worst(Tlxy - lam * Txy, np.abs(lam * Txy), floor),
        "homogeneity_right": _worst(Txly - lam * Txy, np.abs(lam * Txy), floor),
        "symmetry": _worst(Txy - Tyx, np.abs(Txy), floor),
        "positivity": _worst(np.maximum(-Txx, 0.0), np.abs(Txx), floor),
    }


@st.composite
def stacked_sips(draw):
    """1-40 sips of m = 1..12 and n = 1..8, drawn from one to three values of m so that a stack crosses blocks.

    PSD families are valid, scaled by 1e30 or 1e-30, asymmetric, negated,
    or with a NaN entry in one member; a fifth of the sips are
    multiplication sips.
    """
    ms = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sips = []
    for _ in range(draw(st.integers(1, 40))):
        m, n = draw(st.sampled_from(ms)), draw(st.integers(1, 8))
        kind = draw(st.sampled_from(["multiplication", "valid", "large", "small",
                                     "asymmetric", "negated", "nan"]))
        if kind == "multiplication":
            sips.append(MultiplicationSip(m))
            continue
        A = random_psd(rng, m, n).matrices.copy()
        j, a, b = rng.integers(n), rng.integers(m), rng.integers(m)
        if kind == "large":
            A *= 1e30
        elif kind == "small":
            A *= 1e-30
        elif kind == "asymmetric":
            A[j, a, b] += 0.5
        elif kind == "negated":
            A[j] = -A[j]
        elif kind == "nan":
            A[j, a, b] = np.nan
        sips.append(PsdFamilySip(A, validate=False))
    return sips


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(stacked_sips(), st.sampled_from([DEFAULT_ABS_TOL, 1e-7]))
def test_a_stack_of_families_keeps_each_familys_bits(sips, floor):
    # a batch of N sips gives each the six residuals of its batch of 1,
    # bit for bit, NaN included, however its m's stack is cut into blocks:
    # those of check_axioms and of its family's own eval_batch call
    with np.errstate(all="ignore"):
        stacked = check_axioms_stack(sips, AXIOM_SAMPLES, floor=floor)
        for T, got in zip(sips, stacked):
            assert bits(got) == bits(check_axioms(T, AXIOM_SAMPLES, floor=floor))
            assert bits(got) == bits(check_axioms_alone(T, AXIOM_SAMPLES, floor=floor))


def test_a_stack_crosses_blocks_with_each_familys_bits(monkeypatch):
    # 40 families of one m and n = 1..8 are 180 columns: the one-step
    # families take more than one contraction, none of more than
    # BLOCK_COLUMNS columns, and the others (n = 1) none
    blocks = []

    def stacked(families, L, R, _function=sip._eval_stacked):
        blocks.append([T.codomain_dim for T in families])
        return _function(families, L, R)

    monkeypatch.setattr(sip, "_eval_stacked", stacked)
    rng = np.random.default_rng(40)
    sips = [random_psd(rng, 4, 1 + i % 8) for i in range(40)]
    got = check_axioms_stack(sips, AXIOM_SAMPLES)
    assert len(blocks) > 1 and max(map(sum, blocks)) <= BLOCK_COLUMNS
    assert sorted(n for block in blocks for n in block) == sorted(
        T.codomain_dim for T in sips if T.codomain_dim > 1)
    for T, residuals in zip(sips, got):
        assert bits(residuals) == bits(check_axioms(T, AXIOM_SAMPLES))
        assert bits(residuals) == bits(check_axioms_alone(T, AXIOM_SAMPLES))
