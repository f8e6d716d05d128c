"""The grid oracles hold one block of grid columns at a time, whatever the grid's size.

At G = 10^6 grid points and n = 8 coordinates, an oracle that built its
whole (n, G) array would hold 61 MiB per array (122 MiB for a mean
oracle, 244 MiB for the lambda-grid defect with its 2G columns). Blocks
of means.GRID_BLOCK elements keep the peak of traced allocations far
below the bound here. So does the cs and sharp check of one trial, whose
one lambda-grid pass gives both of its minima, and the study's one
lambda_minima call over its generated pairs, whose stages go in bands of
rows, and the one call of a generated chunk's trials. The grid's own
cached factors (1/theta, the +- closure, cos and sin) are built by a
first call and kept for every later call on that grid, so they are not
counted. The whole-grid pass holds all its block arrays in one buffer of
at most GRID_BLOCK elements, however many rows and block arrays a band
has.
"""

import tracemalloc
from itertools import chain

import numpy as np
import pytest

from riesz_sip import means
from riesz_sip.cauchy_schwarz import Gram, _lambda_rows, defect_grid, lambda_minima
from riesz_sip.harness import Instance, Trial, TrialConfig, _chunks, _run_check, _share_minima
from riesz_sip.means import (
    GRID_BLOCK,
    AngleGrid,
    LogGrid,
    _MeanRows,
    box_plus_oracle,
    box_times_oracle,
)
from riesz_sip.sip import MultiplicationSip, random_psd

G = 10**6
N = 8
BOUND = 16 * 2**20  # bytes

rng = np.random.default_rng(0)
PSD = random_psd(rng, 3, N)
u, v = rng.uniform(0.5, 2.0, (2, N))
x, y = rng.uniform(-1.0, 1.0, (2, 3))
# the generic pairs of a 25-trial study, whose n differ
GENERIC = [Gram(g.sip, g.x, g.y)
           for g in chain.from_iterable(_chunks(TrialConfig(trials=25), "generic"))]


def log_grid():
    return LogGrid.log_spaced(1e-6, 1e6, G)


def angle_grid():
    return AngleGrid.uniform(G)


# name: (grid, the call measured, a call on a one-coordinate input)
ORACLES = {
    "defect_grid-multiplication": (
        log_grid, lambda grid: defect_grid(MultiplicationSip(N), u, v, grid),
        lambda grid: defect_grid(MultiplicationSip(1), [1.0], [2.0], grid)),
    "defect_grid-psd": (
        log_grid, lambda grid: defect_grid(PSD, x, y, grid),
        lambda grid: defect_grid(MultiplicationSip(1), [1.0], [2.0], grid)),
    "box_times_oracle": (
        log_grid, lambda grid: box_times_oracle(u, v, grid),
        lambda grid: box_times_oracle([1.0], [2.0], grid)),
    "box_plus_oracle": (
        angle_grid, lambda grid: box_plus_oracle(u, v, grid),
        lambda grid: box_plus_oracle([1.0], [2.0], grid)),
}


@pytest.mark.parametrize("name", ORACLES)
def test_grid_oracle_memory_is_bounded_by_the_block(name):
    build, oracle, warm = ORACLES[name]
    grid = build()
    warm(grid)  # builds the grid's cached factors
    tracemalloc.start()
    try:
        result = oracle(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.shape == (N,) and np.all(np.isfinite(result))
    assert peak < BOUND, f"{name} peaked at {peak / 2**20:.1f} MiB"


def test_the_study_call_holds_a_band_of_rows():
    grid = log_grid()
    defect_grid(MultiplicationSip(1), [1.0], [2.0], grid)  # the cached factors
    tracemalloc.start()
    try:
        minima = lambda_minima(GENERIC, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.all(np.isfinite(d)) for d, _ in minima)
    assert peak < BOUND, f"the study's call peaked at {peak / 2**20:.1f} MiB"


def test_cs_and_sharp_of_a_trial_hold_one_block():
    config = TrialConfig(trials=1, lambda_count=G)
    defect_grid(MultiplicationSip(1), [1.0], [2.0], config.lambda_grid)  # the cached factors
    trial = Trial(Instance(PSD, u, x, y), config)
    tracemalloc.start()
    try:
        results = [_run_check(name, trial) for name in ("cs", "sharp")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all("invalid_instance" not in res.residuals for res in results)
    assert peak < BOUND, f"cs and sharp peaked at {peak / 2**20:.1f} MiB"


class _Buffers:
    """A row sampler that samples as rows does and records the size of each buffer it is handed."""

    def __init__(self, rows):
        self.rows, self.sizes = rows, set()

    def __getattr__(self, name):
        return getattr(self.rows, name)

    def sample(self, lo, hi, cols, buf):
        self.sizes.add(buf.size)
        return self.rows.sample(lo, hi, cols, buf)


def test_the_whole_grid_pass_holds_one_block_of_elements():
    # a band of 16 lambda rows has z, t and the kernel's two work blocks,
    # and one of mean rows the sum and the term: all of them together,
    # not the largest alone, stay within GRID_BLOCK float64s, at the
    # default lambda grid and at a grid of many blocks
    small = TrialConfig().lambda_grid
    many = LogGrid.log_spaced(1e-6, 1e6, 50_000)
    cos_t, sin_t = AngleGrid.uniform(50_000)._trig
    rng = np.random.default_rng(3)
    p, q = rng.uniform(0.5, 2.0, (2, 24))
    cases = [
        _lambda_rows([Gram(MultiplicationSip(64), *rng.uniform(-1.0, 1.0, (2, 64)))],
                     [rng.uniform(0.5, 2.0, 64)], grid)[0][0]
        for grid in (small, many)
    ] + [_MeanRows(np.minimum, p, grid.points, q, grid.inverse, None) for grid in (small, many)]
    cases.append(_MeanRows(np.maximum, p, cos_t, q, sin_t, None))
    for rows in cases:
        spy = _Buffers(rows)
        means._whole_grid(spy)
        assert spy.sizes and max(spy.sizes) <= GRID_BLOCK, (rows.size, spy.sizes)


def test_a_chunks_lambda_call_holds_a_few_blocks():
    # the one lambda_minima call of a 256-trial generic chunk holds the
    # driver's band buffer and the whole-grid pass's, GRID_BLOCK float64s
    # each, with the bands' brackets and windows: under four blocks
    config = TrialConfig(trials=256)
    trials = [Trial(inst, config) for inst in next(_chunks(config, "generic"))]
    assert len(trials) == 256
    weights = [t.u for t in trials]
    lambda_minima(trials, config.lambda_grid, weights)  # the cached factors and coefficients
    tracemalloc.start()
    try:
        minima = lambda_minima(trials, config.lambda_grid, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.all(np.isfinite(d)) for d, _ in minima)
    assert peak < 4 * GRID_BLOCK * 8, f"the chunk's call peaked at {peak / 2**20:.2f} MiB"


def test_a_chunks_axioms_pass_holds_a_few_blocks():
    # the one axioms pass of a 256-trial generic chunk stacks its
    # one-step PSD families of each m in blocks of at most GRID_BLOCK
    # float64s of T-values, and a block's residuals take about as much
    # again: the pass holds under three blocks
    config = TrialConfig(trials=256)
    chunk = next(_chunks(config, "generic"))

    def shared() -> list:
        trials = [Trial(inst, config) for inst in chunk]
        _share_minima(trials)
        return trials

    warm = shared()
    warm[0].axioms  # the cached operands and contraction paths
    trials = shared()
    tracemalloc.start()
    try:
        trials[0].axioms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all("axioms" in vars(t) for t in trials)
    assert peak < 3 * GRID_BLOCK * 8, f"the chunk's axioms pass peaked at {peak / 2**20:.2f} MiB"
