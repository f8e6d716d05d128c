"""The bracketed grid oracles against a plain full-grid reference, bit for bit.

lambda_minima and the mean oracles evaluate a coarse stride of each grid
piece, then only a window around each row's best coarse sample where a
rounding certificate holds, and the whole grid for every other row. The
references below evaluate every grid point at once, in the oracles'
elementwise order, and reduce each row in one call: the results must have
the same bits, signed zeros included, and NaN where the reference has
NaN. lambda_minima stacks the rows of many pairs, so a stack of pairs
must give each pair the bits it has alone. The size thresholds of the
two stages are patched to 0, so that the small grids take two stages
too, and each case runs at the library's own thresholds as well. The
bits cannot show a certificate that stops certifying, which only costs
time, so the last tests count the calls that take the whole grid and
the rows of each: a call takes it over all its rows where one row must,
and none of the study's generated pairs takes it at its largest grids.
"""

from contextlib import ExitStack
from itertools import chain
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_sip import cauchy_schwarz, harness, means
from riesz_sip.cauchy_schwarz import Gram, lambda_minima
from riesz_sip.harness import TrialConfig, _chunks, convergence_study
from riesz_sip.means import (
    AngleGrid,
    LogGrid,
    _box_plus_oracle,
    _box_times_oracle,
)
from riesz_sip.sip import MultiplicationSip, PsdFamilySip, _row_form, random_psd

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
COUNTS = (2, 3, 4, 5, 64, 2001, 10**4, 10**5)


def thresholds(bracket_all: bool):
    """A context in which every call takes two stages where a stride exists, or the library's own."""
    stack = ExitStack()
    if bracket_all:
        for module, name in ((means, "MEAN_BRACKET_ELEMENTS"),
                             (cauchy_schwarz, "LAMBDA_BRACKET_ELEMENTS")):
            stack.enter_context(mock.patch.object(module, name, 0))
    return stack


def assert_same_bits(got, ref):
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan), (got, ref)
    assert got[~nan].tobytes() == ref[~nan].tobytes(), (got, ref)


def ref_lambda_minima(T, x, y, grid):
    lam, abs_lam = grid.signed, grid.signed_abs
    z = x[:, None] * lam - y[:, None]
    if isinstance(T, MultiplicationSip):
        t = z * z
    else:
        t = np.empty((T.codomain_dim, lam.size))
        _row_form(T._row_coefficients, z[:, None], t, np.empty((2, *t.shape)))
    return (t / abs_lam).min(axis=1)


def ref_fold(fold, a, fa, b, fb):
    return fold.reduce(a[..., None] * fa + b[..., None] * fb, axis=-1)


# entries: exact zeros of both signs, moderate values, and 1e200
entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0, 1e200]),
                    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False))


def vectors(n):
    return st.lists(entries, min_size=n, max_size=n).map(np.array)


@st.composite
def families(draw, m_hi=4, n_hi=4):
    """(T, x, y, u): valid, negated, asymmetric, indefinite or zero-member families, or the flat 2x2 shape.

    m and n go up to m_hi and n_hi; y may be a multiple of x, and u has
    zero entries or is None.
    """
    kind = draw(st.sampled_from(["multiplication", "valid", "negated", "asymmetric",
                                 "indefinite", "zero", "flat", "huge"]))
    if kind == "flat":
        # one coordinate's function is flat in lambda: A_00 = A_11 = 0 on x = [0, x2], y = [y1, 0]
        A = np.array([[[2.0, 1.0], [1.0, 3.0]], [[0.0, 1.0], [1.0, 0.0]]])
        x2, y1 = draw(st.floats(0.5, 10.0)), draw(st.floats(0.5, 10.0))
        T, x, y = PsdFamilySip(A, validate=False), np.array([0.0, x2]), np.array([y1, 0.0])
    elif kind == "huge":
        T = PsdFamilySip(1e300 * np.array([[[1.0, -1.0], [-1.0, 1.0]]]), validate=False)
        x, y = np.array([1.0, 2.0]), np.array([3.0, -1.0])
    elif kind == "multiplication":
        T = MultiplicationSip(draw(st.integers(1, n_hi)))
        x, y = draw(vectors(T.dim)), draw(vectors(T.dim))
    else:
        m, n = draw(st.integers(1, m_hi)), draw(st.integers(1, n_hi))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        A = random_psd(rng, m, n).matrices.copy()
        j = int(rng.integers(n))
        if kind == "negated":
            A[j] = -A[j]
        elif kind == "asymmetric":
            N = rng.uniform(-1.0, 1.0, (m, m))
            A[j] += N - N.T
        elif kind == "indefinite":
            S = rng.uniform(-1.0, 1.0, (m, m))
            A[j] = S + S.T
        elif kind == "zero":
            A[j] = 0.0
        T = PsdFamilySip(A, validate=False)
        x, y = draw(vectors(m)), draw(vectors(m))
    if draw(st.booleans()):
        y = draw(st.sampled_from([2.0, -0.5])) * x  # colinear
    n = T.codomain_dim
    u = draw(st.none() | st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=n, max_size=n)
             .map(np.array))
    return T, x, y, u


@SETTINGS
@given(families(), st.sampled_from(COUNTS), st.booleans())
def test_lambda_minima_has_the_full_grids_bits(case, count, bracket_all):
    # the pass reads no weight: a pair's D is the same with or without one
    T, x, y, u = case
    grid = LogGrid.log_spaced(1e-6, 1e6, count)
    with np.errstate(all="ignore"), thresholds(bracket_all):
        (got,) = lambda_minima([Gram(T, x, y, u)], grid)
    with np.errstate(all="ignore"):
        ref = ref_lambda_minima(T, x, y, grid)
    assert_same_bits(got, ref)


@settings(SETTINGS, max_examples=25)
@given(st.lists(families(12, 8), min_size=1, max_size=12), st.sampled_from((64, 2001, 10**5)),
       st.booleans())
def test_stacked_pairs_have_each_pairs_bits(cases, count, bracket_all):
    # one call over 1-12 pairs of both sip kinds, m <= 12 and n <= 8,
    # with and without weights: each pair's D has the bits of that pair
    # alone and of the full grid's reference
    grid = LogGrid.log_spaced(1e-6, 1e6, count)
    grams = [Gram(T, x, y, u) for T, x, y, u in cases]
    with np.errstate(all="ignore"), thresholds(bracket_all):
        stacked = lambda_minima(grams, grid)
        alone = [lambda_minima([g], grid)[0] for g in grams]
    for (T, x, y, _), got, single in zip(cases, stacked, alone):
        with np.errstate(all="ignore"):
            ref = ref_lambda_minima(T, x, y, grid)
        assert_same_bits(got, ref)
        assert_same_bits(got, single)


@st.composite
def stacks(draw):
    """A (k, n) stack of two arguments, k = 1..4 and n = 1..4: zeros, moderate values and 1e200."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = st.lists(vectors(n), min_size=k, max_size=k).map(np.array)
    return draw(rows), draw(rows)


@SETTINGS
@given(stacks(), st.sampled_from(COUNTS[2:]), st.booleans())
def test_mean_oracles_have_the_full_grids_bits(ab, count, bracket_all):
    a, b = ab
    u, v = np.abs(a), np.abs(b)
    theta = LogGrid.log_spaced(1e-8, 1e8, count)
    angle = AngleGrid.uniform(count - count % 4)
    cos_t, sin_t = angle._trig
    qcos, qsin = angle._quarter_trig
    with np.errstate(all="ignore"), thresholds(bracket_all):
        got = [_box_times_oracle(u, v, theta, 1e-12), _box_plus_oracle(a, b, angle),
               _box_plus_oracle(a, b, angle, quarter=True)]
        alone = [[_box_times_oracle(u[i], v[i], theta, 1e-12), _box_plus_oracle(a[i], b[i], angle),
                  _box_plus_oracle(a[i], b[i], angle, quarter=True)] for i in range(len(a))]
    with np.errstate(all="ignore"):
        ref = [0.5 * ref_fold(np.minimum, u, theta.points, v, theta.inverse),
               ref_fold(np.maximum, a, cos_t, b, sin_t), ref_fold(np.maximum, a, qcos, b, qsin)]
    for g, r in zip(got, ref):
        assert_same_bits(g, r)
    # each row of the stack has the bits it has alone
    for i, row in enumerate(alone):
        for g, r in zip(row, got):
            assert_same_bits(g, r[i])


def counted(module, name, calls, record=None):
    """A context in which module.name appends record(*args), or name, to calls, then runs as before."""
    whole = getattr(module, name)

    def counting(*args):
        calls.append(name if record is None else record(*args))
        return whole(*args)
    return mock.patch.object(module, name, counting)


def mean_oracles(theta, angle):
    """(oracle, full-grid reference) of [*], [+] and [+] on the quarter circle, each of (p, q) stacks."""
    cos_t, sin_t = angle._trig
    qcos, qsin = angle._quarter_trig
    # the study's [*] arguments: the pair's magnitudes
    times = (lambda p, q: _box_times_oracle(abs(p), abs(q), theta, 1e-12),
             lambda p, q: 0.5 * ref_fold(np.minimum, abs(p), theta.points, abs(q), theta.inverse))
    plus = (lambda p, q: _box_plus_oracle(p, q, angle),
            lambda p, q: ref_fold(np.maximum, p, cos_t, q, sin_t))
    quarter = (lambda p, q: _box_plus_oracle(p, q, angle, quarter=True),
               lambda p, q: ref_fold(np.maximum, p, qcos, q, qsin))
    return times, plus, quarter


def test_the_fallback_takes_the_rows_it_must():
    # the flat row and the overflowing family send their call through the
    # whole grid, once, over every row of the pair: the flat family's
    # coordinate 0 too; a valid pair at 10^5 points takes none, under a
    # positive weight or one with a zero entry, which the pass never reads
    grid = LogGrid.log_spaced(1e-6, 1e6, 10**5)
    calls = []
    flat = PsdFamilySip([[[2.0, 1.0], [1.0, 3.0]], [[0.0, 1.0], [1.0, 0.0]]], validate=False)
    huge = PsdFamilySip(1e300 * np.array([[[1.0, -1.0], [-1.0, 1.0]]]), validate=False)
    valid = random_psd(np.random.default_rng(3), 3, 2)
    with counted(means, "_whole_grid", calls, lambda rows: rows.size), \
            np.errstate(all="ignore"):
        for T, x, y, u, rows in (
                # coordinate 1's D is flat in lambda, coordinate 0's is not
                (flat, [0.0, 2.0], [3.0, 0.0], [1.0, 2.0], [2]),
                (huge, [1.0, 2.0], [3.0, -1.0], [1.0], [1]),
                (valid, [1.0, -2.0, 0.5], [0.3, 1.0, 2.0], [1.0, 1.0], []),
                (valid, [1.0, -2.0, 0.5], [0.3, 1.0, 2.0], [0.0, 1.0], [])):
            calls.clear()
            x, y, u = np.array(x), np.array(y), np.array(u)
            (got,) = lambda_minima([Gram(T, x, y, u)], grid)
            assert calls == rows
            assert_same_bits(got, ref_lambda_minima(T, x, y, grid))


def test_the_mean_oracles_fallback_takes_the_rows_it_must():
    # at 10^5 points, beside a generated positive_log pair: an all-zero
    # row (u_j = v_j = 0, flat) sends the call through the whole grid,
    # once, over every row of both pairs, and so does a row whose best
    # coarse samples tie (a_j = b_j < 0 on the quarter circle, best at
    # both ends), or both; the positive_log pair alone takes none
    theta = LogGrid.log_spaced(1e-8, 1e8, 10**5)
    angle = AngleGrid.uniform(10**5)
    pos = next(_chunks(TrialConfig(trials=20, seed=7), "positive_log"))[0]
    n = pos.x.size
    flat_x, flat_y = pos.x.copy(), pos.y.copy()
    flat_x[0] = flat_y[0] = 0.0
    tie_x, tie_y = pos.x.copy(), pos.y.copy()
    tie_x[-1] = tie_y[-1] = -1.0
    times, plus, quarter = mean_oracles(theta, angle)
    calls = []
    with counted(means, "_whole_grid", calls, lambda rows: rows.size), np.errstate(all="ignore"):
        for (oracle, reference), x, y, rows in (
                (times, [pos.x], [pos.y], []), (plus, [pos.x], [pos.y], []),
                (quarter, [pos.x], [pos.y], []),
                (times, [pos.x, flat_x], [pos.y, flat_y], [2 * n]),
                (plus, [pos.x, flat_x], [pos.y, flat_y], [2 * n]),
                (quarter, [tie_x, pos.x], [tie_y, pos.y], [2 * n]),
                (quarter, [flat_x, tie_x], [flat_y, tie_y], [2 * n])):
            calls.clear()
            x, y = np.array(x), np.array(y)
            got = oracle(x, y)
            assert calls == rows
            assert got.shape == (len(x), n)
            assert_same_bits(got, reference(x, y))


def test_generated_pairs_take_two_stages_and_never_fall_back():
    # a certificate that quietly stops certifying keeps every bit and
    # only costs time: in a study at grids of 10^5 and 2*10^5 points,
    # over 20 generated pairs of each of its recipes, every oracle call
    # must take two stages and no row may take the whole grid; the study
    # makes one lambda_minima call per grid size, over every pair, and
    # one call of each mean oracle per grid size and n
    config = TrialConfig(trials=20, seed=7)
    ns = {pos.x.size for pos in chain.from_iterable(_chunks(config, "positive_log"))}
    calls = []
    with ExitStack() as stack, np.errstate(all="ignore"):
        # the whole-grid pass, shared by the three oracles, records its sampler's class
        stack.enter_context(counted(means, "_whole_grid", calls, lambda rows: type(rows).__name__))
        for module, name in ((harness, "lambda_minima"), (harness, "box_times_gaps"),
                             (harness, "box_plus_gaps")):
            stack.enter_context(counted(module, name, calls))
        assert convergence_study(config, (10**5, 2 * 10**5)).ok
    assert sorted(calls) == sorted(["lambda_minima"] * 2
                                  + ["box_times_gaps", "box_plus_gaps"] * 2 * len(ns))


def test_a_fallback_takes_every_row_of_its_call_once():
    # at 10^5 points and the library's thresholds, a row that must take
    # the whole grid takes it with every other row of its call, in one
    # _whole_grid call, and every row keeps the full grid's bits and the
    # bits it has alone: the flat 2x2 pair among four valid m = 2 PSD
    # pairs, one class of the lambda oracle with 12 rows; and one all-zero
    # row among 17 positive_log rows, a stack of six pairs at n = 3,
    # under [*], [+] and the quarter circle
    grid = LogGrid.log_spaced(1e-6, 1e6, 10**5)
    rng = np.random.default_rng(11)
    flat = PsdFamilySip([[[2.0, 1.0], [1.0, 3.0]], [[0.0, 1.0], [1.0, 0.0]]], validate=False)
    cases = [(random_psd(rng, 2, n), rng.uniform(-5.0, 5.0, 2), rng.uniform(-5.0, 5.0, 2),
              rng.uniform(0.5, 3.0, n)) for n in (3, 1, 4, 2)]
    cases.insert(2, (flat, np.array([0.0, 2.0]), np.array([3.0, 0.0]), np.array([1.0, 2.0])))
    grams = [Gram(T, x, y, u) for T, x, y, u in cases]
    calls = []
    with counted(means, "_whole_grid", calls, lambda rows: rows.size), \
            np.errstate(all="ignore"):
        stacked = lambda_minima(grams, grid)
        assert calls == [12]
        alone = [lambda_minima([g], grid)[0] for g in grams]
    for (T, x, y, _), got, single in zip(cases, stacked, alone):
        with np.errstate(all="ignore"):
            ref = ref_lambda_minima(T, x, y, grid)
        assert_same_bits(got, ref)
        assert_same_bits(got, single)

    theta = LogGrid.log_spaced(1e-8, 1e8, 10**5)
    angle = AngleGrid.uniform(10**5)
    chunk = next(_chunks(TrialConfig(trials=20, seed=7, n_lo=3, n_hi=3), "positive_log"))
    x, y = np.array([p.x for p in chunk[:6]]), np.array([p.y for p in chunk[:6]])
    x[4, 1] = y[4, 1] = 0.0
    for oracle, reference in mean_oracles(theta, angle):
        calls = []
        with counted(means, "_whole_grid", calls, lambda rows: rows.size), \
                np.errstate(all="ignore"):
            got = oracle(x, y)
            assert calls == [x.size]
            alone = [oracle(x[i], y[i]) for i in range(len(x))]
        with np.errstate(all="ignore"):
            assert_same_bits(got, reference(x, y))
        for i, single in enumerate(alone):
            assert_same_bits(got[i], single)


def test_a_thousand_trial_run_takes_no_lambda_row_through_the_whole_grid():
    # every lambda row of a 1,000-trial verify is certified by the two
    # stages
    calls = []
    with counted(means, "_whole_grid", calls, lambda rows: type(rows).__name__), \
            np.errstate(all="ignore"):
        harness.run_suite(TrialConfig(trials=1000, seed=0))
    assert "_Rows" not in calls
