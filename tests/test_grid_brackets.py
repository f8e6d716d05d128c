"""The bracketed grid oracles against a plain full-grid reference, bit for bit.

lambda_minima and the mean oracles evaluate a coarse stride of each grid
piece, then only a window around each row's best coarse sample where a
rounding certificate holds, and the whole grid for every other row. The
references below evaluate every grid point at once, in the oracles'
elementwise order, and reduce each row in one call: the results must have
the same bits, signed zeros included, and NaN where the reference has
NaN. The size thresholds of the two stages are patched to 0, so that the
small grids take two stages too, and each case runs at the library's own
thresholds as well.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_sip import cauchy_schwarz, means
from riesz_sip.cauchy_schwarz import Gram, lambda_minima
from riesz_sip.means import AngleGrid, LogGrid, _box_plus_oracle, _box_times_oracle
from riesz_sip.sip import MultiplicationSip, PsdFamilySip, random_psd

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
COUNTS = (2, 3, 4, 5, 64, 2001, 10**4, 10**5)


def thresholds(bracket_all: bool):
    """A context in which every call takes two stages where a stride exists, or the library's own."""
    stack = ExitStack()
    if bracket_all:
        for module, name in ((means, "MEAN_BRACKET_ELEMENTS"), (means, "LAMBDA_BRACKET_ELEMENTS"),
                             (cauchy_schwarz, "LAMBDA_BRACKET_ELEMENTS")):
            stack.enter_context(mock.patch.object(module, name, 0))
    return stack


def assert_same_bits(got, ref):
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan), (got, ref)
    assert got[~nan].tobytes() == ref[~nan].tobytes(), (got, ref)


def ref_lambda_minima(T, x, y, grid, u):
    lam, abs_lam = grid.signed, grid.signed_abs
    t = T.quadratic(x[:, None] * lam - y[:, None])
    d = (t / abs_lam).min(axis=1)
    return d, None if u is None else (t * u[:, None] / abs_lam).min(axis=1)


def ref_fold(fold, a, fa, b, fb):
    return fold.reduce(a[..., None] * fa + b[..., None] * fb, axis=-1)


# entries: exact zeros of both signs, moderate values, and 1e200
entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0, 1e200]),
                    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False))


def vectors(n):
    return st.lists(entries, min_size=n, max_size=n).map(np.array)


@st.composite
def families(draw):
    """(T, x, y, u): valid, negated, asymmetric, indefinite or zero-member families, or the flat 2x2 shape."""
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
        T = MultiplicationSip(draw(st.integers(1, 4)))
        x, y = draw(vectors(T.dim)), draw(vectors(T.dim))
    else:
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
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
    n = T.codomain_dim
    u = draw(st.none() | st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=n, max_size=n)
             .map(np.array))
    return T, x, y, u


@SETTINGS
@given(families(), st.sampled_from(COUNTS), st.booleans())
def test_lambda_minima_has_the_full_grids_bits(case, count, bracket_all):
    T, x, y, u = case
    grid = LogGrid.log_spaced(1e-6, 1e6, count)
    with np.errstate(all="ignore"), thresholds(bracket_all):
        got = lambda_minima(Gram(T, x, y), grid, u)
    with np.errstate(all="ignore"):
        ref = ref_lambda_minima(T, x, y, grid, u)
    assert_same_bits(got[0], ref[0])
    if u is None:
        assert got[1] is None
    else:
        assert_same_bits(got[1], ref[1])


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


def test_the_fallback_takes_the_rows_it_must():
    # the flat row, a zero weight's row and the overflowing family take
    # the whole grid; a valid pair at 10^5 points takes none
    grid = LogGrid.log_spaced(1e-6, 1e6, 10**5)
    calls = []
    whole = cauchy_schwarz._lambda_pass

    def counted(*args):
        calls.append(args)
        return whole(*args)

    flat = PsdFamilySip([[[2.0, 1.0], [1.0, 3.0]], [[0.0, 1.0], [1.0, 0.0]]], validate=False)
    huge = PsdFamilySip(1e300 * np.array([[[1.0, -1.0], [-1.0, 1.0]]]), validate=False)
    valid = random_psd(np.random.default_rng(3), 3, 2)
    with mock.patch.object(cauchy_schwarz, "_lambda_pass", counted), np.errstate(all="ignore"):
        for T, x, y, falls in ((flat, [0.0, 2.0], [3.0, 0.0], True),
                               (huge, [1.0, 2.0], [3.0, -1.0], True),
                               (valid, [1.0, -2.0, 0.5], [0.3, 1.0, 2.0], False)):
            calls.clear()
            got = lambda_minima(Gram(T, np.array(x), np.array(y)), grid, np.ones(T.codomain_dim))
            assert bool(calls) == falls
            ref = ref_lambda_minima(T, np.array(x), np.array(y), grid, np.ones(T.codomain_dim))
            assert_same_bits(got[0], ref[0])
            assert_same_bits(got[1], ref[1])
