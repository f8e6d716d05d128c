"""The quadratic kernels T(z, z), one value per column of an (m, S) array.

The kernel (sip._row_form for a PSD family, z * z for the multiplication
sip) computes the lambda-grid samples of the Cauchy-Schwarz defect oracle, one block of
grid columns per call, on the stacked rows of many pairs. A column's bits
must depend on that column and the family alone: not on the batch around
it, its position, the block width of the lambda-grid pass, or the SIMD
paths numpy dispatches to. Its value must be T's scalar definition up to
Higham's forward-error bound, and it must stay finite on the families
where a summed off-diagonal coefficient or a product z_a*z_b formed first
would overflow. The values of a pair's Gram, T(x,x), T(x,y), T(y,y),
T(x+y,x+y) and T(x-y,x-y), are held to the same scalar definition and
bound, and a GramStack holds each pair's bits.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_sip import means, seminorms
from riesz_sip.cauchy_schwarz import (
    LAMBDA_COUNT,
    LAMBDA_HI,
    LAMBDA_LO,
    Gram,
    GramStack,
    _lambda_rows,
    _lambda_values,
    _Rows,
)
from riesz_sip.lattice import NonFinite
from riesz_sip.means import GRID_BLOCK, LogGrid
from riesz_sip.sip import MultiplicationSip, PsdFamilySip, _row_form, eval_stack, random_psd

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
# numpy's SIMD targets switched off in a child process: its AVX-512 paths,
# and with them its AVX2 ones (X86_V3)
DISPATCH_OFF = ("X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR X86_V3")


def quadratic(T, Zt):
    """T(z, z) of every column z of the (m, S) array Zt, as (n, S), by the lambda-grid oracle's kernel."""
    if isinstance(T, MultiplicationSip):
        return Zt * Zt
    out = np.empty((T.codomain_dim, Zt.shape[1]))
    return _row_form(T._row_coefficients, Zt[:, None], out, np.empty((2, *out.shape)))


def lambda_samples(T, x, y, grid):
    """The T-values of the whole-grid pass (means._whole_grid) over grid.signed, block after block, as (n, 2G)."""
    (rows,), _ = _lambda_rows([Gram(T, x, y)], grid)
    out = np.empty((rows.size, 2 * grid.count))

    def sample(self, lo, hi, cols, buf):
        # each block's buffer is overwritten by the next, so it is copied out first
        t = _lambda_values(self, lo, hi, self.grid.signed[cols], buf)
        out[lo:hi, cols] = t
        return t

    with mock.patch.object(_Rows, "sample", sample):
        means._whole_grid(rows)
    return out


def floats(lo, hi):
    """Zeros of both signs, and +-f*10^e with e in [lo, hi]."""
    return st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.builds(lambda s, e, f: s * f * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                  st.integers(lo, hi), st.floats(1.0, 10.0, exclude_max=True)))


def sips(scales, dims=st.integers(1, 8)):
    """Either sip kind, m = 1..12 and n drawn from dims; PSD families symmetric or not."""
    @st.composite
    def build(draw):
        n = draw(dims)
        if draw(st.booleans()):
            return MultiplicationSip(n)
        m = draw(st.integers(1, 12))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if draw(st.booleans()):
            A = random_psd(rng, m, n).matrices
        else:  # the mean of A_jab and A_jba is rounded
            A = rng.uniform(-1.0, 1.0, (n, m, m))
        return PsdFamilySip(abs(draw(scales)) * A, validate=False)
    return build()


def columns(elements, m, count):
    return st.lists(st.lists(elements, min_size=m, max_size=m),
                    min_size=count, max_size=count).map(
        lambda cols: np.array(cols, dtype=np.float64).reshape(count, m).T.copy())


def assert_same_bits(got, ref):
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan), (got, ref)
    assert got[~nan].tobytes() == ref[~nan].tobytes(), (got, ref)


@SETTINGS
@given(sips(floats(-300, 299)), st.data())
def test_column_bits_do_not_depend_on_the_batch(T, data):
    m = T.domain_dim
    z = data.draw(columns(floats(-300, 299), m, 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    with np.errstate(all="ignore"):
        alone = quadratic(T, z)
        # any position in a batch of N
        N = data.draw(st.integers(1, 40))
        k = data.draw(st.integers(0, N - 1))
        batch = rng.uniform(-10.0, 10.0, (m, N))
        batch[:, k] = z[:, 0]
        assert_same_bits(quadratic(T, batch)[:, k:k + 1], alone)


@SETTINGS
@given(sips(floats(-300, 299)), st.data())
def test_lambda_samples_bits_do_not_depend_on_the_block(T, data):
    # the pass calls quadratic once per block of grid columns: each
    # column must be quadratic of that column alone, on both sides of
    # every block boundary, and the samples must not depend on the width
    m, n = T.domain_dim, T.codomain_dim
    x, y = (data.draw(columns(floats(-300, 299), m, 1))[:, 0] for _ in "xy")
    width = GRID_BLOCK // max(m, n)
    with np.errstate(all="ignore"):
        # 2G columns at one block, one below it or just above it
        for G in (width // 2 - 1, width // 2, width // 2 + 1):
            grid = LogGrid.log_spaced(LAMBDA_LO, LAMBDA_HI, G)
            got = lambda_samples(T, x, y, grid)
            S = 2 * G
            for k in sorted({0, width - 1, width, S - 1} & set(range(S))):
                z = grid.signed[k] * x - y
                assert_same_bits(got[:, k:k + 1], quadratic(T, z[:, None]))
        grid = LogGrid.log_spaced(LAMBDA_LO, LAMBDA_HI, 7)
        ref = lambda_samples(T, x, y, grid)
        for block in (1, 2, 5):  # elements: one column per block when m or n > block
            with mock.patch.object(means, "GRID_BLOCK", block):
                assert_same_bits(lambda_samples(T, x, y, grid), ref)


def _matrices(T):
    if isinstance(T, MultiplicationSip):  # T(z, z)_j = z_j*z_j: A_j = e_j e_j'
        return np.einsum("ja,jb->jab", np.eye(T.dim), np.eye(T.dim))
    return T.matrices


@SETTINGS
@given(sips(floats(-60, 60)), st.data())
def test_quadratic_is_the_scalar_definition(T, data):
    # |fl(T(z,z)_j) - T(z,z)_j| <= gamma_k * sum_ab |z_a||A_jab||z_b| (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1), with
    # T(z,z)_j and the bound exact. The kernel's halving of A_jaa and its
    # last doubling are exact at these magnitudes, so the term of a pair
    # a <= b rounds at most at: the mean of its two entries (1), C_jab*z_b
    # (1), the additions of row a's sum after it (at most m - 1), the
    # product with z_a (1) and the additions of the rows' sum after row a
    # (at most m - 1): k = 2m + 1, reached by the pair (0, 1).
    m = T.domain_dim
    Zt = data.draw(columns(floats(-60, 60), m, 3))
    got = quadratic(T, Zt)
    assert got.shape == (T.codomain_dim, 3)
    A = [[[Fraction(v) for v in row] for row in Aj] for Aj in _matrices(T).tolist()]
    k = 2 * m + 1
    u = Fraction(1, 2**53)
    gamma = k * u / (1 - k * u)
    for s in range(Zt.shape[1]):
        z = [Fraction(v) for v in Zt[:, s].tolist()]
        for j, Aj in enumerate(A):
            exact = sum(z[a] * Aj[a][b] * z[b] for a in range(m) for b in range(m))
            mag = sum(abs(z[a] * Aj[a][b] * z[b]) for a in range(m) for b in range(m))
            assert abs(Fraction(got[j, s]) - exact) <= gamma * mag, (j, s)


def _definition(A: list, x: list, y: list) -> tuple:
    """(T(x, y)_j, sum_ab |x_a A_jab y_b|) per j, exactly: T(x, y)_j = sum_ab x_a A_jab y_b."""
    m = len(x)
    terms = [[x[a] * Aj[a][b] * y[b] for a in range(m) for b in range(m)] for Aj in A]
    return [sum(t) for t in terms], [sum(map(abs, t)) for t in terms]


@SETTINGS
@given(st.integers(1, 8), st.data())
def test_gram_values_are_the_scalar_definition(n, data):
    # a, b and c are T(x,x), T(x,y) and T(y,y) of the validated pair, and s
    # and d T(z,z) at z = fl(x+y) and fl(x-y). Evaluating T is two dot
    # products of length m, within gamma_2m * |x|'|A_j||y| (Higham, 3.5);
    # z's rounding, |fl(z) - z| <= u|z|, adds at most 2u + u^2 relative to
    # |z|'|A_j||z|, so s and d are within gamma_(2m+2) of the exact T(z,z).
    # A GramStack of pairs into R^n holds each pair's values bit for bit.
    grams = []
    for T in data.draw(st.lists(sips(floats(-60, 60), st.just(n)), min_size=1, max_size=3)):
        x, y = (data.draw(columns(floats(-60, 60), T.domain_dim, 1))[:, 0] for _ in "xy")
        grams.append(Gram(T, x, y))
    u = Fraction(1, 2**53)
    for g in grams:
        m = g.T.domain_dim
        A = [[[Fraction(v) for v in row] for row in Aj] for Aj in _matrices(g.T).tolist()]
        x, y = ([Fraction(v) for v in v.tolist()] for v in (g.x, g.y))
        plus, minus = [p + q for p, q in zip(x, y)], [p - q for p, q in zip(x, y)]
        for name, left, right, k in (("a", x, x, 2 * m), ("b", x, y, 2 * m),
                                     ("c", y, y, 2 * m), ("s", plus, plus, 2 * m + 2),
                                     ("d", minus, minus, 2 * m + 2)):
            gamma = k * u / (1 - k * u)
            got = getattr(g, name)
            assert got.shape == (n,)
            for j, (exact, mag) in enumerate(zip(*_definition(A, left, right))):
                assert abs(Fraction(got[j]) - exact) <= gamma * mag, (name, j)
    stack = GramStack(grams)
    for name in "abcsd":
        for i, g in enumerate(grams):
            assert_same_bits(getattr(stack, name)[i], getattr(g, name))


def scaled_values(g):
    return g.values(seminorms._scaled_pairs)


@SETTINGS
@given(st.integers(1, 8), st.data())
def test_a_stack_gives_each_pair_its_grams_bits(n, data):
    # a GramStack evaluates its T-values in one eval_stack call per sub-stack
    # of one sip kind and one m, stacks that mix kinds and m (m <= 12):
    # each row has the bits of its pair's Gram, and a Gram those of T.eval;
    # one pair's x+y overflows: reading a, b and c neither raises nor
    # evaluates s or d, and d, read alone, neither raises
    kinds = data.draw(st.lists(sips(floats(-60, 60), st.just(n)), min_size=1, max_size=4))
    grams = []
    for T in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=17)):
        x, y = (data.draw(columns(floats(-60, 60), T.domain_dim, 1))[:, 0] for _ in "xy")
        grams.append(Gram(T, x, y))
    big = np.full(n, 1e308)
    at = data.draw(st.integers(0, len(grams)))
    grams.insert(at, Gram(MultiplicationSip(n), big, big))
    stack = GramStack(grams)
    with np.errstate(over="ignore"):  # the big pair's T-values overflow
        for name in "abc":
            getattr(stack, name)
        assert not any({"s", "d"} & vars(r).keys() for r in (stack, *grams))
        for read in (lambda r: r.s, lambda r: scaled_values(r)):
            for record in (stack, grams[at]):
                with pytest.raises(NonFinite):
                    read(record)
        d = stack.d
    assert_same_bits(d[at], np.zeros(n))
    del grams[at]
    stack = GramStack(grams)
    for name, value in (("a", lambda g: g.T.eval(g.x, g.x)), ("b", lambda g: g.T.eval(g.x, g.y)),
                        ("c", lambda g: g.T.eval(g.y, g.y)),
                        ("s", lambda g: g.T.eval(g.x + g.y, g.x + g.y)),
                        ("d", lambda g: g.T.eval(g.x - g.y, g.x - g.y))):
        rows = getattr(stack, name)
        for i, g in enumerate(grams):
            assert_same_bits(getattr(g, name), value(g))
            assert_same_bits(rows[i], getattr(g, name))
    rows = scaled_values(stack)
    for i, g in enumerate(grams):
        alone = scaled_values(g)
        for alpha, t in zip((-2.5, -1.0, 0.0, 0.5, float(g.x[0])), alone):
            assert_same_bits(t, g.T.eval(alpha * g.x, alpha * g.x))
        assert_same_bits(rows[:, i], alone)


def test_stacked_evaluation_has_the_bits_of_eval():
    # the stacked matmuls of eval_stack against A @ r @ l one pair at a
    # time, at every m <= 12 and n <= 8, for stacks of 1 and of 17 families
    # and for one family without a stack axis
    rng = np.random.default_rng(96)
    for m in range(1, 13):
        for n in range(1, 9):
            for k in (1, 17):
                sips = [random_psd(rng, m, n) for _ in range(k)]
                L, R = (rng.uniform(-10.0, 10.0, (3, k, m)) for _ in "LR")
                got = eval_stack(sips, L, R)
                for j in range(3):
                    for i, T in enumerate(sips):
                        assert_same_bits(got[j, i], T.eval(L[j, i], R[j, i]))
            assert_same_bits(eval_stack(sips[:1], L[:, 0], R[:, 0]), got[:, 0])


GRID = LogGrid.log_spaced(LAMBDA_LO, LAMBDA_HI, LAMBDA_COUNT)


def test_huge_off_diagonal_entries_do_not_overflow_the_coefficient():
    # A_j01 + A_j10 = 2e308 overflows, and a summed coefficient leaves no
    # sample finite; the kernel counts the two entries by their mean, so
    # the samples stay finite wherever einsum's are (2,884 of 4,002)
    T = PsdFamilySip(1e308 * np.ones((1, 2, 2)), validate=False)
    x, y = np.array([1e-3, 2e-3]), np.array([-1e-3, 1e-3])
    Z = GRID.signed[:, None] * x - y
    with np.errstate(all="ignore"):
        got = lambda_samples(T, x, y, GRID)
        einsum = T.eval_batch(Z, Z).T
    assert np.all(np.isfinite(got)[np.isfinite(einsum)])
    assert np.isfinite(got).sum() >= 2884


def test_matrix_entry_multiplies_first():
    # (A_jaa*z_a)*z_a with A = 1e-320*I stays finite up to |z_a| near 1e308;
    # z_a*z_a first overflows above 1.3e154 and gives inf
    T = PsdFamilySip(1e-320 * np.eye(2)[None], validate=False)
    Zt = np.array([[2e300, -1.7e308], [1.0, 1.0]])
    got = quadratic(T, Zt)
    assert np.all(np.isfinite(got))
    assert got[0, 0] == (1e-320 * 2e300) * 2e300 + (1e-320 * 1.0) * 1.0


# Prints whether any of the SIMD targets named in argv[2] is still on,
# then the kernel of both sip kinds on the inputs saved in argv[1], as hex.
_CHILD = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from riesz_sip.sip import PsdFamilySip, _row_form
with np.load(sys.argv[1]) as f:
    A, Z, W = f["A"], f["Z"], f["W"]
print(any(__cpu_features__.get(name, False) for name in sys.argv[2].split()))
out = np.empty((A.shape[0], Z.shape[1]))
_row_form(PsdFamilySip(A, validate=False)._row_coefficients, Z[:, None], out,
          np.empty((2, *out.shape)))
print(out.tobytes().hex())
print((W * W).tobytes().hex())
"""


@pytest.mark.parametrize("disabled", DISPATCH_OFF)
def test_quadratic_bits_do_not_follow_numpys_simd_dispatch(disabled, tmp_path):
    # the lambda-grid samples are elementwise multiplications and
    # additions, correctly rounded on every SIMD path: fixed inputs give
    # the bits computed here in a process with those paths switched off
    rng = np.random.default_rng(13)
    A = rng.uniform(-1.0, 1.0, (8, 12, 12)) * 10.0 ** rng.integers(-30, 30, (8, 12, 12))
    Z = rng.uniform(-1.0, 1.0, (12, 4002)) * 10.0 ** rng.integers(-60, 60, (12, 4002))
    W = Z[:8].copy()
    np.savez(tmp_path / "inputs.npz", A=A, Z=Z, W=W)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path / "inputs.npz"), disabled],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    enabled, psd, mult = proc.stdout.split()
    assert enabled == "False"
    assert psd == quadratic(PsdFamilySip(A, validate=False), Z).tobytes().hex()
    assert mult == quadratic(MultiplicationSip(8), W).tobytes().hex()
