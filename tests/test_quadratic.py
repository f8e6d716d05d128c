"""The quadratic kernels T(z, z), one value per column of an (m, S) array.

quadratic computes the lambda-grid samples of the Cauchy-Schwarz defect
oracle. A column's bits must depend on that column and the family alone:
not on the batch around it, its position, or the chunk width of the PSD
kernel. Its value must be T's scalar definition up to Higham's
forward-error bound, and it must stay finite on the families where a
summed off-diagonal coefficient or a product z_a*z_b formed first would
overflow.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_sip import sip as sip_module
from riesz_sip.cauchy_schwarz import LAMBDA_COUNT, LAMBDA_HI, LAMBDA_LO, Gram, lambda_samples
from riesz_sip.means import LogGrid
from riesz_sip.sip import QUADRATIC_CHUNK, MultiplicationSip, PsdFamilySip, random_psd

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def floats(lo, hi):
    """Zeros of both signs, and +-f*10^e with e in [lo, hi]."""
    return st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.builds(lambda s, e, f: s * f * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                  st.integers(lo, hi), st.floats(1.0, 10.0, exclude_max=True)))


def sips(scales):
    """Either sip kind, m = 1..12 and n = 1..8; PSD families symmetric or not."""
    @st.composite
    def build(draw):
        n = draw(st.integers(1, 8))
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
        alone = T.quadratic(z)
        # any position in a batch of N
        N = data.draw(st.integers(1, 40))
        k = data.draw(st.integers(0, N - 1))
        batch = rng.uniform(-10.0, 10.0, (m, N))
        batch[:, k] = z[:, 0]
        assert_same_bits(T.quadratic(batch)[:, k:k + 1], alone)
        # both sides of every chunk boundary, at S one below, at and one above the width
        for S in (QUADRATIC_CHUNK - 1, QUADRATIC_CHUNK, QUADRATIC_CHUNK + 1):
            batch = rng.uniform(-10.0, 10.0, (m, S))
            spots = sorted({0, QUADRATIC_CHUNK - 1, QUADRATIC_CHUNK, S - 1} & set(range(S)))
            batch[:, spots] = z
            got = T.quadratic(batch)
            for k in spots:
                assert_same_bits(got[:, k:k + 1], alone)
        # and any chunk width
        batch = rng.uniform(-10.0, 10.0, (m, 7))
        batch[:, 5] = z[:, 0]
        ref = T.quadratic(batch)
        for width in (1, 2, 5):
            with mock.patch.object(sip_module, "QUADRATIC_CHUNK", width):
                assert_same_bits(T.quadratic(batch), ref)


def _matrices(T):
    if isinstance(T, MultiplicationSip):  # T(z, z)_j = z_j*z_j: A_j = e_j e_j'
        return np.einsum("ja,jb->jab", np.eye(T.dim), np.eye(T.dim))
    return T.matrices


@SETTINGS
@given(sips(floats(-60, 60)), st.data())
def test_quadratic_is_the_scalar_definition(T, data):
    # |fl(T(z,z)_j) - T(z,z)_j| <= gamma_k * sum_ab |z_a||A_jab||z_b| (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1), with
    # T(z,z)_j and the bound exact: each term takes the rounded mean of its
    # two entries and two products, then rides through the P - 1 additions
    # of the running sum, so k = P + 2 for the P pairs a <= b.
    m = T.domain_dim
    Zt = data.draw(columns(floats(-60, 60), m, 3))
    got = T.quadratic(Zt)
    assert got.shape == (T.codomain_dim, 3)
    A = [[[Fraction(v) for v in row] for row in Aj] for Aj in _matrices(T).tolist()]
    k = m * (m + 1) // 2 + 2
    u = Fraction(1, 2**53)
    gamma = k * u / (1 - k * u)
    for s in range(Zt.shape[1]):
        z = [Fraction(v) for v in Zt[:, s].tolist()]
        for j, Aj in enumerate(A):
            exact = sum(z[a] * Aj[a][b] * z[b] for a in range(m) for b in range(m))
            mag = sum(abs(z[a] * Aj[a][b] * z[b]) for a in range(m) for b in range(m))
            assert abs(Fraction(got[j, s]) - exact) <= gamma * mag, (j, s)


GRID = LogGrid.log_spaced(LAMBDA_LO, LAMBDA_HI, LAMBDA_COUNT)


def test_huge_off_diagonal_entries_do_not_overflow_the_coefficient():
    # A_j01 + A_j10 = 2e308 overflows, and a summed coefficient leaves no
    # sample finite; the kernel counts the two entries by their mean, so
    # the samples stay finite wherever einsum's are (2,884 of 4,002)
    T = PsdFamilySip(1e308 * np.ones((1, 2, 2)), validate=False)
    x, y = np.array([1e-3, 2e-3]), np.array([-1e-3, 1e-3])
    Z = GRID.signed[:, None] * x - y
    with np.errstate(all="ignore"):
        got = lambda_samples(Gram(T, x, y), GRID)
        einsum = T.eval_batch(Z, Z).T
    assert np.all(np.isfinite(got)[np.isfinite(einsum)])
    assert np.isfinite(got).sum() >= 2884


def test_matrix_entry_multiplies_first():
    # (A_jaa*z_a)*z_a with A = 1e-320*I stays finite up to |z_a| near 1e308;
    # z_a*z_a first overflows above 1.3e154 and gives inf
    T = PsdFamilySip(1e-320 * np.eye(2)[None], validate=False)
    Zt = np.array([[2e300, -1.7e308], [1.0, 1.0]])
    got = T.quadratic(Zt)
    assert np.all(np.isfinite(got))
    assert got[0, 0] == (1e-320 * 2e300) * 2e300 + (1e-320 * 1.0) * 1.0
