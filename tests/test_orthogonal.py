"""The orthogonal kernel: nonzero y with T(x, y) = 0 for a stack of pairs.

sip.orthogonal_stack builds the orthogonal recipe's pairs a chunk at a
time: a stacked Gauss-Jordan elimination on the rows x'A_j for PSD
families, and x's zero support for multiplication sips. Every step is
elementwise over the pairs, so a pair's bits in a stack of any size,
zero-padded to the stack's largest n and m, must be the bits and the
status of a stack of that pair alone (a batch of 1 and a batch of N agree),
rank-deficient rows included: a zero family member, and x in a member's
kernel. The kernel uses no LAPACK, BLAS, matmul or einsum.
"""

import ast
import inspect
import textwrap
from itertools import chain

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riesz_sip import harness, sip
from riesz_sip.harness import TrialConfig
from riesz_sip.sip import (
    ORTHOGONAL,
    MultiplicationSip,
    PsdFamilySip,
    orthogonal_stack,
    random_psd,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def psd_pairs(draw):
    """(T, x, seed): a PSD family with m <= 12, n < m, possibly rank-deficient, and x.

    x's scale spans 10^-8 to 10^8, so the pairs of one stack differ in scale
    by up to 10^16, and no pair's pivot threshold can follow another's.
    """
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = random_psd(rng, m, n).matrices.copy()
    x = rng.uniform(-10.0, 10.0, m) * 10.0 ** draw(st.integers(-8, 8))
    j = draw(st.integers(0, n - 1))
    deficient = draw(st.sampled_from(["none", "zero_member", "x_in_kernel"]))
    if deficient == "zero_member":
        A[j] = 0.0
    elif deficient == "x_in_kernel":
        # A_j acts on coordinates where x vanishes, so x'A_j = 0 exactly
        a = draw(st.integers(0, m - 1))
        x[a] = 0.0
        A[j] = 0.0
        A[j, a, a] = draw(st.floats(0.5, 4.0))
    return PsdFamilySip(A, validate=False), x, draw(st.integers(0, 2**32 - 1))


@st.composite
def multiplication_pairs(draw):
    """(T, x, seed): a multiplication sip on R^n, n <= 12, and x with some zero coordinates."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-10.0, 10.0, n)
    x[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0
    return MultiplicationSip(n), x, draw(st.integers(0, 2**32 - 1))


def _padded_stack(pairs):
    """The pairs' families, x and g = default_rng(seed).standard_normal(m), zero-padded."""
    k = len(pairs)
    m_top = max(T.domain_dim for T, _, _ in pairs)
    n_top = max(T.codomain_dim for T, _, _ in pairs)
    X, G = np.zeros((k, m_top)), np.zeros((k, m_top))
    A = None if isinstance(pairs[0][0], MultiplicationSip) else np.zeros((k, n_top, m_top, m_top))
    for i, (T, x, seed) in enumerate(pairs):
        m = T.domain_dim
        X[i, :m] = x
        G[i, :m] = np.random.default_rng(seed).standard_normal(m)
        if A is not None:
            A[i, :T.codomain_dim, :m, :m] = T.matrices
    return A, X, G, [T.domain_dim for T, _, _ in pairs]


def _assert_each_pair_alone(pairs):
    A, X, G, dims = _padded_stack(pairs)
    Y, status = orthogonal_stack(A, X, G, dims=dims)
    for i, pair in enumerate(pairs):
        m = pair[0].domain_dim
        y, alone = orthogonal_stack(*_padded_stack([pair])[:3])
        assert status[i] == alone[0], i
        if status[i] == ORTHOGONAL:
            assert Y[i, :m].tobytes() == y[0].tobytes(), i
            assert not Y[i, m:].any()


@SETTINGS
@given(st.lists(psd_pairs(), min_size=1, max_size=40))
def test_a_stack_gives_each_psd_pair_its_bits_alone(pairs):
    _assert_each_pair_alone(pairs)


@SETTINGS
@given(st.lists(multiplication_pairs(), min_size=1, max_size=40))
def test_a_stack_gives_each_multiplication_pair_its_bits_alone(pairs):
    _assert_each_pair_alone(pairs)


def test_rank_deficient_rows_leave_a_larger_kernel():
    # a zero member and a member that x lies in the kernel of give no
    # pivot: with n = 2 of m = 3, the kernel is all of R^3, and y is g
    A = np.zeros((2, 3, 3))
    A[1, 0, 0] = 2.0
    x = np.array([0.0, 1.0, -2.0])
    Y, status = orthogonal_stack(*_padded_stack([(PsdFamilySip(A, validate=False), x, 5)])[:3])
    g = np.random.default_rng(5).standard_normal(3)
    assert status[0] == ORTHOGONAL
    assert Y[0].tobytes() == (g / np.abs(g).max()).tobytes()


def test_generated_pairs_are_orthogonal_at_larger_shapes():
    # |T(x, y)| <= 1e-10 * max(1, |x|) for every generated pair, the scale
    # of y included, at m <= 12, n <= 8
    config = TrialConfig(seed=11, trials=600, m_lo=1, m_hi=12, n_lo=1, n_hi=8)
    kinds = set()
    for inst in chain.from_iterable(harness._chunks(config, "orthogonal")):
        kinds.add(inst.kind)
        resid = np.abs(inst.sip.eval(inst.x, inst.y)).max()
        assert resid <= 1e-10 * max(1.0, np.abs(inst.x).max())
    assert kinds == {"psd_family", "multiplication"}


def test_the_kernel_uses_no_blas_lapack_matmul_or_einsum():
    # so the pairs' bits do not follow the machine's BLAS and LAPACK kernels
    banned = {"linalg", "matmul", "einsum", "dot", "tensordot", "inner", "vdot"}
    for fn in (sip._kernel_rows, sip._eliminate, sip.orthogonal_stack):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.MatMult), fn.__name__
            if isinstance(node, ast.Attribute):
                assert node.attr not in banned, (fn.__name__, node.attr)
