import numpy as np
import pytest

from riesz_sip.cauchy_schwarz import Gram
from riesz_sip.lattice import DimensionMismatch, NonFinite, in_positive_cone
from riesz_sip.sip import (
    ORTHOGONAL,
    OVERFLOW,
    TRIVIAL_KERNEL,
    MultiplicationSip,
    PsdFamilySip,
    check_axioms,
    orthogonal_stack,
    random_psd,
)

AXIOM_TOL = 1e-9


def test_multiplication_sip_eval():
    T = MultiplicationSip(2)
    assert np.array_equal(Gram(T, [1.0, 2.0], [3.0, 1.0]).b, [3.0, 2.0])
    assert np.array_equal(Gram(T, [1.0, -2.0], [1.0, -2.0]).b, [1.0, 4.0])
    assert T.domain_dim == 2
    assert T.codomain_dim == 2
    with pytest.raises(ValueError):
        MultiplicationSip(0)


def test_psd_family_sip_eval():
    # T(x, y)_1 = x . y and T(x, y)_2 = x_1 y_1 via A_1 = I, A_2 = diag(1, 0)
    T = PsdFamilySip([np.eye(2), np.diag([1.0, 0.0])])
    assert np.array_equal(Gram(T, [1.0, 2.0], [3.0, 1.0]).b, [5.0, 3.0])
    assert np.array_equal(Gram(T, [0.0, 1.0], [0.0, 1.0]).b, [1.0, 0.0])
    assert T.domain_dim == 2
    assert T.codomain_dim == 2


def test_psd_family_allows_degenerate_members():
    # T(x, x) = 0 for x = e_2 even though x != 0: semi-inner, not inner
    T = PsdFamilySip([np.diag([1.0, 0.0])])
    assert np.array_equal(Gram(T, [0.0, 1.0], [0.0, 1.0]).b, [0.0])
    assert max(check_axioms(T, samples=500, seed=7).values()) <= AXIOM_TOL


def test_eval_batch_matches_eval():
    rng = np.random.default_rng(20)
    T = random_psd(np.random.default_rng(1), 4, 3)
    X = rng.uniform(-10, 10, (32, 4))
    Y = rng.uniform(-10, 10, (32, 4))
    batch = T.eval_batch(X, Y)
    assert batch.shape == (32, 3)
    for s in range(32):
        assert np.allclose(batch[s], T.eval(X[s], Y[s]), rtol=1e-12, atol=1e-12)


def test_psd_family_validation():
    with pytest.raises(ValueError):
        PsdFamilySip([[[0.0, 1.0], [0.0, 0.0]]])  # asymmetric
    with pytest.raises(ValueError):
        PsdFamilySip([-np.eye(2)])  # negative definite
    with pytest.raises(ValueError, match="matrix 1 "):
        PsdFamilySip([np.eye(2), np.diag([1.0, -1.0])])  # second member indefinite
    with pytest.raises(DimensionMismatch):
        PsdFamilySip(np.zeros((2, 3, 4)))  # non-square members
    with pytest.raises(NonFinite):
        PsdFamilySip([[[np.inf]]])  # non-finite; Instance.from_dict refuses it on load
    # the fault-injection path builds anything square
    broken = PsdFamilySip([[[0.0, 1.0], [0.0, 0.0]]], validate=False)
    assert np.array_equal(Gram(broken, [1.0, 0.0], [0.0, 1.0]).b, [1.0])
    assert np.array_equal(Gram(broken, [0.0, 1.0], [1.0, 0.0]).b, [0.0])
    # eigenvalues inside the floor are admitted with validation on
    PsdFamilySip([np.diag([1.0, -1e-12])])


def test_check_axioms_passes_for_multiplication():
    residuals = check_axioms(MultiplicationSip(3), samples=1000, seed=0)
    assert max(residuals.values()) <= 1e-10
    assert set(residuals) == {
        "additivity_left", "additivity_right", "homogeneity_left",
        "homogeneity_right", "symmetry", "positivity",
    }


def test_check_axioms_passes_for_random_psd_families():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        T = random_psd(np.random.default_rng(int(rng.integers(2**32))), m, n)
        residuals = check_axioms(T, samples=200, seed=3)
        assert max(residuals.values()) <= AXIOM_TOL, residuals


def test_check_axioms_catches_asymmetry():
    broken = PsdFamilySip([[[0.0, 1.0], [0.0, 0.0]]], validate=False)
    residuals = check_axioms(broken, samples=200, seed=0)
    failed = {k for k, v in residuals.items() if v > AXIOM_TOL}
    assert "symmetry" in failed


def test_check_axioms_catches_negativity():
    broken = PsdFamilySip([-np.eye(2)], validate=False)
    residuals = check_axioms(broken, samples=200, seed=0)
    failed = {k for k, v in residuals.items() if v > AXIOM_TOL}
    assert "positivity" in failed
    assert np.array_equal(Gram(broken, [1.0, 0.0], [1.0, 0.0]).b, [-1.0])


def test_check_axioms_is_deterministic():
    T = random_psd(np.random.default_rng(5), 3, 2)
    r1 = check_axioms(T, samples=100, seed=9)
    r2 = check_axioms(T, samples=100, seed=9)
    assert r1 == r2
    with pytest.raises(ValueError):
        check_axioms(T, samples=0)


def test_random_psd_is_deterministic_and_psd():
    T1 = random_psd(np.random.default_rng(11), 4, 3)
    T2 = random_psd(np.random.default_rng(11), 4, 3)
    assert np.array_equal(T1.matrices, T2.matrices)
    assert not np.array_equal(T1.matrices, random_psd(np.random.default_rng(12), 4, 3).matrices)
    for Aj in T1.matrices:
        assert np.array_equal(Aj, Aj.T)
        assert np.min(np.linalg.eigvalsh(Aj)) >= -1e-12
    rng = np.random.default_rng(22)
    for _ in range(100):
        x = rng.uniform(-10, 10, 4)
        assert in_positive_cone(T1.eval(x, x), tol=1e-10)


def _one_pair(T, x, seed):
    """orthogonal_stack of one pair: y, built from default_rng(seed)'s normal draws, and its status."""
    x = np.asarray(x, dtype=np.float64)
    A = None if isinstance(T, MultiplicationSip) else T.matrices[None]
    g = np.random.default_rng(seed).standard_normal(T.domain_dim)
    Y, status = orthogonal_stack(A, x[None], g[None])
    return Y[0], status[0]


def test_orthogonal_sample_multiplication():
    T = MultiplicationSip(2)
    y, status = _one_pair(T, [1.0, 0.0], 0)
    assert status == ORTHOGONAL
    assert np.array_equal(np.abs(y), [0.0, 1.0])
    assert np.array_equal(Gram(T, [1.0, 0.0], y).b, [0.0, 0.0])
    # full support leaves no nonzero orthogonal vector
    assert _one_pair(T, [1.0, 2.0], 0)[1] == TRIVIAL_KERNEL


def test_orthogonal_sample_psd():
    T = PsdFamilySip([np.eye(2)])
    y, status = _one_pair(T, [1.0, 0.0], 0)
    assert status == ORTHOGONAL
    assert np.array_equal(np.abs(y), [0.0, 1.0])
    rng = np.random.default_rng(23)
    for trial in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, m))  # m > n so the kernel is nontrivial
        T = random_psd(np.random.default_rng(trial), m, n)
        x = rng.uniform(-10, 10, m)
        y, status = _one_pair(T, x, trial)
        assert status == ORTHOGONAL
        assert np.max(np.abs(y)) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(T.eval(x, y))) <= 1e-10 * max(1.0, np.max(np.abs(x)))


def test_orthogonal_sample_trivial_kernel():
    # generically m <= n has only the zero solution
    T = random_psd(np.random.default_rng(4), 2, 3)
    assert _one_pair(T, [1.0, 2.0], 0)[1] == TRIVIAL_KERNEL


def test_orthogonal_sample_rejects_nonfinite_kernel_rows():
    # x and the family are finite, but the rows x' A_j overflow
    T = PsdFamilySip([1e300 * np.eye(3)])
    assert _one_pair(T, [1e10, 0.0, 0.0], 0)[1] == OVERFLOW
