import numpy as np
import pytest

from riesz_sip.lattice import DimensionMismatch, in_positive_cone
from riesz_sip.sip import (
    MultiplicationSip,
    NoNontrivialOrthogonal,
    PsdFamilySip,
    check_axioms,
    random_psd,
    orthogonal_sample,
    sip_eval,
    sip_from_dict,
    sip_to_dict,
)

AXIOM_TOL = 1e-9


def test_multiplication_sip_eval():
    T = MultiplicationSip(2)
    assert np.array_equal(sip_eval(T, [1.0, 2.0], [3.0, 1.0]), [3.0, 2.0])
    assert np.array_equal(sip_eval(T, [1.0, -2.0], [1.0, -2.0]), [1.0, 4.0])
    assert T.domain_dim == 2
    assert T.codomain_dim == 2
    with pytest.raises(ValueError):
        MultiplicationSip(0)


def test_psd_family_sip_eval():
    # T(x, y)_1 = x . y and T(x, y)_2 = x_1 y_1 via A_1 = I, A_2 = diag(1, 0)
    T = PsdFamilySip([np.eye(2), np.diag([1.0, 0.0])])
    assert np.array_equal(sip_eval(T, [1.0, 2.0], [3.0, 1.0]), [5.0, 3.0])
    assert np.array_equal(sip_eval(T, [0.0, 1.0], [0.0, 1.0]), [1.0, 0.0])
    assert T.domain_dim == 2
    assert T.codomain_dim == 2


def test_psd_family_allows_degenerate_members():
    # T(x, x) = 0 for x = e_2 even though x != 0: semi-inner, not inner
    T = PsdFamilySip([np.diag([1.0, 0.0])])
    assert np.array_equal(sip_eval(T, [0.0, 1.0], [0.0, 1.0]), [0.0])
    assert check_axioms(T, samples=500, seed=7).passed


def test_eval_batch_matches_eval():
    rng = np.random.default_rng(20)
    T = random_psd(np.random.default_rng(1), 4, 3)
    X = rng.uniform(-10, 10, (32, 4))
    Y = rng.uniform(-10, 10, (32, 4))
    batch = T.eval_batch(X, Y)
    assert batch.shape == (32, 3)
    for s in range(32):
        assert np.allclose(batch[s], T.eval(X[s], Y[s]), rtol=1e-12, atol=1e-12)


def test_sip_eval_checks_dimensions():
    T = MultiplicationSip(2)
    with pytest.raises(DimensionMismatch):
        sip_eval(T, [1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        sip_eval(T, [1.0, np.nan], [1.0, 2.0])


def test_psd_family_validation():
    with pytest.raises(ValueError):
        PsdFamilySip([[[0.0, 1.0], [0.0, 0.0]]])  # asymmetric
    with pytest.raises(ValueError):
        PsdFamilySip([-np.eye(2)])  # negative definite
    with pytest.raises(DimensionMismatch):
        PsdFamilySip(np.zeros((2, 3, 4)))  # non-square members
    with pytest.raises(ValueError):
        PsdFamilySip([[[np.inf]]], validate=False)  # non-finite never loads
    # the fault-injection path loads anything finite and square
    broken = PsdFamilySip([[[0.0, 1.0], [0.0, 0.0]]], validate=False)
    assert np.array_equal(sip_eval(broken, [1.0, 0.0], [0.0, 1.0]), [1.0])
    assert np.array_equal(sip_eval(broken, [0.0, 1.0], [1.0, 0.0]), [0.0])
    # eigenvalues inside the floor are admitted with validation on
    PsdFamilySip([np.diag([1.0, -1e-12])])


def test_check_axioms_passes_for_multiplication():
    report = check_axioms(MultiplicationSip(3), samples=1000, seed=0)
    assert report.passed
    assert report.samples == 1000
    assert max(report.residuals.values()) <= 1e-10
    assert set(report.residuals) == {
        "additivity_left", "additivity_right", "homogeneity_left",
        "homogeneity_right", "symmetry", "positivity",
    }


def test_check_axioms_passes_for_random_psd_families():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        T = random_psd(np.random.default_rng(int(rng.integers(2**32))), m, n)
        report = check_axioms(T, samples=200, seed=3)
        assert report.passed, report.residuals
        assert max(report.residuals.values()) <= AXIOM_TOL


def test_check_axioms_catches_asymmetry():
    broken = PsdFamilySip([[[0.0, 1.0], [0.0, 0.0]]], validate=False)
    report = check_axioms(broken, samples=200, seed=0)
    assert not report.passed
    failed = {k for k, v in report.residuals.items() if v > report.tol}
    assert "symmetry" in failed


def test_check_axioms_catches_negativity():
    broken = PsdFamilySip([-np.eye(2)], validate=False)
    report = check_axioms(broken, samples=200, seed=0)
    assert not report.passed
    failed = {k for k, v in report.residuals.items() if v > report.tol}
    assert "positivity" in failed
    assert np.array_equal(sip_eval(broken, [1.0, 0.0], [1.0, 0.0]), [-1.0])


def test_check_axioms_is_deterministic():
    T = random_psd(np.random.default_rng(5), 3, 2)
    r1 = check_axioms(T, samples=100, seed=9).residuals
    r2 = check_axioms(T, samples=100, seed=9).residuals
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


def test_orthogonal_sample_multiplication():
    T = MultiplicationSip(2)
    y = orthogonal_sample(T, [1.0, 0.0], seed=0)
    assert np.array_equal(np.abs(y), [0.0, 1.0])
    assert np.array_equal(sip_eval(T, [1.0, 0.0], y), [0.0, 0.0])
    # full support leaves no nonzero orthogonal vector
    with pytest.raises(NoNontrivialOrthogonal):
        orthogonal_sample(T, [1.0, 2.0], seed=0)


def test_orthogonal_sample_psd():
    T = PsdFamilySip([np.eye(2)])
    y = orthogonal_sample(T, [1.0, 0.0], seed=0)
    assert np.array_equal(np.abs(y), [0.0, 1.0])
    rng = np.random.default_rng(23)
    for trial in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, m))  # m > n so the kernel is nontrivial
        T = random_psd(np.random.default_rng(trial), m, n)
        x = rng.uniform(-10, 10, m)
        y = orthogonal_sample(T, x, seed=trial)
        assert np.max(np.abs(y)) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(T.eval(x, y))) <= 1e-10 * max(1.0, np.max(np.abs(x)))


def test_orthogonal_sample_trivial_kernel():
    # generically m <= n has only the zero solution
    T = random_psd(np.random.default_rng(4), 2, 3)
    with pytest.raises(NoNontrivialOrthogonal):
        orthogonal_sample(T, [1.0, 2.0], seed=0)


def test_serialization_round_trip():
    T = random_psd(np.random.default_rng(6), 3, 2)
    d = sip_to_dict(T)
    assert d["kind"] == "psd_family"
    assert d["m"] == 3 and d["n"] == 2
    back = sip_from_dict(d)
    assert np.array_equal(back.matrices, T.matrices)

    M = MultiplicationSip(4)
    d2 = sip_to_dict(M)
    assert d2 == {"kind": "multiplication", "m": 4, "n": 4}
    assert sip_from_dict(d2).dim == 4


def test_deserialization_never_validates():
    # a broken family must load so the axiom checker can flag it
    d = {"kind": "psd_family", "m": 2, "n": 1,
         "matrices": [[[0.0, 1.0], [0.0, 0.0]]]}
    broken = sip_from_dict(d)
    assert not check_axioms(broken, samples=100, seed=0).passed


def test_deserialization_validation_errors():
    with pytest.raises(DimensionMismatch):
        sip_from_dict({"kind": "multiplication", "m": 2, "n": 3})
    with pytest.raises(DimensionMismatch):
        sip_from_dict({"kind": "psd_family", "m": 2, "n": 2,
                       "matrices": [[[1.0]]]})
    with pytest.raises(ValueError):
        sip_from_dict({"kind": "something_else", "m": 1, "n": 1})
