import numpy as np
import pytest

from riesz_sip.cauchy_schwarz import Gram
from riesz_sip.lattice import (
    DimensionMismatch,
    NotInPositiveCone,
    rel_residual,
)
from riesz_sip.harness import PRECOND_TOL
from riesz_sip.seminorms import (
    CHAIN_FLOOR,
    additivity_verdict,
    orthogonality,
    parallelogram_sides,
    pythagoras_sides,
    seminorm_residuals,
    sharp_verdict,
)
from riesz_sip.sip import (
    ORTHOGONAL,
    MultiplicationSip,
    PsdFamilySip,
    orthogonal_stack,
    random_psd,
)

WORKED_TOL = 1e-10


DOT = PsdFamilySip([np.eye(2)])


def _mult(x, y, u=None):
    """The record of (x, y) under the multiplication sip, weighted by u or ones."""
    n = len(x)
    return Gram(MultiplicationSip(n), x, y, np.ones(n) if u is None else u)


def norm(T, u, x):
    """norm_u(x) = T(x,x) [*] u."""
    return Gram(T, x, x, u).norm_x


def triangle_residual(T, u, x, y):
    """Slack norm(x) + norm(y) - norm(x+y), in F+ when the axioms hold."""
    sx, sy, sxy = Gram(T, x, y, u).norms("norm_x", "norm_y", "norm_sum")
    return sx + sy - sxy


def seminorm_sq(T, u, x):
    """T(x,x)*u, the f-algebra square of norm(T, u, x)."""
    g = Gram(T, x, x, u)
    return g.a * g.u


def pythagoras_residual(g):
    """lhs - rhs of the Pythagorean identity at an orthogonal pair."""
    assert orthogonality(g) <= PRECOND_TOL
    return np.subtract(*pythagoras_sides(g))


def parallelogram_residual(g):
    """lhs - rhs of the parallelogram law."""
    return np.subtract(*parallelogram_sides(g))


def test_weight_validation_on_read():
    x = np.array([1.0, 2.0])
    with pytest.raises(NotInPositiveCone):
        Gram(MultiplicationSip(2), x, x, np.array([1.0, -1.0])).u
    with pytest.raises(DimensionMismatch):
        Gram(MultiplicationSip(2), x, x, np.ones(3)).u
    # tiny negative weight entries clamp to zero
    g = Gram(MultiplicationSip(2), x, x, np.array([1.0, -1e-13]))
    assert np.array_equal(g.u, [1.0, 0.0])


def test_seminorm_examples():
    assert np.array_equal(norm(MultiplicationSip(2), np.ones(2), [3.0, 4.0]), [3.0, 4.0])
    assert np.array_equal(norm(DOT, [1.0], [3.0, 4.0]), [5.0])
    assert np.array_equal(norm(DOT, [4.0], [3.0, 4.0]), [10.0])


def test_seminorm_sq_examples():
    assert np.array_equal(seminorm_sq(MultiplicationSip(2), np.ones(2), [1.0, 2.0]), [1.0, 4.0])
    assert np.array_equal(seminorm_sq(DOT, [1.0], [3.0, 4.0]), [25.0])
    degenerate = PsdFamilySip([np.diag([1.0, 0.0])])
    assert np.array_equal(seminorm_sq(degenerate, np.array([1.0]), [0.0, 7.0]), [0.0])


def test_square_contract():
    rng = np.random.default_rng(40)
    T, u = random_psd(np.random.default_rng(1), 4, 3), np.array([2.0, 0.5, 7.0])
    for _ in range(100):
        x = rng.uniform(-10, 10, 4)
        s = norm(T, u, x)
        assert rel_residual(s * s, seminorm_sq(T, u, x)) <= 1e-10


def test_vsn_axioms_pass():
    rng = np.random.default_rng(41)
    weighted = [(MultiplicationSip(3), np.array([1.0, 0.0, 5.0]))]
    for trial in range(5):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        weighted.append((random_psd(np.random.default_rng(trial), m, n),
                         rng.uniform(0, 10, n)))
    for T, u in weighted:
        for _ in range(200):
            x = rng.uniform(-10, 10, T.domain_dim)
            y = rng.uniform(-10, 10, T.domain_dim)
            res = seminorm_residuals(Gram(T, x, y, u))
            assert set(res) == {"positivity", "homogeneity", "triangle", "square"}
            assert max(res.values()) <= 1e-9, res


def test_zero_and_negation_are_exact():
    T, u = random_psd(np.random.default_rng(2), 3, 2), np.array([1.0, 3.0])
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = rng.uniform(-10, 10, 3)
        assert np.array_equal(norm(T, u, 0.0 * x), [0.0, 0.0])
        assert np.array_equal(norm(T, u, -x), norm(T, u, x))


def test_triangle_residual_examples():
    got = triangle_residual(DOT, [1.0], [1.0, 0.0], [0.0, 1.0])
    assert abs(got[0] - (2.0 - np.sqrt(2.0))) <= 1e-12
    x = np.array([1.0, -2.0, 0.5])
    T, u = random_psd(np.random.default_rng(3), 3, 2), np.array([1.0, 2.0])
    assert np.max(np.abs(triangle_residual(T, u, x, 2.0 * x))) <= 1e-12
    got = triangle_residual(MultiplicationSip(2), [1.0, 4.0], [1.0, 2.0], [3.0, 0.5])
    assert np.max(np.abs(got)) <= 1e-12


def test_triangle_residual_in_cone():
    rng = np.random.default_rng(43)
    for trial in range(100):
        T, u = random_psd(np.random.default_rng(trial), 3, 2), rng.uniform(0, 10, 2)
        x = rng.uniform(-10, 10, 3)
        y = rng.uniform(-10, 10, 3)
        r = triangle_residual(T, u, x, y)
        scale = float(np.max(norm(T, u, x) + norm(T, u, y))) + 1e-10
        assert np.min(r) >= -1e-10 * scale


def test_sharpened_triangle_equality_example():
    g = _mult([1.0, 2.0], [2.0, 1.0])
    got = sharp_verdict(g)
    assert np.max(np.abs(g.lhs_sq - [9.0, 9.0])) <= WORKED_TOL
    assert np.max(np.abs(g.middle - [9.0, 9.0])) <= WORKED_TOL
    assert np.max(np.abs(g.rhs_sq - [9.0, 9.0])) <= WORKED_TOL
    assert got.chain <= CHAIN_FLOOR
    assert got.equality_holds
    assert got.condition_holds
    assert not got.borderline


def test_sharpened_triangle_strict_example():
    g = _mult([1.0, 1.0], [-1.0, 1.0])
    got = sharp_verdict(g)
    assert np.max(np.abs(g.lhs_sq - [0.0, 4.0])) <= WORKED_TOL
    assert np.max(np.abs(g.middle - [4.0, 4.0])) <= WORKED_TOL
    assert np.max(np.abs(g.rhs_sq - [4.0, 4.0])) <= WORKED_TOL
    assert got.chain <= CHAIN_FLOOR
    assert not got.equality_holds
    assert not got.condition_holds
    assert not got.borderline
    # the cone condition fails because T(x,y)*u = (-1, 1) has a negative entry
    assert np.array_equal(
        Gram(MultiplicationSip(2), [1.0, 1.0], [-1.0, 1.0]).b * np.ones(2),
        [-1.0, 1.0])


def test_sharpened_triangle_orthogonal_example():
    g = Gram(DOT, [1.0, 0.0], [0.0, 1.0], [1.0])
    got = sharp_verdict(g)
    assert np.max(np.abs(g.lhs_sq - [2.0])) <= WORKED_TOL
    assert np.max(np.abs(g.middle - [2.0])) <= WORKED_TOL
    assert np.max(np.abs(g.rhs_sq - [4.0])) <= WORKED_TOL
    assert got.chain <= CHAIN_FLOOR
    assert got.equality_holds
    assert got.condition_holds
    assert not got.borderline


def test_sharpened_triangle_random_chain():
    rng = np.random.default_rng(44)
    for trial in range(200):
        if trial % 2 == 0:
            sip = random_psd(np.random.default_rng(trial), int(rng.integers(1, 7)),
                             int(rng.integers(1, 5)))
        else:
            sip = MultiplicationSip(int(rng.integers(1, 7)))
        u = rng.uniform(0, 10, sip.codomain_dim)
        x = rng.uniform(-10, 10, sip.domain_dim)
        y = rng.uniform(-10, 10, sip.domain_dim)
        got = sharp_verdict(Gram(sip, x, y, u))
        assert got.chain <= CHAIN_FLOOR
        if not got.borderline:
            assert got.equality_holds == got.condition_holds


def test_sharpened_triangle_borderline_flag():
    # engineered tiny cone violation: T(x,y)*u = (-5e-9, 1) against scale 4
    got = sharp_verdict(_mult([1.0, 1.0], [-5e-9, 1.0]))
    assert got.borderline


def test_additivity_examples():
    x = np.array([0.5, 2.0])
    got = additivity_verdict(_mult(x, 2.0 * x))
    assert (got.additive, got.condition_pos, got.condition_defect_zero) == (True, True, True)
    assert not got.borderline

    got = additivity_verdict(Gram(DOT, [1.0, 0.0], [0.0, 1.0], [1.0]))
    assert (got.additive, got.condition_pos, got.condition_defect_zero) == (False, True, False)
    assert not got.borderline

    got = additivity_verdict(_mult([1.0, 0.0], [-1.0, 0.0]))
    assert (got.additive, got.condition_pos, got.condition_defect_zero) == (False, False, True)
    assert not got.borderline


def test_additivity_biconditional_random():
    rng = np.random.default_rng(45)
    for trial in range(300):
        if trial % 2 == 0:
            sip = random_psd(np.random.default_rng(trial), int(rng.integers(1, 7)),
                             int(rng.integers(1, 5)))
        else:
            sip = MultiplicationSip(int(rng.integers(1, 7)))
        u = rng.uniform(0, 10, sip.codomain_dim)
        x = rng.uniform(-10, 10, sip.domain_dim)
        y = x * rng.uniform(0, 3) if trial % 4 == 0 else rng.uniform(-10, 10, sip.domain_dim)
        got = additivity_verdict(Gram(sip, x, y, u))
        if not got.borderline:
            assert got.additive == (got.condition_pos and got.condition_defect_zero)


def test_pythagoras_examples():
    got = pythagoras_residual(_mult([1.0, 0.0], [0.0, 2.0]))
    assert np.array_equal(got, [0.0, 0.0])
    got = pythagoras_residual(Gram(DOT, [1.0, 0.0], [0.0, 1.0], [1.0]))
    assert np.max(np.abs(got)) <= 1e-12
    got = pythagoras_residual(Gram(DOT, [3.0, 4.0], [0.0, 0.0], [1.0]))
    assert np.array_equal(got, [0.0])


def test_pythagoras_rejects_non_orthogonal():
    g = Gram(DOT, [1.0, 0.0], [1.0, 1.0], [1.0])
    assert orthogonality(g) > PRECOND_TOL


def test_pythagoras_random_orthogonal_pairs():
    rng = np.random.default_rng(46)
    for trial in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, m))
        sip = random_psd(np.random.default_rng(trial), m, n)
        u = rng.uniform(0, 10, n)
        x = rng.uniform(-10, 10, m)
        g = np.random.default_rng(trial).standard_normal(m)
        Y, status = orthogonal_stack(sip.matrices[None], x[None], g[None])
        assert status[0] == ORTHOGONAL
        y = Y[0] * rng.uniform(0.1, 10)
        r = pythagoras_residual(Gram(sip, x, y, u))
        scale = float(np.max(norm(sip, u, x) + norm(sip, u, y))) + 1e-10
        assert np.max(np.abs(r)) <= 1e-9 * scale


def test_parallelogram_examples():
    got = parallelogram_residual(Gram(DOT, [1.0, 0.0], [0.0, 1.0], [1.0]))
    assert np.max(np.abs(got)) <= 1e-12
    rng = np.random.default_rng(47)
    T, u = random_psd(np.random.default_rng(4), 3, 2), np.array([1.0, 5.0])
    for _ in range(20):
        x = rng.uniform(-10, 10, 3)
        assert np.max(np.abs(parallelogram_residual(Gram(T, x, x, u)))) <= 1e-12


def test_parallelogram_random():
    rng = np.random.default_rng(48)
    for trial in range(200):
        if trial % 2 == 0:
            sip = random_psd(np.random.default_rng(trial), int(rng.integers(1, 7)),
                             int(rng.integers(1, 5)))
        else:
            sip = MultiplicationSip(int(rng.integers(1, 7)))
        u = rng.uniform(0, 10, sip.codomain_dim)
        x = rng.uniform(-10, 10, sip.domain_dim)
        y = rng.uniform(-10, 10, sip.domain_dim)
        r = parallelogram_residual(Gram(sip, x, y, u))
        scale = float(np.max(norm(sip, u, x) + norm(sip, u, y))) + 1e-10
        assert np.max(np.abs(r)) <= 1e-9 * scale


def test_zero_weight_degenerates_everything():
    T, u = random_psd(np.random.default_rng(5), 3, 2), np.zeros(2)
    rng = np.random.default_rng(49)
    x = rng.uniform(-10, 10, 3)
    y = rng.uniform(-10, 10, 3)
    assert np.array_equal(norm(T, u, x), [0.0, 0.0])
    assert np.array_equal(triangle_residual(T, u, x, y), [0.0, 0.0])
    got = sharp_verdict(Gram(T, x, y, u))
    assert got.chain <= CHAIN_FLOOR and got.equality_holds and got.condition_holds
    add = additivity_verdict(Gram(T, x, y, u))
    assert add.additive and add.condition_pos and add.condition_defect_zero
    assert np.array_equal(parallelogram_residual(Gram(T, x, y, u)), [0.0, 0.0])


def test_list_inputs_are_coerced():
    # plain Python lists must behave like arrays, not concatenate
    got = parallelogram_residual(Gram(DOT, [1.0, 0.0], [0.0, 1.0], [1.0]))
    assert got.shape == (1,)
    assert sharp_verdict(_mult([1.0, 2.0], [2.0, 1.0])).chain <= CHAIN_FLOOR
