import numpy as np
import pytest

from riesz_sip import cauchy_schwarz
from riesz_sip.cauchy_schwarz import (
    INEQ_FLOOR,
    LAMBDA_COUNT,
    LAMBDA_HI,
    LAMBDA_LO,
    Gram,
    GramStack,
    cs_identity,
    cs_verdict,
    defect_grid,
    lambda_minima,
)
from riesz_sip.lattice import DimensionMismatch, NonFinite, NotInPositiveCone, rel_residual
from riesz_sip.means import LogGrid, box_times
from riesz_sip.sip import MultiplicationSip, PsdFamilySip, random_psd

GRID_GAP_REL_TOL = 1e-4  # frozen for the default 2001-point grid on [1e-6, 1e6]
LAMBDA = LogGrid.log_spaced(LAMBDA_LO, LAMBDA_HI, LAMBDA_COUNT)


def _scale(T, x, y):
    g = Gram(T, x, y)
    a, c = g.a, g.c
    return float(max(np.max(np.abs(a)), np.max(np.abs(c)), 1e-10))


def test_gram_checks_dimensions():
    T = MultiplicationSip(2)
    with pytest.raises(DimensionMismatch):
        Gram(T, [1.0, 2.0, 3.0], [1.0, 2.0]).a
    with pytest.raises(ValueError):
        Gram(T, [1.0, np.nan], [1.0, 2.0]).a


def test_gram_validates_and_evaluates_on_first_read():
    T = MultiplicationSip(2)
    # a broken weight spoils only the values that read it
    g = Gram(T, [1.0, 2.0], [3.0, -1.0], [1.0, -1.0])
    assert np.array_equal(g.a, [1.0, 4.0]) and np.array_equal(g.b, [3.0, -2.0])
    assert np.array_equal(g.c, [9.0, 1.0]) and np.array_equal(g.defect, [0.0, 0.0])
    assert cs_verdict(g).identity == 0.0
    for _ in range(2):  # a value that raises is not kept
        with pytest.raises(NotInPositiveCone):
            g.norm_x
    with pytest.raises(ValueError, match="no weight"):
        Gram(T, [1.0, 2.0], [3.0, -1.0]).norm_x
    # a broken x fails its first reader, not the construction
    g = Gram(T, [1.0, 2.0, 3.0], [3.0, -1.0], [1.0, 1.0])
    assert np.array_equal(g.u, [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        g.a


def test_cone_error_names_the_entry_and_its_own_rows_floor():
    # a = T(x,x) = -14 and c = T(y,y) = -26 under the negative form; the
    # floor is the row's rounding floor 1e-9 * (|a| + |c|) + 1e-12
    T = PsdFamilySip(-np.eye(3)[None], validate=False)
    broken = Gram(T, [1.0, 2.0, 3.0], [1.0, 3.0, 4.0])
    valid = Gram(PsdFamilySip(np.eye(3)[None]), [100.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    floor = 1e-9 * (14.0 + 26.0) + 1e-12
    for g in (broken, GramStack([valid, broken, valid])):
        with pytest.raises(NotInPositiveCone) as info:
            cs_identity(g)
        message = str(info.value)
        assert "[" not in message
        assert f"entry -14.0 is below -{floor}" in message


def test_defect_closed_vanishes_for_multiplication():
    T = MultiplicationSip(2)
    assert np.array_equal(Gram(T, [1.0, 2.0], [3.0, 1.0]).defect, [0.0, 0.0])
    rng = np.random.default_rng(30)
    for _ in range(100):
        x = rng.uniform(-10, 10, 2)
        y = rng.uniform(-10, 10, 2)
        d = Gram(T, x, y).defect
        assert np.max(np.abs(d)) <= 1e-14 * _scale(T, x, y)


def test_defect_closed_orthonormal_dot_pair():
    # dot product, orthonormal pair: a = c = 1, b = 0, defect exactly 2
    T = PsdFamilySip([np.eye(2)])
    assert np.array_equal(Gram(T, [1.0, 0.0], [0.0, 1.0]).defect, [2.0])


def test_defect_grid_orthonormal_dot_pair():
    # the default grid contains lambda = 1 exactly, where
    # T(x - y, x - y) = 2 is the true minimum
    T = PsdFamilySip([np.eye(2)])
    got = defect_grid(T, [1.0, 0.0], [0.0, 1.0], LAMBDA)
    assert abs(got[0] - 2.0) <= 1e-6
    assert got[0] >= 2.0


def test_defect_grid_colinear_pair():
    # y = 2x: the infimum 0 is attained at lambda = 2, which we place on
    # the grid exactly
    T = PsdFamilySip([np.eye(2), np.diag([1.0, 0.0])])
    x = np.array([1.0, 2.0])
    grid = LogGrid(np.array([0.5, 1.0, 2.0, 4.0]))
    got = defect_grid(T, x, 2.0 * x, grid=grid)
    assert np.max(np.abs(got)) <= 1e-8
    assert np.max(np.abs(Gram(T, x, 2.0 * x).defect)) <= 1e-8


def test_defect_grid_multiplication_near_zero():
    # closed form is identically 0 here, so the grid value is the gap
    T = MultiplicationSip(3)
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = rng.uniform(-10, 10, 3)
        y = rng.uniform(-10, 10, 3)
        got = defect_grid(T, x, y, LAMBDA)
        assert np.max(np.abs(got)) <= 1e-4 * _scale(T, x, y)


def test_defect_sandwich_and_gap():
    rng = np.random.default_rng(32)
    for trial in range(150):
        if trial % 2 == 0:
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 5))
            T = random_psd(np.random.default_rng(trial), m, n)
        else:
            m = int(rng.integers(1, 7))
            T = MultiplicationSip(m)
        x = rng.uniform(-10, 10, T.domain_dim)
        y = rng.uniform(-10, 10, T.domain_dim)
        closed = Gram(T, x, y).defect
        grid = defect_grid(T, x, y, LAMBDA)
        scale = max(np.max(closed), np.max(grid), _scale(T, x, y))
        assert np.min(grid - closed) >= -1e-10 * scale  # grid >= closed
        assert np.max(grid - closed) <= GRID_GAP_REL_TOL * scale


def test_defect_symmetry_and_scaling():
    rng = np.random.default_rng(33)
    T = random_psd(np.random.default_rng(2), 4, 3)
    for _ in range(100):
        x = rng.uniform(-10, 10, 4)
        y = rng.uniform(-10, 10, 4)
        alpha = rng.uniform(0.1, 4.0) * rng.choice([-1.0, 1.0])
        d = Gram(T, x, y).defect
        assert rel_residual(d, Gram(T, y, x).defect) <= 1e-10
        assert rel_residual(Gram(T, alpha * x, y).defect,
                            np.abs(alpha) * d) <= 1e-10


def test_defect_in_positive_cone():
    rng = np.random.default_rng(34)
    for trial in range(100):
        T = random_psd(np.random.default_rng(trial), 3, 2)
        x = rng.uniform(-10, 10, 3)
        y = rng.uniform(-10, 10, 3)
        d = Gram(T, x, y).defect
        assert np.min(d) >= -1e-10 * _scale(T, x, y)


def test_identity_residual_examples():
    # multiplication sip: |xy| = sqrt(x^2 y^2) exactly for integer entries
    T = MultiplicationSip(2)
    assert np.array_equal(cs_identity(Gram(T, [1.0, 2.0], [3.0, 1.0])), [0.0, 0.0])
    # zero second argument: both sides vanish
    assert np.array_equal(cs_identity(Gram(T, [1.0, 2.0], [0.0, 0.0])), [0.0, 0.0])
    # orthonormal dot pair: |b| = 0 and bound = 1 = D/2
    D = PsdFamilySip([np.eye(2)])
    assert np.max(np.abs(cs_identity(Gram(D, [1.0, 0.0], [0.0, 1.0])))) <= 1e-15


def test_identity_residual_random():
    rng = np.random.default_rng(35)
    for trial in range(200):
        if trial % 2 == 0:
            T = random_psd(np.random.default_rng(trial), int(rng.integers(1, 7)),
                           int(rng.integers(1, 5)))
        else:
            T = MultiplicationSip(int(rng.integers(1, 7)))
        x = rng.uniform(-10, 10, T.domain_dim)
        y = rng.uniform(-10, 10, T.domain_dim)
        g = Gram(T, x, y)
        resid = cs_identity(g)
        b = g.b
        scale = max(_scale(T, x, y), float(np.max(np.abs(b))))
        assert np.max(np.abs(resid)) <= 1e-9 * scale


def test_inequality_random():
    rng = np.random.default_rng(36)
    for trial in range(200):
        T = random_psd(np.random.default_rng(trial), 4, 3)
        x = rng.uniform(-10, 10, 4)
        y = rng.uniform(-10, 10, 4)
        g = Gram(T, x, y)
        bound = box_times(g.a, g.c, floor=1e-9 * _scale(T, x, y))
        slack = bound - np.abs(g.b)
        assert np.min(slack) >= -1e-10 * _scale(T, x, y)


def test_cs_check_multiplication_equality():
    # defect vanishes identically, so equality holds and is not borderline
    got = cs_verdict(Gram(MultiplicationSip(2), [1.0, 2.0], [3.0, 1.0]))
    assert got.inequality <= INEQ_FLOOR
    assert got.equality_holds
    assert got.defect_zero
    assert not got.borderline


def test_cs_check_strict_inequality():
    got = cs_verdict(Gram(PsdFamilySip([np.eye(2)]), [1.0, 0.0], [0.0, 1.0]))
    assert got.inequality <= INEQ_FLOOR
    assert not got.equality_holds
    assert not got.defect_zero
    assert not got.borderline


def test_cs_check_colinear_equality():
    T = random_psd(np.random.default_rng(8), 3, 2)
    x = np.array([1.0, -2.0, 0.5])
    got = cs_verdict(Gram(T, x, 3.0 * x))
    assert got.inequality <= INEQ_FLOOR
    assert got.equality_holds
    assert got.defect_zero
    assert not got.borderline


def test_cs_check_biconditional_agrees():
    rng = np.random.default_rng(37)
    for trial in range(300):
        if trial % 2 == 0:
            T = random_psd(np.random.default_rng(trial), int(rng.integers(1, 7)),
                           int(rng.integers(1, 5)))
        else:
            T = MultiplicationSip(int(rng.integers(1, 7)))
        x = rng.uniform(-10, 10, T.domain_dim)
        y = x * rng.uniform(-3, 3) if trial % 4 == 0 else rng.uniform(-10, 10, T.domain_dim)
        got = cs_verdict(Gram(T, x, y))
        assert got.inequality <= INEQ_FLOOR
        if not got.borderline:
            assert got.equality_holds == got.defect_zero


def test_lambda_grid_validation():
    # the lambda magnitudes' grid: the same LogGrid that holds the theta infimum
    with pytest.raises(ValueError):
        LogGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        LogGrid(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        LogGrid.log_spaced(1e-3, 1e3, 1)
    grid = LogGrid.log_spaced(1e-3, 1e3, 7)
    assert grid.count == 7
    assert 1.0 in grid.points
    # signed is the +- closure: increasing, symmetric, twice as long
    assert grid.signed.size == 14
    assert np.array_equal(grid.signed[:7], -grid.points[::-1])
    assert np.array_equal(grid.signed[7:], grid.points)
    assert np.all(np.diff(grid.signed) > 0.0)


def test_lambda_minimum_weight():
    # D(x,y)*u: each sampled T-value is weighted before the division by |lambda|
    T = random_psd(np.random.default_rng(3), 3, 2)
    x, y = np.array([1.0, -2.0, 0.5]), np.array([0.3, 1.0, -1.0])
    grid = LogGrid.log_spaced(1e-3, 1e3, 51)
    plain = defect_grid(T, x, y, grid)
    g = Gram(T, x, y)
    d, du = lambda_minima([g], grid)[0]
    assert np.array_equal(d, plain) and du is None
    for u, weighted in ((np.ones(2), plain), (np.array([0.0, 2.0]), [0.0, 2.0 * plain[1]])):
        d, du = lambda_minima([g], grid, [u])[0]
        assert np.array_equal(d, plain)  # the weight leaves D as it is
        assert np.array_equal(du, weighted)


def test_where_gives_the_held_pairs_their_bits():
    # GramStack.where checks the pairs where a hypothesis holds as a new
    # stack of those pairs: each gets the bits of the whole stack's value
    T = PsdFamilySip(np.eye(3)[None])
    rng = np.random.default_rng(4)
    stack = GramStack(Gram(T, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), np.ones(1))
                      for _ in range(4))
    stack.a, stack.sums("s", "d")
    holds = np.array([True, False, True, True])

    def f(r):
        return (r.norm_x + r.norm_sum + r.norm_diff + r.b).max(axis=-1)

    got = stack.where(holds, f)
    ref = f(stack)
    assert np.array_equal(got, np.where(holds, ref, 0.0))


NORMS = ("norm_x", "norm_y", "norm_sum", "norm_diff")
# the T-value each seminorm maps
NORM_OF = {"norm_x": "a", "norm_y": "c", "norm_sum": "s", "norm_diff": "d"}


def _norm_pairs() -> list:
    """(T, x, y, u) of pairs with codomain R^2 under both sip kinds and two domains."""
    rng = np.random.default_rng(11)
    pairs = [(MultiplicationSip(2), rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2),
              np.array([0.0, 3.0]))]
    for m in (2, 4, 4):
        pairs.append((random_psd(rng, m, 2), rng.uniform(-5, 5, m), rng.uniform(-5, 5, m),
                      rng.uniform(0, 5, 2)))
    x = rng.uniform(-5, 5, 4)
    pairs.append((random_psd(rng, 4, 2), x, -2.0 * x, np.ones(2)))  # colinear
    return pairs


def _bits(v) -> bytes:
    return np.asarray(v).tobytes()


@pytest.mark.parametrize("request_", [NORMS, ("norm_sum", "norm_x"), ("norm_diff",),
                                      ("norm_y", "norm_diff", "norm_x")])
def test_norms_of_one_request_have_their_lone_bits(request_):
    # one request evaluates the seminorms in one stacked call; each, read
    # after it, has the bits of a fresh record's lone read and of the
    # seminorm of its T-value alone, row by row in a stack
    pairs = _norm_pairs()
    grams = [Gram(*p) for p in pairs]
    stack = GramStack(Gram(*p) for p in pairs)
    for record in (*grams, stack):
        got = record.norms(*request_)
        assert [_bits(v) for v in got] == [_bits(getattr(record, name)) for name in request_]
    for i, p in enumerate(pairs):
        for name in request_:
            alone = Gram(*p)
            lone = _bits(getattr(alone, name))
            assert set(NORMS) & vars(alone).keys() == {name}
            assert lone == _bits(cauchy_schwarz._seminorm(getattr(alone, NORM_OF[name]), alone.u))
            assert _bits(getattr(grams[i], name)) == lone
            assert _bits(getattr(stack, name)[i]) == lone


def test_norms_evaluate_only_the_sums_they_read():
    # x - y overflows (x + y does not) where T's tiny family keeps a and c
    # finite: x, y and the sum may be requested, the difference raises and
    # keeps nothing, alone or in a GramStack with another sip kind
    T = PsdFamilySip(1e-310 * np.eye(2)[None].repeat(2, axis=0), validate=False)
    x, y = np.array([1e308, 1.0]), np.array([-1e308, 1.0])
    other = (MultiplicationSip(2), np.array([1.0, 2.0]), np.array([3.0, -1.0]), np.ones(2))
    with np.errstate(over="ignore"):
        for record in (Gram(T, x, y, np.ones(2)),
                       GramStack([Gram(*other), Gram(T, x, y, np.ones(2))])):
            sx, sy, ssum = record.norms("norm_x", "norm_y", "norm_sum")
            assert np.isfinite(sx).all() and np.isfinite(sy).all() and np.isfinite(ssum).all()
            assert "d" not in vars(record)
            for _ in range(2):
                with pytest.raises(NonFinite):
                    record.norms("norm_sum", "norm_diff")
                assert not {"d", "norm_diff"} & vars(record).keys()
            with pytest.raises(NonFinite):
                record.norm_diff


def test_norms_of_a_negative_weight_raise_on_every_request():
    pairs = _norm_pairs()
    T, x, y, _ = pairs[1]
    broken = (T, x, y, np.array([1.0, -1.0]))
    for make in (lambda: Gram(*broken), lambda: GramStack([Gram(*pairs[0]), Gram(*broken)])):
        record = make()
        for _ in range(2):
            with pytest.raises(NotInPositiveCone):
                record.norms("norm_x", "norm_y", "norm_sum")
            assert not set(NORMS) & vars(record).keys()
        for name in NORMS:
            with pytest.raises(NotInPositiveCone):
                getattr(record, name)
        assert not set(NORMS) & vars(record).keys()


def test_norms_keep_each_rows_floor():
    # T(x,x) = -1e-6 leaves F+ beyond its own rounding floor (about 1e-9
    # of |a| + |u|) but not beyond the floor of T(y,y) = 1e6: stacked with
    # norm_y, norm_x still raises, as alone, and norm_y alone does not
    T = PsdFamilySip(np.array([[[-1e-6, 0.0], [0.0, 1e6]]]), validate=False)
    x, y, u = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.ones(1)
    for request in (("norm_x",), ("norm_x", "norm_y"), ("norm_y", "norm_x")):
        with pytest.raises(NotInPositiveCone):
            Gram(T, x, y, u).norms(*request)
    assert np.array_equal(Gram(T, x, y, u).norm_y, [1e3])
