"""The lambda oracle's rounding certificate holds, checked in exact arithmetic (ROADMAP item 26).

The two-stage grid driver (means._fold_grid) certifies a row of the
lambda oracle only if every other coarse sample is worse than the best by
more than 2E, where E = cauchy_schwarz._lambda_bound bounds the rounding
error of any sample t/|lambda| of the row, and u_j*E that of
t*u_j/|lambda|. verify's defect bits rest on that bound for most rows, so
it is checked here against the exact value of every sample: the grid's
lambda, x, y, u and the family's matrices are dyadic rationals, and
T(lambda*x - y, lambda*x - y) of them is computed exactly with Python
integers and compared by fractions.Fraction, the standard library alone.

The rows are those of one lambda_minima call (cauchy_schwarz._lambda_rows):
PSD families of m = 2 to 12 and the multiplication sip, x and y at
magnitudes 2^-520 to 2^300 (from subnormal T-values to large ones), y
nearly colinear with x, so that the defect's minimiser lies inside the
grid and its samples cancel there. The columns are the ends of both
branches of the default grid, where E is built and the samples are
largest, their neighbours, and a stride across the rest.
"""

from fractions import Fraction

import numpy as np

from riesz_sip.cauchy_schwarz import Gram, _lambda_rows
from riesz_sip.harness import TrialConfig
from riesz_sip.sip import MultiplicationSip, PsdFamilySip, random_psd

GRID = TrialConfig().lambda_grid
SCALES = (-520, -300, -40, 0, 100, 300)
DIMENSIONS = (2, 3, 5, 8, 12)


def _pairs() -> tuple:
    """(grams, weights): near-colinear pairs of symmetric PSD families and multiplication sips."""
    rng = np.random.default_rng(26)
    grams, weights = [], []
    for k in SCALES:
        for T in [MultiplicationSip(6)] + [random_psd(rng, m, 3) for m in DIMENSIONS]:
            if isinstance(T, PsdFamilySip):
                # exactly symmetric, so that the kernel's coefficients are A's entries
                T = PsdFamilySip(0.5 * (T.matrices + T.matrices.swapaxes(1, 2)))
            m = T.domain_dim
            x = np.ldexp(rng.uniform(-1.0, 1.0, m), k)
            alpha = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
            y = alpha * x + np.ldexp(rng.uniform(-1.0, 1.0, m), k - 20)
            grams.append(Gram(T, x, y))
            weights.append(rng.uniform(0.5, 2.0, T.codomain_dim))
    return grams, weights


def _columns() -> np.ndarray:
    """Columns of grid.signed: both branches' ends and their neighbours, and every 97th."""
    G = GRID.count
    ends = [0, 1, G - 2, G - 1, G, G + 1, 2 * G - 2, 2 * G - 1]
    return np.unique(np.concatenate([ends, np.arange(0, 2 * G, 97)]))


def _integers(values) -> tuple:
    """(ints, e): the floats values as ints[i] / 2^e, exactly, with one e."""
    ratios = [float(v).as_integer_ratio() for v in values]
    e = max(d.bit_length() - 1 for _, d in ratios)
    return [n << (e - d.bit_length() + 1) for n, d in ratios], e


def _difference(x, y, lam: float) -> tuple:
    """(Z, e): z = lam*x - y exactly, as Z[a] / 2^e."""
    (L,), el = _integers([lam])
    X, ex = _integers(x)
    Y, ey = _integers(y)
    e = max(el + ex, ey)
    return [(L * xa << (e - el - ex)) - (ya << (e - ey)) for xa, ya in zip(X, Y)], e


def _exact_t(T, x, y, lam: float) -> list:
    """T(lam*x - y, lam*x - y) in exact arithmetic, one Fraction per codomain coordinate."""
    Z, e = _difference(x, y, lam)
    if isinstance(T, MultiplicationSip):
        return [Fraction(za * za, 1 << (2 * e)) for za in Z]
    out = []
    for A in T.matrices:
        M, ea = _integers(A.ravel())
        m = len(Z)
        t = sum(za * sum(M[a * m + b] * zb for b, zb in enumerate(Z)) for a, za in enumerate(Z))
        out.append(Fraction(t, 1 << (2 * e + ea)))
    return out


def _worst_ratio() -> float:
    """The largest |sample - exact| / bound over every sample.

    Asserts every sample within its bound: E for a sample of D, u_j*E
    for one of D*u, as the driver's rows.error gives them.
    """
    grams, weights = _pairs()
    classes, places = _lambda_rows(grams, weights, GRID)
    cols = _columns()
    samples, bounds = [], []
    for rows in classes:
        R = rows.size
        buf = np.empty(rows.depth(R) * cols.size)
        with np.errstate(all="ignore"):
            block = rows.sample(0, R, cols, buf).copy()
            bound = rows.error(0, R, None)[::2]
        assert block.shape == (2 * R, cols.size) and bound.shape == (2 * R,)
        samples.append(block)
        bounds.append(bound)
    worst = 0.0
    for g, u, (c, first) in zip(grams, weights, places):
        block, bound = samples[c], bounds[c]
        R = len(bound) // 2
        for k, lam in enumerate(GRID.signed[cols].tolist()):
            for j, t in enumerate(_exact_t(g.T, g.x, g.y, lam)):
                d = t / abs(Fraction(lam))
                for r, exact in ((first + j, d), (R + first + j, Fraction(float(u[j])) * d)):
                    E = Fraction(float(bound[r]))
                    error = abs(Fraction(float(block[r, k])) - exact)
                    assert error <= E, (g.T, r, lam, float(error), float(E))
                    worst = max(worst, float(error / E))
    return worst


def test_every_lambda_sample_is_within_its_certificate():
    worst = _worst_ratio()
    # the sample reaches the bound's scale: E / 20 would not hold
    assert 1 / 20 < worst <= 1.0, worst
