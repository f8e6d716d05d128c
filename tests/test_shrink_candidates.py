"""shrink's candidates are those of the reference builder, in its order, bit for bit.

harness._shrink_candidates builds each one-step simplification by taking
cached index arrays and zeroing copies. The reference here is the builder
it replaced, kept as the statement of what the candidates are: np.delete
for matrix axes, concatenated slices for vectors (which keep a malformed
vector's extra coordinate), dataclasses.replace for the rest. Every
candidate's kind, matrices, u, x and y must match, with dtype, shape and
layout, over generated instances of both sip kinds up to m = 12, n = 8 and
the broken classes of fault triage, whose u, x or y may carry one
coordinate too many or too few.
"""

from dataclasses import replace
from itertools import zip_longest

import numpy as np
import pytest

from riesz_sip import harness
from riesz_sip.harness import PURPOSES, Instance, TrialConfig
from riesz_sip.sip import MultiplicationSip, PsdFamilySip

CONFIG = TrialConfig(seed=5, m_hi=12, n_hi=8)


def _drop(v, i):
    return np.concatenate((v[:i], v[i + 1:]))


def _zeroed(v, index):
    v = v.copy()
    v[index] = 0.0
    return v


def reference_candidates(cur: Instance):
    T = cur.sip
    mult = isinstance(T, MultiplicationSip)
    n = T.codomain_dim
    if n > 1:
        for j in range(n):
            if mult:
                yield Instance(MultiplicationSip(n - 1), _drop(cur.u, j),
                               _drop(cur.x, j), _drop(cur.y, j))
            else:
                yield replace(cur, sip=PsdFamilySip(np.delete(T.matrices, j, axis=0),
                                                    validate=False), u=_drop(cur.u, j))
    if not mult and T.domain_dim > 1:
        for k in range(T.domain_dim):
            A = np.delete(np.delete(T.matrices, k, axis=1), k, axis=2)
            yield Instance(PsdFamilySip(A, validate=False), cur.u,
                           _drop(cur.x, k), _drop(cur.y, k))
    for key in ("x", "y", "u"):
        v = getattr(cur, key)
        for i in np.flatnonzero(v):
            yield replace(cur, **{key: _zeroed(v, i)})
    if not mult:
        m = T.domain_dim
        for j in range(n):
            for r in range(m):
                for c in range(r, m):
                    if T.matrices[j, r, c] != 0.0:
                        A = _zeroed(T.matrices, (j, [r, c], [c, r]))
                        yield replace(cur, sip=PsdFamilySip(A, validate=False))


def _array(a) -> tuple:
    return a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()


def _exact(inst: Instance) -> tuple:
    T = inst.sip
    sip = (T.dim,) if isinstance(T, MultiplicationSip) else _array(T.matrices)
    return inst.kind, sip, _array(inst.u), _array(inst.x), _array(inst.y)


def _broken(rng, cls: str, m: int, n: int) -> Instance:
    """An instance of fault triage's class cls, as perfbench's broken_instance makes it."""
    if cls == "overflow":
        x = rng.uniform(-10.0, 10.0, n)
        x[int(rng.integers(n))] = 1e200
        return Instance(MultiplicationSip(n), rng.uniform(0.0, 10.0, n), x, x.copy())
    B = rng.uniform(-1.0, 1.0, (n, m, m))
    A = np.einsum("jka,jkb->jab", B, B)
    j = int(rng.integers(n))
    if cls == "asymmetric":
        N = rng.uniform(-1.0, 1.0, (m, m))
        A[j] += N - N.T
    elif cls == "negative":
        A[j] = -A[j]
    vecs = {"u": rng.uniform(0.0, 10.0, n), "x": rng.uniform(-10.0, 10.0, m),
            "y": rng.uniform(-10.0, 10.0, m)}
    if cls.startswith("long-"):
        key = cls[len("long-"):]
        vecs[key] = np.append(vecs[key], rng.uniform(0.0, 10.0))
    elif cls.startswith("short-"):
        key = cls[len("short-"):]
        vecs[key] = vecs[key][:-1]
    return Instance(PsdFamilySip(A, validate=False), **vecs)


BROKEN_CLASSES = ("asymmetric", "negative", "long-u", "long-x", "long-y",
                  "short-u", "short-x", "short-y", "overflow")
SHAPES = ((1, 1), (2, 1), (2, 2), (3, 5), (7, 3), (12, 8), (12, 1), (5, 8))


def _instances() -> list:
    generated = [inst for purpose in dict.fromkeys(PURPOSES.values())
                 for inst in harness._recipe_chunk(CONFIG, purpose, 0, 25)]
    rng = np.random.default_rng(8)
    broken = [_broken(rng, cls, m, n) for cls in BROKEN_CLASSES for m, n in SHAPES]
    # signed zeros and zero matrix entries, which no candidate zeroes again
    zeros = []
    for g in generated[:25]:
        A = g.sip.matrices.copy() if isinstance(g.sip, PsdFamilySip) else None
        if A is not None:
            A[:, 0, :] = A[:, :, 0] = 0.0
            A[0] = -0.0
        sip = g.sip if A is None else PsdFamilySip(A, validate=False)
        zeros.append(Instance(sip, np.where(g.u > 5.0, -0.0, g.u),
                              np.where(g.x > 0.0, g.x, -0.0), g.y * (g.y > 3.0)))
    return generated + broken + zeros


INSTANCES = _instances()


def test_the_instances_cover_both_kinds_every_shape_and_the_broken_classes():
    kinds = {inst.kind for inst in INSTANCES}
    assert kinds == {"multiplication", "psd_family"}
    dims = {(inst.sip.domain_dim, inst.sip.codomain_dim) for inst in INSTANCES}
    assert max(m for m, _ in dims) == 12 and max(n for _, n in dims) == 8
    sizes = {(inst.u.size - inst.sip.codomain_dim, inst.x.size - inst.sip.domain_dim,
              inst.y.size - inst.sip.domain_dim) for inst in INSTANCES}
    assert {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)} <= sizes


@pytest.mark.parametrize("i", range(len(INSTANCES)))
def test_candidates_are_the_reference_candidates_in_order(i):
    inst = INSTANCES[i]
    count = 0
    for got, ref in zip_longest(harness._shrink_candidates(inst), reference_candidates(inst)):
        assert got is not None and ref is not None, count
        assert _exact(got) == _exact(ref), count
        count += 1
    assert count > 0
