"""Metamorphic relations of the check layer, over generated instances.

Every check is scale free: doubling x and y and quadrupling u (powers of
two, so the transformed inputs are exact) multiplies each T-value by 4 and
each seminorm by 4, and must leave every verdict unchanged. A cyclic
permutation of a PSD family's codomain coordinates (its matrices and u
together) only reorders the componentwise quantities, which the worst-case
maxima the residuals are built from cannot see. The multiplication sip on
R^n is the PSD family A_j = e_j e_j'. For that family each PSD kernel
adds exact zeros to the product x_j*y_j, scaled at most by powers of two,
which is exact at generated magnitudes, so re-expressing a generated
multiplication instance as that family keeps every residual's bits.
"""

from itertools import chain

import numpy as np
import pytest

from riesz_sip.harness import (
    CHECKS,
    PURPOSES,
    THEOREMS,
    Instance,
    Trial,
    TrialConfig,
    _chunks,
    _run_check,
)
from riesz_sip.sip import PsdFamilySip

CONFIG = TrialConfig(trials=200, seed=11)
SCALED_ABS_TOL = 1e-12


def _checked(suite, inst):
    return CHECKS[suite](Trial(inst, CONFIG)).row(0)


def _instances(suite):
    return list(chain.from_iterable(_chunks(CONFIG, PURPOSES[suite])))


@pytest.mark.parametrize("suite", THEOREMS)
def test_checks_are_invariant_under_scaling(suite):
    for inst in _instances(suite):
        res = _checked(suite, inst)
        scaled = _checked(suite, Instance(inst.sip, 4.0 * inst.u, 2.0 * inst.x, 2.0 * inst.y))
        assert (scaled.status, scaled.failed, scaled.tags) == (res.status, res.failed, res.tags)
        assert scaled.residuals.keys() == res.residuals.keys()
        for name, value in res.residuals.items():
            assert abs(scaled.residuals[name] - value) <= SCALED_ABS_TOL, (suite, name)


@pytest.mark.parametrize("suite", [s for s in THEOREMS if PURPOSES[s] != "positive_log"])
def test_checks_are_invariant_under_codomain_permutation(suite):
    psd = [inst for inst in _instances(suite) if inst.kind == "psd_family"]
    assert psd
    for inst in psd:
        rolled = Instance(PsdFamilySip(np.roll(inst.sip.matrices, 1, axis=0), validate=False),
                          np.roll(inst.u, 1), inst.x, inst.y)
        assert _checked(suite, rolled).residuals == _checked(suite, inst).residuals


def test_a_multiplication_sip_checks_as_its_diagonal_family():
    # every generated multiplication instance of each recipe, re-expressed
    # as the PSD family A_j = e_j e_j' and checked alone in every suite its
    # recipe feeds, keeps each residual's bits, its status and failed list,
    # and its tags but the kind tag: this ties the PSD kernels (the
    # lambda-grid samples' _row_form, eval_stack, eval_batch) to the
    # multiplication sip's, bit for bit
    config = TrialConfig(trials=300, seed=7)
    for recipe in dict.fromkeys(PURPOSES.values()):
        suites = [suite for suite in THEOREMS if PURPOSES[suite] == recipe]
        mult = [inst for inst in chain.from_iterable(_chunks(config, recipe))
                if inst.kind == "multiplication"]
        assert mult, recipe
        for inst in mult:
            e = np.eye(inst.sip.dim)
            family = PsdFamilySip(e[:, :, None] * e[:, None, :], validate=False)
            diagonal = Instance(family, inst.u, inst.x, inst.y)
            for suite in suites:
                want = _run_check(suite, Trial(inst, config))
                got = _run_check(suite, Trial(diagonal, config))
                assert (got.status, got.failed) == (want.status, want.failed), (suite, inst)
                assert ([tag == "psd_family" for tag in got.tags]
                        == [tag == "multiplication" for tag in want.tags]), (suite, inst)
                assert ([tag for tag in got.tags if tag != "psd_family"]
                        == [tag for tag in want.tags if tag != "multiplication"]), (suite, inst)
                assert got.residuals.keys() == want.residuals.keys()
                assert (np.array(list(got.residuals.values())).tobytes()
                        == np.array(list(want.residuals.values())).tobytes()), (suite, inst)
