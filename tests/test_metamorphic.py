"""Metamorphic relations of the check layer, over generated instances.

Every check is scale free: doubling x and y and quadrupling u (powers of
two, so the transformed inputs are exact) multiplies each T-value by 4 and
each seminorm by 4, and must leave every verdict unchanged. A cyclic
permutation of a PSD family's codomain coordinates (its matrices and u
together) only reorders the componentwise quantities, which the worst-case
maxima the residuals are built from cannot see.
"""

import numpy as np
import pytest

from riesz_sip.harness import (
    CHECKS,
    PURPOSES,
    THEOREMS,
    Instance,
    Trial,
    TrialConfig,
    generate_instance,
)
from riesz_sip.sip import PsdFamilySip

CONFIG = TrialConfig(trials=200, seed=11)
SCALED_ABS_TOL = 1e-12


def _checked(suite, inst):
    return CHECKS[suite](Trial(inst, CONFIG))


def _instances(suite):
    return [generate_instance(CONFIG, i, PURPOSES[suite]) for i in range(CONFIG.trials)]


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
