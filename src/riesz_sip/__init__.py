"""Semi-inner products with values in a vector lattice.

Library layers, bottom up: componentwise lattice/f-algebra primitives
(lattice), the geometric and square means with their grid oracles (means),
concrete semi-inner products and axiom checking (sip), the Cauchy-Schwarz
identity and defect (cauchy_schwarz), weighted vector seminorms and the
triangle-type theorems (seminorms), and the randomized verification
harness plus CLI (harness, cli), whose generic trial i draws from
np.random.default_rng((seed, i)), and whose positive_log and orthogonal
trials a chunk c at a time from np.random.default_rng((seed, recipe, c)).

The package exports the names README's "Library use" imports, plus
as_lattice_vector, which the benchmark's tracer reads here; every other
name is imported from its module.
"""

from .lattice import as_lattice_vector, rel_residual
from .sip import PsdFamilySip, random_psd
from .cauchy_schwarz import Gram, GramStack, defect_grid
from .seminorms import parallelogram_sides, sharp_verdict
from .harness import TrialConfig, run_suite

__version__ = "0.1.0"
