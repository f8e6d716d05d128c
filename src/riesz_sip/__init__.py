"""Semi-inner products with values in a vector lattice.

Library layers, bottom up: componentwise lattice/f-algebra primitives
(lattice), the geometric and square means with their grid oracles (means),
concrete semi-inner products and axiom checking (sip), the Cauchy-Schwarz
identity and defect (cauchy_schwarz), weighted vector seminorms and the
triangle-type theorems (seminorms), and the randomized verification
harness plus CLI (harness, cli), whose generic trial i draws from
np.random.default_rng((seed, i)), and whose positive_log and orthogonal
trials a chunk c at a time from np.random.default_rng((seed, recipe, c)).
"""

from .lattice import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DimensionMismatch,
    NonFinite,
    NotInPositiveCone,
    as_lattice_vector,
    cone_gap,
    in_positive_cone,
    rel_residual,
)
from .means import (
    AngleGrid,
    LogGrid,
    box_plus_gaps,
    box_plus_oracle,
    box_times,
    box_times_gaps,
    box_times_oracle,
    theta_minimizer,
)
from .sip import (
    MultiplicationSip,
    PsdFamilySip,
    check_axioms,
    orthogonal_stack,
    random_psd,
)
from .cauchy_schwarz import (
    CsCheck,
    Gram,
    GramStack,
    cs_identity,
    cs_verdict,
    defect_gaps,
    defect_grid,
    lambda_minima,
)
from .seminorms import (
    AdditivityCheck,
    SharpTriangle,
    additivity_verdict,
    orthogonality,
    parallelogram_sides,
    pythagoras_sides,
    seminorm_residuals,
    sharp_verdict,
    weighted_defect_gaps,
)
from .harness import (
    ConfigError,
    Instance,
    StudyReport,
    THEOREMS,
    Tolerances,
    TrialConfig,
    VerificationReport,
    convergence_study,
    counterexample,
    emit_report,
    generate_instance,
    read_case,
    replay_counterexample,
    run_suite,
    shrink,
)

__version__ = "0.1.0"
