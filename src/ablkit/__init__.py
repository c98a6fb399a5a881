"""Probabilities for pre- and postselected quantum systems.

Core pieces: the ABL rule for intermediate-measurement probabilities
conditioned on both a preselection and a postselection, decoherence-
functional consistency checks for the associated history families, the
counterfactual-use diagnostics that mix ABL conditionals over a final
basis, and a seeded Monte Carlo simulator that reproduces the same numbers
by frequency counting.
"""

from .abl import (
    DIV_TOL,
    AblDistribution,
    PrePostContext,
    abl_distribution,
    abl_probabilities,
    born_distribution,
    disturbed_final_probability,
    joint_probability,
    luders_update,
)
from .counterfactual import (
    Counterexample,
    MixingReport,
    find_counterexample,
    mixing_report,
    sharp_shanks_total,
    vaidman_total,
)
from .errors import (
    AblkitError,
    DegenerateSpanError,
    DimensionMismatchError,
    ImpossiblePostselectionError,
    NoPostselectedTrialsError,
    ScenarioParseError,
    TooManyBranchesError,
    UndefinedTermError,
    ValidationError,
    ZeroProjectionError,
)
from .histories import (
    CONSISTENCY_TOL,
    ConsistencyReport,
    DisturbanceCheck,
    HistoryFamily,
    coarse_graining_table,
    coarse_graining_verdicts,
    decoherence_functional,
    decoherence_matrix,
    disturbance_check,
    enumerate_coarse_grainings,
    is_consistent,
)
from .linalg import (
    ALG_TOL,
    NORM_TOL,
    SPAN_TOL,
    Branch,
    Ket,
    ObservableDecomposition,
    Projector,
    apply_operator,
    basis_containing,
    complete_basis,
    inner,
    orthonormalize,
    projector_from_kets,
    trace_product,
)
from .sampling import random_basis, random_ket, substream
from .scenario_io import (
    counterexample_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_jsonable,
)
from .scenarios import BUILTIN_NAMES, Scenario, builtin
from .simulate import (
    EnsembleStats,
    TrialRecord,
    estimate_abl,
    estimate_final_probability,
    run_trial,
)

__version__ = "0.1.0"
