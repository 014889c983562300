"""screenopt: Pareto-optimal multi-period screening strategies.

A solver library and CLI built around discrete influence diagrams with
path-probability semantics, exact nondominated frontier generation (with
the augmented-Tchebychev box search kept as a cross-check),
prevalence-progression recurrences and budget-constrained final selection.
"""

__version__ = "0.1.0"

from .diagram import (  # noqa: F401
    GlobalStrategy,
    InfluenceDiagram,
    LocalStrategy,
    Node,
    NodeKind,
    ObjectiveVector,
    ValueSpec,
    Violation,
    enumerate_paths,
    enumerate_strategies,
    expected_values,
    path_probability,
    upper_bound_probability,
    validate_diagram,
)
from .errors import (  # noqa: F401
    CapacityError,
    InfeasibleBudgetError,
    IterationLimitError,
    OracleMismatchError,
    ParameterError,
    ScreenOptError,
    StructuralError,
)
from .pareto import (  # noqa: F401
    EnumeratedProblem,
    FrontierPoint,
    ParetoFrontier,
    ScalarizationParams,
    box_search_frontier,
    brute_force_frontier,
    compute_frontier,
    diagram_problem,
    mawt_norm,
    solve_scalarized,
)
from .phase1 import (  # noqa: F401
    DetectedFractions,
    StrategyHistory,
    baseline_trajectory,
    detected_fractions_of,
    natural_progression_rollout,
    run_phase1,
    update_prevalences,
)
from .phase2 import (  # noqa: F401
    SelectionProblem,
    SelectionResult,
    StrategyCandidate,
    budget_sweep,
    select_strategies,
)
from .screening import (  # noqa: F401
    BowelState,
    ParameterBundle,
    PrevalenceVector,
    Segment,
    Sex,
    TransitionRates,
    build_segment_diagram,
    colonoscopy_result_row,
    fit_positive_probability,
    load_parameters,
    posterior_given_positive,
)
