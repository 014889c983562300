"""screenopt: Pareto-optimal multi-period screening strategies.

A solver library and CLI built around discrete influence diagrams with
path-probability semantics, exact nondominated frontier generation (with
the augmented-Tchebychev box search kept as a cross-check),
prevalence-progression recurrences and budget-constrained final selection.

The package root exports only the names below; everything else is
imported from its module.
"""

__version__ = "0.1.0"

from .pareto import (  # noqa: F401
    brute_force_frontier,
    compute_frontier,
    diagram_problem,
)
from .phase1 import natural_progression_rollout, run_phase1  # noqa: F401
from .screening import (  # noqa: F401
    Segment,
    Sex,
    build_segment_diagram,
    load_parameters,
)
