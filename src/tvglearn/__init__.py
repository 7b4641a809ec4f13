"""Learn temporally smooth sequences of sparse weighted graphs from signals.

The central entry points are :func:`fit_dynamic` (one graph per time window)
and :func:`fit_static` (one graph for the whole record), both driven by a
:class:`SolverConfig`.  Supporting modules expose the graph primitives,
the capped-simplex projection, the proximal operator, a synthetic scenario
generator with recovery metrics, and cross-trial analysis tools.
"""

from .analysis import (
    ConsensusGraph,
    consensus,
    graph_correlation_matrix,
    select_consistent_nodes,
)
from .errors import (
    CsvParseError,
    CsvShapeError,
    DataError,
    DivergenceError,
    InfeasibleBudgetError,
    SingularSystemError,
    TvgLearnError,
    UsageError,
)
from .graphs import (
    as_signal_matrix,
    degree_matrix,
    degrees,
    edge_pairs,
    energy_penalty_term,
    laplacian,
    n_edges,
    n_nodes_for_edges,
    objective,
    smoothness_term,
    temporal_variation,
    weight_matrix,
    window_signals,
)
from .projection import ProjectionResult, is_feasible, project_capped_simplex
from .proximal import prox_l1_linear, soft_threshold
from .solver import (
    FitReport,
    SolverConfig,
    SolverState,
    fit_dynamic,
    fit_static,
    grad_w,
    step,
    update_x,
)
from .synthetic import GroundTruth, ScenarioSpec, change_profile, edge_f1, generate

__version__ = "0.1.0"

__all__ = [
    "ConsensusGraph",
    "consensus",
    "graph_correlation_matrix",
    "select_consistent_nodes",
    "CsvParseError",
    "CsvShapeError",
    "DataError",
    "DivergenceError",
    "InfeasibleBudgetError",
    "SingularSystemError",
    "TvgLearnError",
    "UsageError",
    "as_signal_matrix",
    "degree_matrix",
    "degrees",
    "edge_pairs",
    "energy_penalty_term",
    "laplacian",
    "n_edges",
    "n_nodes_for_edges",
    "objective",
    "smoothness_term",
    "temporal_variation",
    "weight_matrix",
    "window_signals",
    "ProjectionResult",
    "is_feasible",
    "project_capped_simplex",
    "prox_l1_linear",
    "soft_threshold",
    "FitReport",
    "SolverConfig",
    "SolverState",
    "fit_dynamic",
    "fit_static",
    "grad_w",
    "step",
    "update_x",
    "GroundTruth",
    "ScenarioSpec",
    "change_profile",
    "edge_f1",
    "generate",
    "__version__",
]
