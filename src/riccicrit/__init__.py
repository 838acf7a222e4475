"""Exact Ollivier-Ricci edge curvature and critical-edge solvers."""

from .curvature import (
    BlowUpMatrix,
    CostMatrix,
    CurvatureResult,
    Sign,
    TransportPlan,
    blow_up,
    build_cost_matrix,
    canonicalize_matching,
    emd_via_flow,
    emd_via_matching,
    plan_from_matching,
    ricci,
)
from .errors import (
    BlowUpTooLargeError,
    BudgetExceededError,
    DisconnectedNeighborhoodError,
    EdgeListParseError,
    FieldConfigError,
    InfeasibleInstanceError,
    InputFileError,
    OracleBoundError,
    RetryExhaustedError,
    RicciCritError,
    UnsupportedVariantError,
)
from .gadgets import (
    GadgetDescriptor,
    gen_blocker,
    gen_maxcov,
    gen_setcover,
    gen_tightness,
    gen_tightness_graph,
)
from .graphs import Graph, INFINITY, format_edge_list, load_edge_list, parse_edge_list
from .matching import (
    EdgeClassCounts,
    Matching,
    class_counts,
    enumerate_matchings,
    exact_cost_matching,
    matching_with_counts,
    min_cost_perfect_matching,
)
from .solvers import (
    Instance,
    KappaState,
    ProblemVariant,
    Solution,
    brute_force_opt,
    feasible_by_saturation,
    greedy_insert,
    kappa_hat,
    permissible_edits,
    randomized_insert,
    weight_propagation,
)

__version__ = "0.1.0"
