"""Exact solver for linear objectives over square max-min relational systems.

The constraint family couples every variable pair through the row variable:
row i requires max_j min{a_ij, x_i, x_j} = b_i on x in [0,1]^n.  The feasible
set resolves into finitely many boxes indexed by selector triples; domain
reduction prunes selectors before enumeration, and the per-box candidates
yield an exact global optimum.  A zero-target binary special case solves
minimum vertex cover.
"""

from .exact import decimal_str, display_round, parse_scalar
from .extremals import (
    BoundVectors,
    Cell,
    ExtremalSet,
    RowClassification,
    aggregate_bounds,
    classify_rows,
    extremal_solutions,
)
from .model import (
    Instance,
    InstanceError,
    MembershipReport,
    check_membership,
    load_instance,
    squarify,
)
from .oracle import (
    BudgetExceeded,
    brute_force_cover,
    grid_optimum,
    sample_feasibility,
)
from .reduction import (
    Infeasibility,
    ReductionState,
    TraceEvent,
    reduce_domains,
)
from .solver import (
    Candidate,
    Solution,
    Statistics,
    Triple,
    enumerate_admissible,
    feasible_region,
    gate_feasibility,
    make_candidate,
    solve,
)
from .vertexcover import (
    CoverResult,
    Graph,
    GraphError,
    graph_to_instance,
    load_graph,
    make_graph,
    solve_cover,
    verify_structure,
)

__version__ = "0.1.0"
