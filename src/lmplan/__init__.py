"""Ordered landmarks for STRIPS planning.

Extracts landmark facts and order constraints between them from grounded
STRIPS tasks, and uses the resulting graph to decompose planning into small
sub-tasks around any base planner.  Exact brute-force oracles over
enumerable state spaces back every approximation.
"""

from .core import (
    Action,
    Fact,
    PlanningError,
    Task,
    apply_action,
    bits,
    format_plan,
    make_task,
    mask_of,
    plan_obeys_order,
    result_state,
    validate_plan,
)
from .landmarks import (
    GN,
    LN,
    R,
    RO,
    EdgeKind,
    LGG,
    generate_candidates,
    lookahead_extend,
    verify_landmarks,
)
from .orders import (
    CycleError,
    InconsistencyTable,
    add_obedient_orders,
    add_reasonable_orders,
    compute_mutexes,
    remove_cycles,
)
from .oracles import (
    CapExceeded,
    enumerate_states,
    oracle_gn,
    oracle_inconsistent,
    oracle_landmark,
    oracle_n,
    oracle_reasonable,
)
from .pddl import ParseError, ground, ground_files, parse_domain, parse_problem
from .pipeline import PipelineConfig, build_landmark_graph
from .planners import Outcome, PlannerResult, SearchLimits, bfs_plan, gbfs_plan
from .rpg import FIXPOINT, GOALS_FIRST, INF, RPG, build_rpg, extract_relaxed_plan
from .control import (
    ControlConfig,
    ControlOutcome,
    ControlTrace,
    compile_disjunctive_goal,
    run_control,
    solve,
)

__version__ = "0.1.0"
