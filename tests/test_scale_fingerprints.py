"""gbfs+L at the paper's regime, seed 1: blocksworld-arm 30 and 40 and
logistics 8-4-3-20.  The other tests build no mutex table, landmark graph
or plan above 10 blocks or logistics 3-3-1-6, and arm 40 and logistics
8-4-3-20 do not fit the grounder's object-set memo, so each problem builds
its own per-action-set indexes.  The counts of the mutex table, the
landmark graph and the control loop pinned here have held since these
sizes were first measured; any change to them is a change of results."""

from collections import Counter

import pytest

from lmplan.bench import generate_task
from lmplan.control import ControlConfig, ControlOutcome, run_control
from lmplan.core import validate_plan
from lmplan.orders import compute_mutexes
from lmplan.pipeline import build_landmark_graph
from lmplan.planners import SearchLimits, gbfs_plan

# (domain, size): facts, actions, mutex pairs, nodes, edges per kind,
# planner calls, expansions, plan length
SCALE = {
    ("blocksworld-arm", 30): (961, 1800, 28800, 95, {"gn": 131, "r": 98, "rO": 181},
                              45, 101, 56),
    ("blocksworld-arm", 40): (1681, 3200, 67200, 133, {"gn": 178, "r": 103, "rO": 228},
                              61, 129, 68),
    ("logistics", (8, 4, 3, 20)): (1027, 2504, 18192, 208,
                                   {"gn": 451, "ln": 13, "r": 44, "rO": 49}, 94, 300, 167),
}


@pytest.mark.parametrize("domain,size", list(SCALE),
                         ids=["arm-30", "arm-40", "logistics-8-4-3-20"])
def test_gbfs_with_landmarks_at_scale(domain, size):
    facts, actions, pairs, nodes, edges, calls, expanded, length = SCALE[(domain, size)]
    task = generate_task(domain, size, 1)
    assert (task.num_facts, len(task.actions)) == (facts, actions)
    table = compute_mutexes(task)
    assert len(table.pairs()) == pairs
    g = build_landmark_graph(task, table=table)
    assert len(g) == nodes
    assert Counter(k.value for _, _, k in g.edge_set) == edges
    expansions = []

    def planner(t, limits):
        result = gbfs_plan(t, limits)
        expansions.append(result.expanded)
        return result

    trace = run_control(task, g, planner, ControlConfig(limits=SearchLimits(2_000_000, 60)),
                        table)
    assert trace.outcome is ControlOutcome.SOLVED
    assert (len(expansions), sum(expansions), len(trace.plan)) == (calls, expanded, length)
    assert validate_plan(task, trace.plan)
