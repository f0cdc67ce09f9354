"""Pipeline invariants on random synthetic micro-tasks.

The generator-domain suites in test_acceptance cover realistic structure;
these random tasks cover the awkward corners: empty preconditions, facts
with no achievers, disconnected goals, heavy mutex structure.
"""

from hypothesis import given, settings, strategies as st

from lmplan.core import PlanningError, make_task
from lmplan.landmarks import GN, LN
from lmplan.oracles import co_occurrence, enumerate_states, oracle_landmark
from lmplan.orders import compute_mutexes
from lmplan.pipeline import build_landmark_graph
from lmplan.planners import bfs_plan

from conftest import topological_order_exists


@st.composite
def solvable_tasks(draw):
    """Random task with disjoint add/delete lists and a goal sampled from a
    reachable state, so the instance is solvable by construction."""
    n = draw(st.integers(3, 7))
    facts = [f"f{i}" for i in range(n)]
    universe = (1 << n) - 1
    names = lambda m: [facts[i] for i in range(n) if m >> i & 1]
    actions = []
    for k in range(draw(st.integers(2, 6))):
        pre = draw(st.integers(0, universe))
        add = draw(st.integers(1, universe))
        dele = draw(st.integers(0, universe)) & ~add
        actions.append((f"(a{k})", names(pre), names(add), names(dele)))
    init = draw(st.integers(1, universe))
    task0 = make_task(actions, names(init), [], facts=facts)
    # random walk to a goal state
    state = task0.init
    for _ in range(draw(st.integers(0, 6))):
        applicable = [a for a in task0.actions if state & a.pre == a.pre]
        if not applicable:
            break
        a = applicable[draw(st.integers(0, 10)) % len(applicable)]
        state = (state | a.add) & ~a.delete
    goal = state & draw(st.integers(0, universe))
    if goal == 0:
        goal = state & -state if state else 0
    return make_task(actions, names(init), names(goal), facts=facts)


@settings(max_examples=120, deadline=None)
@given(solvable_tasks())
def test_pipeline_invariants_on_random_tasks(task):
    if task.goal == 0:
        return
    space = enumerate_states(task, cap=5000)
    g = build_landmark_graph(task)
    # the graph is acyclic with verified nodes and well-formed edges
    assert topological_order_exists(g)
    for s, d, k in g.edges:
        assert s in g and d in g and s != d
    for node in g.nodes:
        assert oracle_landmark(task, node, space=space), task.facts[node].name
    # mutex approximation stays sound
    co = co_occurrence(space, task.num_facts)
    for x, y in compute_mutexes(task).pairs():
        assert not co[x] >> y & 1
    # a complete planner solves what the construction promised
    assert bfs_plan(task).solved


@settings(max_examples=60, deadline=None)
@given(solvable_tasks())
def test_level_test_edges_never_out_of_order(task):
    if task.goal == 0:
        return
    from lmplan.rpg import GOALS_FIRST, build_rpg
    from lmplan.landmarks import generate_candidates, lookahead_extend

    rpg = build_rpg(task, GOALS_FIRST)
    if not rpg.goal_reached:
        return
    g = lookahead_extend(task, rpg, generate_candidates(task, rpg))
    for s, d, k in g.edges:
        if k in (GN, LN):
            assert rpg.fact_level[s] < rpg.fact_level[d]


def test_pipeline_rejects_relaxed_unreachable_goal():
    t = make_task(actions=[("(a)", ["p"], ["q"], [])], init=["p"], goal=["r"],
                  facts=["p", "q", "r"])
    try:
        build_landmark_graph(t)
    except PlanningError:
        return
    raise AssertionError("expected a fault for an unreachable goal")
