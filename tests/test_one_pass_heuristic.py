"""The one-pass relaxed-plan heuristic.

``extract_relaxed_plan(build_rpg(task, FIXPOINT, state), goal)`` grows its
own layers over the goal's relevant actions and walks them down with one
subgoal mask.  Its values must equal the eager reference graph's bucket
extraction (``tests/test_pipeline_differential.py``), an unreachable goal
must give the ``INF`` object itself, extractions must leave the graph as it
was built, and gbfs must evaluate a state with one ``build_rpg`` and one
``extract_relaxed_plan`` call, the names perfbench's traced pass counts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from lmplan import planners, rpg
from lmplan.bench import generate_task
from lmplan.control import compile_disjunctive_goal, solve
from lmplan.core import Fact, make_task, successors
from lmplan.rpg import FIXPOINT, INF, build_rpg, extract_relaxed_plan

from test_pipeline_differential import (
    GENERATED,
    ReferenceRPG,
    _reachable_states,
    random_tasks,
    reference_extract_relaxed_plan,
)


def _check(task, state, goal):
    value = extract_relaxed_plan(build_rpg(task, FIXPOINT, state), goal)
    expected = reference_extract_relaxed_plan(ReferenceRPG(task, state, FIXPOINT), goal)
    if expected is INF:
        assert value is INF
    else:
        assert value == expected and type(value) is int
    return value


def _goals(task, raw):
    """No fact, each single fact, the task's goal and the raw masks."""
    universe = (1 << task.num_facts) - 1
    return [0, task.goal] + [1 << f for f in range(task.num_facts)] + [r & universe for r in raw]


@settings(max_examples=200)
@given(random_tasks(), st.lists(st.integers(0, 127), min_size=1, max_size=4), st.data())
def test_one_pass_matches_reference_on_random_tasks_and_subtasks(task, raw, data):
    universe = (1 << task.num_facts) - 1
    states = sorted({task.init} | {r & universe for r in raw})
    for state in states:
        for goal in _goals(task, raw):
            _check(task, state, goal)
    # a compiled sub-task: reach one of some facts from one of the states
    leaves = data.draw(st.lists(st.integers(0, task.num_facts - 1), min_size=1,
                                max_size=3, unique=True))
    sub = compile_disjunctive_goal(task, data.draw(st.sampled_from(states)), leaves).task
    for state in {sub.init} | {t for _, t in successors(sub.ops, sub.init)}:
        for goal in (sub.goal, sub.goal | task.goal, 0):
            _check(sub, state, goal)


def test_one_pass_matches_reference_on_generated_tasks_and_unreachable_goals():
    seen = set()
    for task in GENERATED:
        n = task.num_facts
        # a fact nothing adds: unreachable from every state without it
        extra = task.derive(task.init, task.goal, task.name, facts=[Fact(n, "unreached", ())])
        for state in _reachable_states(task, 6):
            for goal in (0, task.goal, 1 << (state.bit_length() - 1), 1 << n, task.goal | 1 << n):
                value = _check(extra, state, goal)
                seen.add("inf" if value is INF else "zero" if value == 0 else "positive")
            for f in range(0, n, 3):
                _check(task, state, 1 << f)
    assert seen == {"inf", "zero", "positive"}


def test_one_fact_growth_stops_short_of_the_rest_two_layers_ahead():
    # g needs c needs b needs a; (make-x) is relevant only through
    # (a-from-x), four adders away from g, and applicable from layer 1 on
    t = make_task(actions=[
        ("(g-from-c)", ["c"], ["g"], []),
        ("(c-from-b)", ["b"], ["c"], []),
        ("(b-from-a)", ["a"], ["b"], []),
        ("(a-from-s)", ["s"], ["a"], []),
        ("(a-from-x)", ["x"], ["a"], []),
        ("(make-x)", ["a"], ["x"], []),
    ], init=["s"], goal=["g"])
    make_x = t.action_named("(make-x)").id
    layers, act_layers = [t.init], []
    assert rpg._grow(layers, act_layers, t.goal, *rpg._relevance(t, t.goal)[0])
    # layer 1 sees (b-from-a) fire, and looking two layers ahead over the
    # goal's achiever and feeder reaches g: the rest of layer 1 is left out
    assert len(layers) == 5 and not act_layers[1] >> make_x & 1
    assert extract_relaxed_plan(build_rpg(t, FIXPOINT), t.goal) == 4
    full = ReferenceRPG(t, t.init, FIXPOINT)
    assert full.action_level[make_x] == 1 and full.fact_level[t.fact_named("g").id] == 4
    # from b, (c-from-b) fires in layer 0, and one layer ahead g is reached:
    # (a-from-s) is left out of layer 0
    with_b = t.mask(["s", "b"])
    layers, act_layers = [with_b], []
    assert rpg._grow(layers, act_layers, t.goal, *rpg._relevance(t, t.goal)[0])
    assert len(layers) == 3 and not act_layers[0] >> t.action_named("(a-from-s)").id & 1
    assert extract_relaxed_plan(build_rpg(t, FIXPOINT, with_b), t.goal) == 2


@pytest.mark.parametrize("task", GENERATED[:6:2] + GENERATED[-1:], ids=lambda t: t.name)
def test_extractions_leave_the_graph_as_built(task):
    one_fact = 1 << (task.goal.bit_length() - 1)
    for state in _reachable_states(task, 4):
        graph = build_rpg(task, FIXPOINT, state)
        # one-fact goals cut their last layers short, in local layers only
        value = extract_relaxed_plan(graph, one_fact)
        assert value == extract_relaxed_plan(graph, one_fact)
        full = ReferenceRPG(task, state, FIXPOINT)
        assert value == reference_extract_relaxed_plan(full, one_fact)
        assert graph.start == state and not hasattr(graph, "fact_level")
        assert extract_relaxed_plan(graph, task.goal) == \
            reference_extract_relaxed_plan(full, task.goal)
        assert extract_relaxed_plan(graph, one_fact) == value


@pytest.mark.parametrize("domain,size", [("blocksworld-arm", 6), ("logistics", (2, 3, 2, 4))])
@pytest.mark.parametrize("landmarks", [False, True])
def test_gbfs_builds_and_extracts_once_per_evaluation(domain, size, landmarks, monkeypatch):
    events, inside = [], []
    real_build, real_extract = planners.build_rpg, planners.extract_relaxed_plan
    real_grow = rpg._grow

    def build(task, mode, state):
        graph = real_build(task, mode, state)
        events.append(("build", graph, task.goal))
        return graph

    def extract(graph, goal):
        events.append(("extract", graph, goal))
        inside.append(True)
        try:
            return real_extract(graph, goal)
        finally:
            inside.pop()

    def grow(*args):
        if inside:  # the landmark graph's own growth is not an evaluation
            events.append(("grow", None, None))
        return real_grow(*args)

    monkeypatch.setattr(planners, "build_rpg", build)
    monkeypatch.setattr(planners, "extract_relaxed_plan", extract)
    monkeypatch.setattr(rpg, "_grow", grow)
    for seed in range(2):
        events.clear()
        plan, _ = solve(generate_task(domain, size, seed), planners.gbfs_plan, landmarks)
        assert plan is not None
        # per evaluation: build the graph, extract from that very graph for
        # the searched task's goal, which grows the layers at most once (not
        # at all when the value is memoised)
        evaluations = grown = 0
        while events:
            (b, graph, goal), (e, graph2, goal2) = events[:2]
            assert (b, e) == ("build", "extract") and graph2 is graph and goal2 == goal
            del events[:2]
            evaluations += 1
            if events and events[0][0] == "grow":
                del events[0]
                grown += 1
        assert 0 < grown <= evaluations
        if landmarks and domain == "logistics":
            assert grown < evaluations
