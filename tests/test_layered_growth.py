"""Whole-layer growth for goals of two or more facts.

For such a goal, ``extract_relaxed_plan`` grows each relaxed layer at once:
the goal's relevant actions that fire are those no missing fact consumes
(``Task._layering``'s consumer index, ``Task._layered``'s relevant-action
mask).  Every such evaluation must equal extraction from the reference
fixpoint graph, which grows every layer over all actions one at a time, on
random tasks, ``with_init`` tasks and compiled sub-tasks.  A task derived
without actions shares its parent's consumer index and relevance records; a
task derived with actions builds its own, so that it never reads an index
that lacks its actions.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from lmplan.bench import generate_task
from lmplan.control import _compile, compile_disjunctive_goal, with_init
from lmplan.core import Action, Fact, bits
from lmplan.rpg import FIXPOINT, INF, build_rpg, extract_relaxed_plan

from test_pipeline_differential import (
    GENERATED,
    ReferenceRPG,
    _reachable_states,
    random_tasks,
    reference_extract_relaxed_plan,
)


def reference_layering(task) -> tuple[tuple, tuple]:
    """(consumers, adds) rebuilt from the action list."""
    consumers = [0] * task.num_facts
    for a in task.actions:
        for f in bits(a.pre):
            consumers[f] |= 1 << a.id
    return tuple(consumers), tuple(a.add for a in task.actions)


def read_fully(task, state, goal):
    """The value extracted from the reference fixpoint graph, grown over all
    actions."""
    return reference_extract_relaxed_plan(ReferenceRPG(task, state, FIXPOINT), goal)


def check(task, state, goal):
    value = extract_relaxed_plan(build_rpg(task, FIXPOINT, state), goal)
    expected = read_fully(task, state, goal)
    if expected is INF:
        assert value is INF
    else:
        assert value == expected and type(value) is int
    if goal & (goal - 1):
        # the goal's growth took the whole-layer path, over this task's index
        waiting, _, consumers, adds = task._layered[goal]
        # a task derived with more facts and no actions shares the index:
        # the facts one of them lacks have no consumers
        n = task.num_facts
        assert (consumers[:n] + (0,) * (n - len(consumers)), adds) == reference_layering(task)
        assert not any(consumers[n:])
        assert waiting >> len(task.ops) == 0
    return value


def multi_fact_goals(task, raw=()):
    n = task.num_facts
    pairs = [1 << f | 1 << g for f in range(n) for g in range(f + 1, n)]
    return [goal for goal in [task.goal, (1 << n) - 1, *pairs, *raw] if goal & (goal - 1)]


@settings(max_examples=150, deadline=None)
@given(random_tasks(), st.lists(st.integers(0, 127), min_size=1, max_size=3), st.data())
def test_full_goal_evaluations_match_the_fully_read_graph(task, raw, data):
    universe = (1 << task.num_facts) - 1
    raw = [r & universe for r in raw]
    states = sorted({task.init, *raw, *_reachable_states(task, 8)})
    for state in states:
        for goal in multi_fact_goals(task, raw):
            check(task, state, goal)
    # with_init shares the index built above
    moved = with_init(task, data.draw(st.sampled_from(states)))
    for state in states[:4]:
        for goal in multi_fact_goals(moved)[:8]:
            check(moved, state, goal)
    # a compiled sub-task adds actions, with or without a carried-over goal
    leaves = data.draw(st.lists(st.integers(0, task.num_facts - 1), min_size=1,
                                max_size=3, unique=True))
    state = data.draw(st.sampled_from(states))
    for sub in (compile_disjunctive_goal(task, state, leaves).task,
                _compile(task, state, [tuple(leaves)], task.goal).task):
        for s in {sub.init, *states}:
            for goal in (sub.goal | task.goal, sub.goal | 1 << leaves[0], sub.goal | universe):
                check(sub, s, goal)


def test_full_goal_evaluations_match_the_fully_read_graph_on_generated_tasks():
    seen = set()
    for task in GENERATED:
        states = _reachable_states(task, 6)
        # one more fact, which nothing adds: the index is shared, one short
        n = task.num_facts
        extra = task.derive(task.init, task.goal, task.name, facts=[Fact(n, "unreached", ())])
        for state in states:
            for goal in multi_fact_goals(task)[:12] + [task.goal | 1 << n, 1 | 1 << n]:
                value = check(extra, state, goal)
                seen.add("inf" if value is INF else "zero" if value == 0 else "positive")
        sub = _compile(task, states[-1], [(f,) for f in range(0, task.num_facts, 5)],
                       task.goal).task
        for state in {sub.init, *states}:
            check(sub, state & ~sub.goal, sub.goal)
    assert seen == {"inf", "zero", "positive"}


def test_derived_tasks_do_not_read_their_parents_index():
    for task in GENERATED[::3]:
        state = _reachable_states(task, 4)[-1]
        check(task, task.init, task.goal)
        index = task._layering()
        # same actions, another initial state: the index and the relevance
        # records are the parent's, and still right for the child
        moved = with_init(task, state)
        assert moved._layering() is index
        assert moved._relevance is task._relevance and moved._layered is task._layered
        check(moved, moved.init, moved.goal)
        # more actions: an index and relevance records of its own
        sub = _compile(task, state, [(0,), (task.num_facts - 1,)], task.goal).task
        assert sub._relevance is not task._relevance and sub._layered is not task._layered
        check(sub, sub.init, sub.goal)
        assert sub._layering() is not index
        assert task._layering() is index and index[1] == reference_layering(task)[1]
        # an action without preconditions, which the parent's index does not
        # hold, adding a new goal fact
        n = task.num_facts
        shortcut = task.derive(state, task.goal | 1 << n, "shortcut",
                               facts=[Fact(n, "shortcut-goal", ())],
                               actions=[Action(len(task.actions), "(shortcut)", 0, 1 << n, 0)])
        check(shortcut, state, shortcut.goal)
        assert shortcut._layering() is not index


def test_a_child_derived_before_the_index_is_built_shares_it():
    task = generate_task("logistics", (2, 2, 1, 2), 1)  # no evaluation has run on it
    assert not task._layer_index
    child = with_init(task, _reachable_states(task, 3)[-1])
    check(child, child.init, child.goal)
    assert task._layering() is child._layering()
