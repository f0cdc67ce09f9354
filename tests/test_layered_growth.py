"""Whole-layer growth for goals of two or more facts.

For such a goal, ``extract_relaxed_plan`` grows each relaxed layer at once:
the goal's relevant actions that fire are those no missing fact consumes
(``core.layering``'s consumer index, the relevant-action mask of the goal's
``rpg._relevance`` entry).  Every such evaluation must equal extraction from
the reference fixpoint graph, which grows every layer over all actions one
at a time, on random tasks, ``with_init`` tasks and compiled sub-tasks.
Every task, derived or not, builds its own relevance records, kept while
the task lives.  The consumer index is kept per action set: a ``with_init``
task reads its parent's, a task with new facts or actions builds its own.
"""

from __future__ import annotations

import gc
import weakref

from hypothesis import given, settings, strategies as st

from lmplan.bench import generate_task
from lmplan.control import _compile, compile_disjunctive_goal, with_init
from lmplan.core import Action, Fact, bits, layering
from lmplan import rpg
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
        waiting, _, consumers, adds = rpg._relevance(task, goal)[2]
        assert (consumers, adds) == reference_layering(task)
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
    # with_init builds an index of its own
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
        # one more fact, which nothing adds: an index of its own, one longer
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
        index = task.shared_index(layering)
        # same actions, another initial state: relevance records of its own,
        # built from the shared cones, and the parent's index
        moved = with_init(task, state)
        check(moved, moved.init, moved.goal)
        assert rpg._RECORDS[moved] is not rpg._RECORDS[task]
        assert rpg._RECORDS[moved][task.goal] is not rpg._RECORDS[task][task.goal]
        assert moved.shared_index(layering) is index
        assert index == reference_layering(moved)
        assert moved._cones is task._cones
        # more actions: the same
        sub = _compile(task, state, [(0,), (task.num_facts - 1,)], task.goal).task
        check(sub, sub.init, sub.goal)
        assert rpg._RECORDS[sub] is not rpg._RECORDS[task]
        assert sub.shared_index(layering) is not index
        assert sub._cones is task._cones
        assert task.shared_index(layering) is index and index == reference_layering(task)
        # an action without preconditions, which the parent's index does not
        # hold, adding a new goal fact
        n = task.num_facts
        shortcut = task.derive(state, task.goal | 1 << n, "shortcut",
                               facts=[Fact(n, "shortcut-goal", ())],
                               actions=[Action(len(task.actions), "(shortcut)", 0, 1 << n, 0)])
        check(shortcut, state, shortcut.goal)
        assert shortcut.shared_index(layering) is not index


def test_a_child_builds_its_own_index_equal_to_the_reference():
    task = generate_task("logistics", (2, 2, 1, 2), 1)  # no evaluation has run on it
    assert task not in rpg._RECORDS
    child = with_init(task, _reachable_states(task, 3)[-1])
    check(child, child.init, child.goal)
    assert task not in rpg._RECORDS
    assert child.shared_index(layering) == reference_layering(child) == reference_layering(task)


def test_a_tasks_records_die_with_the_task():
    task = generate_task("logistics", (2, 2, 1, 2), 1)
    check(task, task.init, task.goal)
    record = rpg._RECORDS[task]
    assert record and task._indexes[layering] is task.shared_index(layering)
    alive = weakref.ref(task)
    gc.collect()
    before = len(rpg._RECORDS)
    del task, record
    gc.collect()
    assert alive() is None
    assert len(rpg._RECORDS) == before - 1
