"""Differential tests for the task indexes that the heuristic and the control
loop read.

The references below are the implementations the fast paths replaced, kept
unchanged: ``Task.relevance`` as one backward pass per goal, and the task
indexes (``_adder_mask``, ``_adder_pre``, ``ops``) rebuilt from
the whole action list, which is what ``Task._append`` did for every derived
task.  The relevance cones that derived tasks share with the task they come
from must give the same relevant actions as the one-pass reference, on
compiled sub-tasks, on ``with_init`` tasks and on a derived task whose new
action reads facts whose cones are kept.  A derived task's new action may
not add a fact that was there before.
"""

from __future__ import annotations

import pytest

from lmplan.bench import generate_task
from lmplan.control import _compile, compile_disjunctive_goal, with_init
from lmplan.core import Action, Fact, PlanningError, Task, bits
from lmplan.pipeline import build_landmark_graph

from test_pipeline_differential import GENERATED, _reachable_states


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def reference_relevance(task: Task, goal: int) -> tuple[tuple, tuple]:
    """Backward relevance of ``goal`` in the delete relaxation: the ops
    of the relevant actions (those adding a goal or a precondition of
    another relevant action), in ops order, split into the goal's
    achievers and the rest."""
    adder_mask, adder_pre = task._adder_mask, task._adder_pre
    facts = frontier = goal
    chosen = 0  # relevant actions, as a mask over ids
    while frontier:
        pre = 0
        for f in bits(frontier):
            chosen |= adder_mask[f]
            pre |= adder_pre[f]
        frontier = pre & ~facts
        facts |= frontier
    achievers, others = [], []
    for op in task.ops:
        if chosen >> op[0] & 1:
            (achievers if op[2] & goal else others).append(op)
    return tuple(achievers), tuple(others)


def reference_indexes(task: Task) -> tuple:
    """(adder masks, adder preconditions, ops) built anew from the actions."""
    adder_mask = [0] * task.num_facts
    adder_pre = [0] * task.num_facts
    for a in task.actions:
        for f in bits(a.add):
            adder_mask[f] |= 1 << a.id
            adder_pre[f] |= a.pre
    ops = tuple((a.id, a.pre, a.add, a.delete) for a in task.actions)
    return tuple(adder_mask), tuple(adder_pre), ops


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _same_relevance(task: Task, goal: int) -> None:
    achievers, feeders, deeper, others = task.relevance(goal)
    ref_achievers, ref_others = reference_relevance(task, goal)
    assert achievers == ref_achievers
    # the feeders are the rest's adders of the achievers' preconditions, and
    # the deeper ops the rest's other adders of those facts and of the
    # preconditions of their adders, set apart for a one-fact goal only
    assert tuple(sorted(feeders + deeper + others)) == ref_others
    feeding = needs = 0
    if goal and goal & (goal - 1) == 0:
        for op in achievers:
            feeding |= op[1]
        needs = feeding
        for op in ref_achievers + ref_others:
            if op[2] & feeding:
                needs |= op[1]
    assert feeders == tuple(op for op in ref_others if op[2] & feeding)
    assert deeper == tuple(op for op in ref_others if op[2] & needs and not op[2] & feeding)


def _same_indexes(task: Task) -> None:
    assert (task._adder_mask, task._adder_pre, task.ops) == reference_indexes(task)


def _goals(task: Task) -> list[int]:
    one_fact = [1 << f for f in range(task.num_facts)]
    return [task.goal, task.goal | task.init, 0] + one_fact


def test_relevance_matches_reference_on_generated_tasks():
    for task in GENERATED:
        for goal in _goals(task):
            _same_relevance(task, goal)


def test_relevance_and_indexes_match_reference_on_compiled_subtasks():
    for task in GENERATED:
        g = build_landmark_graph(task)
        leaves = [f for f in g.leaves() if not task.init >> f & 1] or list(g.nodes)
        # sibling sub-tasks share the new goal fact's id but not its achievers,
        # and share the original facts' cones with their task
        subtasks = [compile_disjunctive_goal(task, task.init, leaves).task,
                    compile_disjunctive_goal(task, task.init, leaves[:1]).task,
                    _compile(task, task.init, [tuple(leaves)], task.goal).task]
        for sub in subtasks:
            _same_indexes(sub)
            for goal in [sub.goal, task.goal] + [1 << f for f in leaves]:
                _same_relevance(sub, goal)
        assert subtasks[0]._cones is task._cones


def test_relevance_matches_reference_on_with_init_tasks():
    for task in GENERATED:
        task.relevance(task.goal)
        for state in _reachable_states(task, 4):
            moved = with_init(task, state)
            _same_indexes(moved)
            for goal in _goals(moved)[:8]:
                _same_relevance(moved, goal)


def test_derive_refuses_an_action_adding_an_old_fact():
    task = generate_task("logistics", (2, 2, 1, 2), 0)
    # memoise every original fact's cone first, so that a stale one would show
    for f in range(task.num_facts):
        task.relevance(1 << f)
    target = next(f for f in range(task.num_facts) if task._adder_mask[f] and not task.init >> f & 1)
    n, m = task.num_facts, len(task.actions)
    extra = Fact(n, "extra", ())
    shortcut = Action(m, "(shortcut)", 1 << n, 1 << target, 0)
    seed = Action(m + 1, "(seed)", 0, 1 << n, 0)
    with pytest.raises(PlanningError, match="adds a fact of the task it extends"):
        task.derive(task.init, 1 << target, "derived", facts=[extra], actions=[shortcut, seed])
    # an action from the target to the new fact: the cones are shared
    onward = Action(m, "(onward)", 1 << target, 1 << n, 0)
    derived = task.derive(task.init, 1 << n, "derived", facts=[extra], actions=[onward])
    _same_indexes(derived)
    assert derived._cones is task._cones
    for goal in _goals(derived):
        _same_relevance(derived, goal)
    assert [op[0] for op in derived.relevance(1 << n)[0]] == [m]


def test_derived_tasks_keep_the_indexes_of_a_constructed_task():
    for task in GENERATED[:4]:
        state = _reachable_states(task, 3)[-1]
        sub = compile_disjunctive_goal(task, state, [0, task.num_facts - 1]).task
        built = Task(sub.facts, sub.actions, sub.init, sub.goal, name=sub.name)
        _same_indexes(built)
        assert (sub._adder_mask, sub._adder_pre, sub.ops) == \
            (built._adder_mask, built._adder_pre, built.ops)
