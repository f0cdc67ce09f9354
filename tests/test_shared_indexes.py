"""Indexes kept once per action set (``Task.shared_index``).

The grounder derives each problem's task from one kept task per object set
and reachable set, so those tasks share one record of indexes: the mutex
table's and verification's per-action records, the adders' shared effects,
the heuristic's consumer index and lookahead's per-predicate masks.  Every
stage must give on such a task what it gives on a fresh task built from
the same facts, actions, init and goal, with a record of its own.  A
``with_init`` task shares its parent's record; a task with new facts or
actions (a compiled sub-task) builds its own.

The records leave out the preconditions that no action changes.  A
hand-built task can hold an action with such a precondition false in
init, which the grounder would have pruned; it must never fire, even when
a sibling in whose init that precondition holds filled the record.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from lmplan import core, landmarks, orders
from lmplan.bench import DOMAIN_TEXTS, gen_problem, generate_task
from lmplan.control import _compile, with_init
from lmplan.core import Action, Fact, Task, make_task
from lmplan.landmarks import LGG, verify_landmarks
from lmplan.orders import compute_mutexes
from lmplan.pddl import ground_files, parse_domain
from lmplan.pipeline import build_landmark_graph
from lmplan.rpg import FIXPOINT, build_rpg, extract_relaxed_plan

from test_pipeline_differential import (
    _reachable_states,
    reference_compute_mutexes,
    reference_verify_landmarks,
)

DOMAINS = [("blocksworld-arm", 5), ("blocksworld-no-arm", 5), ("logistics", (2, 2, 1, 2))]

# what the stages keep per action set
BUILDERS = {core.action_records, orders._shared_effects, landmarks._predicate_masks,
            core.layering}


def fresh(task: Task) -> Task:
    """The same facts, actions, init and goal, with a record of its own."""
    return Task(task.facts, task.actions, task.init, task.goal, task.name)


def heuristic(task: Task, state: int, goal: int):
    return extract_relaxed_plan(build_rpg(task, FIXPOINT, state), goal)


def goals_of(task: Task) -> list[int]:
    """The full goal, each goal fact alone, and every seventh fact joined
    with the goal."""
    facts = [1 << f for f in range(task.num_facts) if task.goal >> f & 1]
    return [task.goal, *facts, *(task.goal | 1 << f for f in range(0, task.num_facts, 7))]


def same_stages(task: Task, states: list[int]) -> None:
    """Each stage on ``task`` (reading its record, perhaps filled by a
    sibling) gives what it gives on a fresh task."""
    other = fresh(task)
    assert other._indexes is not task._indexes
    table = compute_mutexes(task)
    assert table._co == compute_mutexes(other)._co == reference_compute_mutexes(task)._co
    assert build_landmark_graph(task, table=table) == build_landmark_graph(other)
    for state in states:
        for goal in goals_of(task):
            assert heuristic(task, state, goal) == heuristic(other, state, goal)


@pytest.mark.parametrize("domain,size", DOMAINS)
def test_the_problems_of_one_object_set_share_one_record(domain, size):
    tasks = [generate_task(domain, size, seed) for seed in range(6)]
    assert all(t._indexes is tasks[0]._indexes for t in tasks)
    for task in tasks:
        states = _reachable_states(task, 12)
        same_stages(task, states)
        # the first task filled the record; the others read it
        assert BUILDERS <= set(task._indexes)
        moved = with_init(task, states[-1])
        assert moved._indexes is task._indexes
        same_stages(moved, states[:3])


@pytest.mark.parametrize("domain,size", DOMAINS)
def test_a_task_with_new_facts_or_actions_builds_its_own_record(domain, size):
    task = generate_task(domain, size, 1)
    state = _reachable_states(task, 6)[-1]
    same_stages(task, [state])
    leaves = [f for f in range(task.num_facts) if not state >> f & 1][:3]
    for sub in (_compile(task, state, [(f,) for f in leaves]).task,
                _compile(task, state, [tuple(leaves)], task.goal).task):
        assert sub._indexes is not task._indexes
        for goal in (sub.goal, sub.goal | task.goal):
            assert heuristic(sub, sub.init, goal) == heuristic(fresh(sub), sub.init, goal)
        assert sub.shared_index(core.layering) != task.shared_index(core.layering)
    n = task.num_facts
    shortcut = task.derive(state, task.goal | 1 << n, "shortcut",
                           facts=[Fact(n, "shortcut-goal", ())],
                           actions=[Action(len(task.actions), "(shortcut)", 0, 1 << n, 0)])
    assert shortcut._indexes is not task._indexes
    assert heuristic(shortcut, state, 1 << n) == 1
    for goal in (shortcut.goal, 1 << n | 1):
        assert heuristic(shortcut, state, goal) == heuristic(fresh(shortcut), state, goal)
    assert compute_mutexes(shortcut)._co == reference_compute_mutexes(shortcut)._co


def false_static_task() -> Task:
    """``cheat`` needs (s), which init lacks and no action adds or deletes:
    it never fires, so (a) and (g) are mutex and (b) is a landmark."""
    return make_task(
        [("cheat", ["(s)"], ["(g)"], []),
         ("step1", ["(a)"], ["(b)"], []),
         ("step2", ["(b)"], ["(g)"], ["(a)"])],
        init=["(a)"], goal=["(g)"])


def every_fact(task: Task) -> LGG:
    g = LGG()
    for f in range(task.num_facts):
        g.add_node(f)
    return g


def test_an_action_with_a_false_static_precondition_never_fires():
    task = false_static_task()
    a, b, g, s = (task.fact_named(n).id for n in ("(a)", "(b)", "(g)", "(s)"))
    # a sibling in whose init (s) holds fills the record first: there cheat
    # fires, and (s) is left out of the records
    sibling = task.derive(task.init | 1 << s, task.goal, "sibling")
    assert sibling._indexes is task._indexes
    for t in (sibling, task):
        assert compute_mutexes(t)._co == reference_compute_mutexes(t)._co
        assert verify_landmarks(t, every_fact(t)) == reference_verify_landmarks(t, every_fact(t))
    assert core.action_records in task._indexes
    assert not compute_mutexes(sibling).query(a, g)
    assert compute_mutexes(task).query(a, g)
    assert b not in verify_landmarks(sibling, every_fact(sibling))
    assert b in verify_landmarks(task, every_fact(task))
    assert b in build_landmark_graph(task) and b not in build_landmark_graph(sibling)
    # and the same on a task whose record holds nothing of the sibling's
    alone = fresh(task)
    assert compute_mutexes(alone)._co == compute_mutexes(task)._co
    assert verify_landmarks(alone, every_fact(alone)) == verify_landmarks(task, every_fact(task))


class Probe:
    """A value that can be weakly referenced."""


def probe(task: Task) -> Probe:
    return Probe()


def test_the_record_lives_while_the_memo_holds_its_action_set():
    # a domain text of its own, so that no task of another test shares the set
    text = DOMAIN_TEXTS["blocksworld-arm"] + "\n; the record's lifetime\n"
    task = ground_files(text, gen_problem("blocksworld-arm", 4, 1))
    alive = weakref.ref(task.shared_index(probe))
    del task
    gc.collect()
    # the memo keeps the action set's task, and with it the record
    again = ground_files(text, gen_problem("blocksworld-arm", 4, 2))
    assert again.shared_index(probe) is alive()
    moved = with_init(again, again.goal)
    parse_domain(text).plan.object_sets.clear()
    del again
    gc.collect()
    assert moved.shared_index(probe) is alive()  # a task of the set still lives
    del moved
    gc.collect()
    assert alive() is None
