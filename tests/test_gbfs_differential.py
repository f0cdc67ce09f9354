"""Differential tests for greedy best-first search.

``reference_gbfs_plan`` below is ``gbfs_plan`` as it was before the goal
test moved ahead of heuristic evaluation: it evaluated each new successor as
soon as it generated it, so the siblings generated before a goal successor
were evaluated for nothing.  The current planner must return the same plans
and expansion counts, plain and as the control loop's base planner, while
evaluating fewer states.
"""

import heapq
import time
from typing import Optional

import pytest

from lmplan import planners
from lmplan.bench import generate_task
from lmplan.control import compile_disjunctive_goal, run_control
from lmplan.core import successors
from lmplan.pipeline import build_landmark_graph
from lmplan.planners import Outcome, PlannerResult, SearchLimits, _reconstruct, gbfs_plan
from lmplan.rpg import FIXPOINT, INF, build_rpg, extract_relaxed_plan

from conftest import fid


def reference_gbfs_plan(task, limits=SearchLimits()):
    """Greedy best-first search on the relaxed-plan length heuristic.

    States with an unreachable relaxed goal are pruned; ties break by
    insertion order.  Failure (including an emptied open list) is reported
    as resource exhaustion: this search makes no unsolvability claims.
    """
    t0 = time.monotonic()
    goal = task.goal
    init = task.init
    if init & goal == goal:
        return PlannerResult(Outcome.PLAN, (), 0, time.monotonic() - t0)

    def h(state: int):
        return extract_relaxed_plan(build_rpg(task, FIXPOINT, state), goal)

    h0 = h(init)
    if h0 is INF:
        return PlannerResult(Outcome.RESOURCE_EXHAUSTED, None, 0, time.monotonic() - t0)
    parents: dict[int, Optional[tuple[int, int]]] = {init: None}
    counter = 0
    open_list: list[tuple[float, int, int]] = [(h0, counter, init)]
    expanded = 0
    while open_list:
        _, _, s = heapq.heappop(open_list)
        expanded += 1
        # every expansion: one can take tens of milliseconds on large tasks
        if time.monotonic() - t0 > limits.max_seconds:
            break
        if expanded > limits.max_nodes:
            break
        for aid, t in successors(task.ops, s):
            if t in parents:
                continue
            parents[t] = (s, aid)
            if t & goal == goal:
                return PlannerResult(Outcome.PLAN, _reconstruct(parents, t),
                                     expanded, time.monotonic() - t0)
            ht = h(t)
            if ht is INF:
                continue
            counter += 1
            heapq.heappush(open_list, (ht, counter, t))
    return PlannerResult(Outcome.RESOURCE_EXHAUSTED, None, expanded,
                         time.monotonic() - t0)


CASES = [("blocksworld-arm", 6), ("blocksworld-arm", 8),
         ("blocksworld-no-arm", 7), ("logistics", (2, 3, 2, 4))]


def _recording(planner, log):
    def call(task, limits):
        res = planner(task, limits)
        log.append((res.outcome, res.plan, res.expanded))
        return res

    return call


@pytest.mark.parametrize("domain,size", CASES)
def test_gbfs_matches_reference_plain_and_under_control(domain, size):
    for seed in range(6):
        task = generate_task(domain, size, seed)
        new, ref = gbfs_plan(task), reference_gbfs_plan(task)
        assert (new.outcome, new.plan, new.expanded) == \
            (ref.outcome, ref.plan, ref.expanded), (domain, size, seed)

        g = build_landmark_graph(task)
        new_calls, ref_calls = [], []
        new_trace = run_control(task, g, _recording(gbfs_plan, new_calls))
        ref_trace = run_control(task, g, _recording(reference_gbfs_plan, ref_calls))
        assert new_trace.outcome == ref_trace.outcome, (domain, size, seed)
        assert new_trace.plan == ref_trace.plan, (domain, size, seed)
        assert new_calls == ref_calls, (domain, size, seed)


def test_goal_successor_and_its_siblings_are_never_evaluated(demo_bw, monkeypatch):
    # one original step (pick-up a) reaches the disjunct, then the artificial
    # action reaches the sub-task goal from that state
    compiled = compile_disjunctive_goal(demo_bw, demo_bw.init,
                                        [fid(demo_bw, "(holding a)")])
    task = compiled.task
    evaluated = []
    real = planners.extract_relaxed_plan

    def counting(rpg, goal):
        evaluated.append(rpg.start)
        return real(rpg, goal)

    monkeypatch.setattr(planners, "extract_relaxed_plan", counting)
    monkeypatch.setitem(globals(), "extract_relaxed_plan", counting)
    res = gbfs_plan(task)
    assert res.solved and len(res.plan) == 2 and res.expanded == 2
    assert compiled.unmap(res.plan) == (demo_bw.action_named("(pick-up a)").id,)

    fresh = {t for _, t in successors(task.ops, task.init)} - {task.init}
    assert len(fresh) == 3
    # h once for the start state and once per new successor of it; the
    # expansion that finds the goal successor evaluates nothing
    assert len(evaluated) == 1 + len(fresh)
    assert evaluated[0] == task.init and set(evaluated[1:]) == fresh

    evaluated.clear()
    assert reference_gbfs_plan(task).plan == res.plan
    assert len(evaluated) > 1 + len(fresh)
