"""Built-in base planners: complete breadth-first search and greedy
best-first search on the relaxed-plan length heuristic, plus the file
hand-off wrapper for driving an external planner executable.
"""

from __future__ import annotations

import enum
import heapq
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .core import Task, successors
from .rpg import FIXPOINT, INF, build_rpg, extract_relaxed_plan


class Outcome(enum.Enum):
    PLAN = "plan"
    PROVED_UNSOLVABLE = "proved-unsolvable"
    RESOURCE_EXHAUSTED = "resource-exhausted"


@dataclass(frozen=True)
class SearchLimits:
    max_nodes: int = 1_000_000
    max_seconds: float = 60.0


@dataclass(frozen=True)
class PlannerResult:
    outcome: Outcome
    plan: Optional[tuple[int, ...]]
    expanded: int
    seconds: float

    @property
    def solved(self) -> bool:
        return self.outcome is Outcome.PLAN


# names, not classes: typing keeps each alias it builds, and with it the
# classes it names, the modules of a later import of the package included
BasePlanner = Callable[["Task", "SearchLimits"], "PlannerResult"]


def _reconstruct(parents: dict, state: int) -> tuple[int, ...]:
    plan = []
    while parents[state] is not None:
        prev, aid = parents[state]
        plan.append(aid)
        state = prev
    plan.reverse()
    return tuple(plan)


def bfs_plan(task: Task, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """Uniform-cost breadth-first search with duplicate detection.

    Complete: an exhausted open list proves unsolvability.  Returned plans
    are shortest.
    """
    t0 = time.monotonic()
    goal = task.goal
    init = task.init
    if init & goal == goal:
        return PlannerResult(Outcome.PLAN, (), 0, time.monotonic() - t0)
    parents: dict[int, Optional[tuple[int, int]]] = {init: None}
    frontier = [init]
    expanded = 0
    while frontier:
        nxt: list[int] = []
        for s in frontier:
            # the clock is read before every 1024th expansion
            if expanded >= limits.max_nodes or (
                    expanded % 1024 == 1023 and time.monotonic() - t0 > limits.max_seconds):
                return PlannerResult(Outcome.RESOURCE_EXHAUSTED, None, expanded,
                                     time.monotonic() - t0)
            expanded += 1
            for aid, t in successors(task.ops, s):
                if t in parents:
                    continue
                parents[t] = (s, aid)
                if t & goal == goal:
                    return PlannerResult(Outcome.PLAN, _reconstruct(parents, t),
                                         expanded, time.monotonic() - t0)
                nxt.append(t)
        frontier = nxt
    return PlannerResult(Outcome.PROVED_UNSOLVABLE, None, expanded,
                         time.monotonic() - t0)


def gbfs_plan(task: Task, limits: SearchLimits = SearchLimits()) -> PlannerResult:
    """Greedy best-first search on the relaxed-plan length heuristic.

    States with an unreachable relaxed goal are pruned; ties break by
    insertion order.  Each expansion goal-tests all of its new successors
    before it evaluates any of them, so a goal successor ends the search
    without h being computed for it or for any of its siblings.  Failure
    (including an emptied open list) is reported as resource exhaustion:
    this search makes no unsolvability claims.
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
        # every expansion: one can take tens of milliseconds on large tasks
        if expanded >= limits.max_nodes or time.monotonic() - t0 > limits.max_seconds:
            break
        _, _, s = heapq.heappop(open_list)
        expanded += 1
        fresh = []
        for aid, t in successors(task.ops, s):
            if t in parents:
                continue
            parents[t] = (s, aid)
            if t & goal == goal:
                return PlannerResult(Outcome.PLAN, _reconstruct(parents, t),
                                     expanded, time.monotonic() - t0)
            fresh.append(t)
        for t in fresh:
            ht = h(t)
            if ht is INF:
                continue
            counter += 1
            heapq.heappush(open_list, (ht, counter, t))
    return PlannerResult(Outcome.RESOURCE_EXHAUSTED, None, expanded,
                         time.monotonic() - t0)


PLANNERS: dict[str, BasePlanner] = {"bfs": bfs_plan, "gbfs": gbfs_plan}


class ExternalPlanner:
    """File hand-off to an external planner command.

    Each call writes ``domain.pddl`` and ``problem.pddl`` for the sub-task
    into the working directory, runs the command there, and on exit code 0
    reads ``plan.txt`` (one grounded action name per line).  A timeout, a
    nonzero exit or a missing ``plan.txt`` is reported as resource
    exhaustion.  A task with two actions whose names mangle to one
    parameterless name raises ``PlanningError`` before anything is written.
    """

    def __init__(self, command: list[str], workdir: str):
        self.command = list(command)
        self.workdir = workdir

    def __call__(self, task: Task, limits: SearchLimits = SearchLimits()) -> PlannerResult:
        # imported here: subprocess and what it loads add about 0.6 MB to
        # every process that imports lmplan
        import subprocess

        from .pddl import grounded_domain_pddl, grounded_problem_pddl, parse_plan_text

        os.makedirs(self.workdir, exist_ok=True)
        with open(os.path.join(self.workdir, "domain.pddl"), "w") as fh:
            fh.write(grounded_domain_pddl(task))
        with open(os.path.join(self.workdir, "problem.pddl"), "w") as fh:
            fh.write(grounded_problem_pddl(task))
        plan_path = os.path.join(self.workdir, "plan.txt")
        if os.path.exists(plan_path):
            os.remove(plan_path)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(self.command, cwd=self.workdir,
                                  timeout=limits.max_seconds + 5,
                                  capture_output=True)
        except subprocess.TimeoutExpired:
            proc = None
        elapsed = time.monotonic() - t0
        if proc is None or proc.returncode != 0 or not os.path.exists(plan_path):
            return PlannerResult(Outcome.RESOURCE_EXHAUSTED, None, 0, elapsed)
        with open(plan_path) as fh:
            plan = parse_plan_text(task, fh.read())
        return PlannerResult(Outcome.PLAN, tuple(plan), 0, elapsed)
