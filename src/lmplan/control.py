"""Search-control decomposition: pose the landmark graph's leaves to a base
planner as a disjunctive goal, execute the returned fragment, drop the
achieved leaves, repeat; finish with one call on the original goal.

Variants: additionally conjoin already-achieved top-level goals, or pose the
leaves as a DNF of greedily built maximal pairwise-consistent subsets.  An
optional safety net re-runs the base planner from a failed iteration's start
state with the original goal.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import Action, Fact, PlanningError, Task, mask_of, result_state, validate_plan
from .landmarks import LGG
from .orders import InconsistencyTable, compute_mutexes
from .pipeline import build_landmark_graph
from .planners import BasePlanner, Outcome, PlannerResult, SearchLimits

MODE_DISJ = "disj"
MODE_CONJ_DISJ = "conjdisj"
MODE_DNF = "dnf"


@dataclass(frozen=True)
class ControlConfig:
    mode: str = MODE_DISJ
    safety_net: bool = False
    limits: SearchLimits = field(default_factory=SearchLimits)

    def __post_init__(self):
        if self.mode not in (MODE_DISJ, MODE_CONJ_DISJ, MODE_DNF):
            raise ValueError(f"unknown control mode {self.mode!r}")
        if self.limits.max_nodes <= 0 or self.limits.max_seconds <= 0:
            raise ValueError("limits must be positive")


class ControlOutcome(enum.Enum):
    SOLVED = "solved"
    SUBTASK_FAILED = "subtask-failed"
    BASE_PLANNER_FAILED = "base-planner-failed"


@dataclass(frozen=True)
class IterationRecord:
    disjuncts: tuple[int, ...]
    subplan: tuple[int, ...]
    state_after: int
    removed: tuple[int, ...]


@dataclass
class ControlTrace:
    outcome: ControlOutcome
    plan: Optional[tuple[int, ...]]
    iterations: list[IterationRecord]
    failed_iteration: Optional[int] = None
    safety_net_used: bool = False

    @property
    def solved(self) -> bool:
        return self.outcome is ControlOutcome.SOLVED


@dataclass(frozen=True)
class CompiledGoal:
    """A sub-task plus the mapping back to original action ids."""

    task: Task
    original_actions: int  # ids below this are original

    def unmap(self, plan: Sequence[int]) -> tuple[int, ...]:
        return tuple(a for a in plan if a < self.original_actions)


def _compile(task: Task, state: int, disjunct_sets: Sequence[tuple[int, ...]],
             conj_mask: int = 0) -> CompiledGoal:
    """Goal compilation: a fresh goal fact, one artificial action per
    disjunct set (precondition = the whole set), goal = fresh fact plus any
    conjunctive carry-over."""
    if not disjunct_sets:
        raise PlanningError("empty disjunction")
    n = task.num_facts
    m = len(task.actions)
    actions = [Action(m + i, f"(subtask-disjunct-{i})", mask_of(conj), 1 << n, 0)
               for i, conj in enumerate(disjunct_sets)]
    return CompiledGoal(
        task.derive(state, (1 << n) | conj_mask, f"{task.name}-subtask",
                    facts=[Fact(n, "subtask-goal", ())], actions=actions),
        original_actions=m,
    )


def compile_disjunctive_goal(task: Task, state: int,
                             disjuncts: Sequence[int]) -> CompiledGoal:
    """One artificial action per single-fact disjunct."""
    return _compile(task, state, [(d,) for d in disjuncts])


def _consistent_partition(leaf_ids: Sequence[int], table: InconsistencyTable) -> list[tuple[int, ...]]:
    """Greedy partition of leaves into maximal pairwise-consistent subsets."""
    groups: list[list[int]] = []
    for f in sorted(leaf_ids):
        for grp in groups:
            if all(not table.query(f, other) for other in grp):
                grp.append(f)
                break
        else:
            groups.append([f])
    return [tuple(grp) for grp in groups]


def with_init(task: Task, state: int) -> Task:
    return task.derive(state, task.goal, task.name)


def run_control(task: Task, g: LGG, base: BasePlanner,
                config: ControlConfig = ControlConfig(),
                table: Optional[InconsistencyTable] = None) -> ControlTrace:
    """Drive ``base`` through the landmark decomposition of ``task``.

    ``g`` is acyclic, holding only landmarks, as ``build_landmark_graph``
    returns it.  Initial facts are dropped up front.
    Each iteration poses the current leaves (per the configured mode) from
    the current state; achieved leaves are removed wholesale after the
    fragment executes.  Leaves already true in the current state count as
    achieved when the fragment adds no disjunct, which keeps the loop live.
    The run finishes with a base call on the original goal unless it already
    holds.
    """
    if config.mode == MODE_DNF and table is None:
        table = compute_mutexes(task)

    g = g.copy()
    g.remove_nodes(f for f in g.nodes if task.init >> f & 1)

    s = task.init
    plan: list[int] = []
    achieved_goals = 0  # conjunctive carry-over, top-level goals only
    iterations: list[IterationRecord] = []

    while len(g):
        disj = g.leaves()
        if config.mode == MODE_DNF:
            sets = _consistent_partition(disj, table)
        else:
            sets = [(d,) for d in disj]
        conj = achieved_goals if config.mode == MODE_CONJ_DISJ else 0
        compiled = _compile(task, s, sets, conj)
        res = base(compiled.task, config.limits)
        if not res.solved:
            idx = len(iterations)
            if config.safety_net:
                net = base(with_init(task, s), config.limits)
                if net.solved:
                    plan.extend(net.plan)
                    return ControlTrace(ControlOutcome.SOLVED, tuple(plan),
                                        iterations, failed_iteration=idx,
                                        safety_net_used=True)
            return ControlTrace(ControlOutcome.SUBTASK_FAILED, None, iterations,
                                failed_iteration=idx)
        fragment = compiled.unmap(res.plan)
        added = 0
        for aid in fragment:
            added |= task.actions[aid].add
        s_next = result_state(task, fragment, s)
        if s_next is None:
            raise PlanningError("base planner returned an inapplicable fragment")
        removed = [f for f in disj if added >> f & 1]
        if not removed:
            removed = [f for f in disj if s_next >> f & 1]
        g.remove_nodes(removed)
        achieved_goals |= task.goal & mask_of(removed)
        plan.extend(fragment)
        s = s_next
        iterations.append(IterationRecord(disj, fragment, s, tuple(removed)))
        if not removed:
            return ControlTrace(ControlOutcome.SUBTASK_FAILED, None, iterations,
                                failed_iteration=len(iterations) - 1)

    if s & task.goal != task.goal:
        final = base(with_init(task, s), config.limits)
        if not final.solved:
            return ControlTrace(ControlOutcome.BASE_PLANNER_FAILED, None, iterations)
        plan.extend(final.plan)
    return ControlTrace(ControlOutcome.SOLVED, tuple(plan), iterations)


def _until(planner: BasePlanner, deadline: float) -> BasePlanner:
    """``planner`` with each call's time limit cut at ``deadline``."""
    def call(task: Task, limits: SearchLimits) -> PlannerResult:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return PlannerResult(Outcome.RESOURCE_EXHAUSTED, None, 0, 0.0)
        return planner(task, SearchLimits(limits.max_nodes, min(limits.max_seconds, remaining)))

    return call


def solve(task: Task, planner: BasePlanner, landmarks: bool,
          config: ControlConfig = ControlConfig(),
          deadline: Optional[float] = None) -> tuple[Optional[tuple[int, ...]], str]:
    """One ``planner`` call, or with ``landmarks`` the control loop over the
    task's landmark graph; every call is cut at ``deadline`` (monotonic).
    Returns the validated plan or None, and the planner's or the loop's
    outcome name ("proved-unsolvable", calling nothing, for a task the
    grounder proved unsolvable).  An invalid plan raises PlanningError."""
    if task.provably_unsolvable:
        return None, Outcome.PROVED_UNSOLVABLE.value
    if deadline is not None:
        planner = _until(planner, deadline)
    if landmarks:
        # one mutex table for the r/rO orders and a dnf-mode loop
        table = compute_mutexes(task)
        result = run_control(task, build_landmark_graph(task, table=table), planner, config, table)
    else:
        result = planner(task, config.limits)
    if not result.solved:
        return None, result.outcome.value
    if not validate_plan(task, result.plan):
        raise PlanningError("planner returned an invalid plan")
    return result.plan, result.outcome.value
