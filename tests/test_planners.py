import pytest

from lmplan.core import make_task, validate_plan
from lmplan.bench import gen_blocksworld
from lmplan.instances import BLOCKSWORLD_ARM_DOMAIN
from lmplan.pddl import ground_files
from lmplan.planners import Outcome, SearchLimits, bfs_plan, gbfs_plan


def iddfs_shortest(task, max_depth=12):
    """Independent cross-check: iterative deepening without duplicate
    detection, so it shares nothing with the breadth-first implementation."""
    acts = [(a.pre, a.add, a.delete) for a in task.actions]
    goal = task.goal

    def dfs(state, depth):
        if state & goal == goal:
            return 0
        if depth == 0:
            return None
        for pre, add, dele in acts:
            if state & pre == pre:
                sub = dfs((state | add) & ~dele, depth - 1)
                if sub is not None:
                    return sub + 1
        return None

    for bound in range(max_depth + 1):
        # the first bound admitting any solution is the optimal length
        if dfs(task.init, bound) is not None:
            return bound
    return None


def test_bfs_finds_two_step_route(roadmap):
    res = bfs_plan(roadmap)
    assert res.solved and len(res.plan) == 2
    assert validate_plan(roadmap, res.plan)


def test_bfs_empty_plan_when_goal_initial():
    t = make_task(actions=[("(a)", ["p"], ["q"], [])], init=["p"], goal=["p"])
    for planner in (bfs_plan, gbfs_plan):
        res = planner(t)
        assert res.solved and res.plan == ()


def test_bfs_proves_unsolvability():
    t = make_task(actions=[("(a)", ["p"], ["q"], [])], init=["p"], goal=["r"],
                  facts=["p", "q", "r"])
    res = bfs_plan(t)
    assert res.outcome is Outcome.PROVED_UNSOLVABLE


def test_gbfs_reports_exhaustion_not_unsolvability():
    t = make_task(actions=[("(a)", ["p"], ["q"], [])], init=["p"], goal=["r"],
                  facts=["p", "q", "r"])
    res = gbfs_plan(t)
    assert res.outcome is Outcome.RESOURCE_EXHAUSTED


def test_gbfs_finds_some_valid_route(roadmap):
    res = gbfs_plan(roadmap)
    assert res.solved
    assert validate_plan(roadmap, res.plan)
    assert len(res.plan) <= 3


def test_gbfs_checks_the_clock_on_every_expansion(roadmap):
    # the clock has run out before the first expansion, so nothing is expanded
    res = gbfs_plan(roadmap, SearchLimits(max_seconds=1e-9))
    assert res.outcome is Outcome.RESOURCE_EXHAUSTED
    assert res.expanded == 0


def test_node_limit_reports_exhaustion(demo_bw):
    res = bfs_plan(demo_bw, SearchLimits(max_nodes=2, max_seconds=60))
    assert res.outcome is Outcome.RESOURCE_EXHAUSTED
    assert res.expanded >= 2


@pytest.mark.parametrize("planner", [bfs_plan, gbfs_plan])
@pytest.mark.parametrize("limit", [1, 2, 5])
def test_node_limit_exit_reports_the_nodes_expanded(demo_bw, planner, limit):
    res = planner(demo_bw, SearchLimits(max_nodes=limit, max_seconds=60))
    assert res.outcome is Outcome.RESOURCE_EXHAUSTED
    assert res.expanded == limit


TWO_BLOCK_SWAP = """\
(define (problem swap) (:domain blocksworld-arm)
  (:objects a b - block)
  (:init (on a b) (on-table b) (clear a) (arm-empty))
  (:goal (and (on b a))))
"""


def test_bfs_minimality_cross_checked(roadmap, twin):
    two_block = ground_files(BLOCKSWORLD_ARM_DOMAIN, TWO_BLOCK_SWAP)
    for task in (roadmap, twin, two_block):
        res = bfs_plan(task)
        assert res.solved
        assert len(res.plan) == iddfs_shortest(task)


def test_plans_validate_on_random_instances():
    for seed in range(3):
        task = ground_files(BLOCKSWORLD_ARM_DOMAIN, gen_blocksworld(4, "arm", seed))
        for planner in (bfs_plan, gbfs_plan):
            res = planner(task)
            assert res.solved
            assert validate_plan(task, res.plan)


def test_gbfs_solves_six_block_instance_within_defaults():
    task = ground_files(BLOCKSWORLD_ARM_DOMAIN, gen_blocksworld(6, "arm", 11))
    res = gbfs_plan(task)
    assert res.solved and validate_plan(task, res.plan)


def test_statistics_are_populated(roadmap):
    res = bfs_plan(roadmap)
    assert res.expanded >= 1 and res.seconds >= 0.0
