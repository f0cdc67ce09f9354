"""``control.solve``, the one landmark on/off dispatch, and the bench harness
that runs through it."""

import time

import pytest

from lmplan import bench, control, orders, pipeline
from lmplan.bench import generate_task, run_config_detail
from lmplan.control import ControlConfig, run_control, solve
from lmplan.core import PlanningError
from lmplan.instances import BLOCKSWORLD_ARM_DOMAIN
from lmplan.pddl import ground_files
from lmplan.pipeline import build_landmark_graph
from lmplan.planners import PLANNERS, Outcome, PlannerResult, SearchLimits, bfs_plan

# Plain BFS on logistics 2-3-2-4 is left out: it takes about 2.5 s per seed
# on each side, and the plain path is the same code for both planners.
CASES = [(domain, size, planner, landmarks)
         for domain, size in (("blocksworld-arm", 6), ("logistics", (2, 3, 2, 4)))
         for planner in ("bfs", "gbfs")
         for landmarks in (False, True)
         if (domain, planner, landmarks) != ("logistics", "bfs", False)]


def _stuck_task():
    # the arm is never empty, so (holding a) is relaxed-unreachable
    return ground_files(BLOCKSWORLD_ARM_DOMAIN, """(define (problem stuck)
      (:domain blocksworld-arm) (:objects a - block)
      (:init (on-table a) (clear a)) (:goal (holding a)))""")


@pytest.mark.parametrize("domain,size,planner,landmarks", CASES)
def test_solve_returns_the_direct_paths_plan(domain, size, planner, landmarks):
    base = PLANNERS[planner]
    cfg = ControlConfig()
    for seed in range(4):
        task = generate_task(domain, size, seed)
        if landmarks:
            expected = run_control(task, build_landmark_graph(task), base, cfg).plan
        else:
            expected = base(task, cfg.limits).plan
        plan, outcome = solve(task, base, landmarks, cfg)
        assert plan == expected, (domain, seed)
        assert outcome == ("solved" if landmarks else "plan")


@pytest.mark.parametrize("landmarks", [False, True])
def test_solve_cuts_every_call_at_the_deadline(landmarks):
    seen = []

    def recording(task, limits):
        seen.append(limits)
        return bfs_plan(task, limits)

    task = generate_task("blocksworld-arm", 5, 1)
    cfg = ControlConfig(limits=SearchLimits(123_456, 60.0))
    deadline = time.monotonic() + 5.0
    plan, _ = solve(task, recording, landmarks, cfg, deadline=deadline)
    assert plan is not None
    assert len(seen) > landmarks  # control makes several calls
    for limits in seen:
        assert limits.max_nodes == 123_456
        assert 0 < limits.max_seconds <= 5.0


def test_solve_calls_nothing_past_the_deadline():
    def never(task, limits):
        raise AssertionError("planner called after the deadline")

    task = generate_task("blocksworld-arm", 4, 0)
    assert solve(task, never, False, deadline=time.monotonic() - 1) == \
        (None, "resource-exhausted")


@pytest.mark.parametrize("landmarks", [False, True])
def test_solve_calls_nothing_on_a_provably_unsolvable_task(landmarks):
    def never(task, limits):
        raise AssertionError("planner called on a provably unsolvable task")

    assert solve(_stuck_task(), never, landmarks) == (None, "proved-unsolvable")


def _empty_plan(task, limits):
    return PlannerResult(Outcome.PLAN, (), 0, 0.0)


def test_solve_rejects_an_invalid_plan():
    task = generate_task("blocksworld-arm", 4, 0)
    assert task.init & task.goal != task.goal
    with pytest.raises(PlanningError, match="planner returned an invalid plan"):
        solve(task, _empty_plan, False)


@pytest.mark.parametrize("config", ["bfs", "gbfs", "bfs+L", "gbfs+L"])
def test_bench_records_a_provably_unsolvable_task_as_unsolved(config):
    outcome, _, length, detail = run_config_detail(_stuck_task(), config, 30)
    assert (outcome, length, detail) == ("unsolved", None, "")


def test_bench_records_an_invalid_plan_as_an_error(monkeypatch):
    monkeypatch.setitem(bench.PLANNERS, "bfs", _empty_plan)
    task = generate_task("blocksworld-arm", 4, 0)
    outcome, _, length, detail = run_config_detail(task, "bfs", 30)
    assert (outcome, length, detail) == \
        ("error", None, "PlanningError: planner returned an invalid plan")


@pytest.mark.parametrize("mode", ["disj", "conjdisj", "dnf"])
def test_solve_computes_the_mutex_table_once(mode, monkeypatch):
    calls = []

    def counted(task):
        calls.append(task)
        return orders.compute_mutexes(task)

    cfg = ControlConfig(mode=mode)
    for seed in range(2):
        task = generate_task("logistics", (2, 3, 2, 4), seed)
        expected = run_control(task, build_landmark_graph(task), PLANNERS["gbfs"], cfg).plan
        with monkeypatch.context() as m:
            m.setattr(pipeline, "compute_mutexes", counted)
            m.setattr(control, "compute_mutexes", counted)
            plan, _ = solve(task, PLANNERS["gbfs"], True, cfg)
        assert calls == [task] and plan == expected
        calls.clear()
