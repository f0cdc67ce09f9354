import os
import subprocess
import sys
import textwrap

import pytest

from lmplan.control import (
    ControlConfig,
    ControlOutcome,
    MODE_CONJ_DISJ,
    MODE_DNF,
    compile_disjunctive_goal,
    run_control,
    with_init,
)
from lmplan.core import PlanningError, make_task, validate_plan
from lmplan.landmarks import GN, LGG
from lmplan.oracles import enumerate_states
from lmplan.pipeline import build_landmark_graph
from lmplan.planners import ExternalPlanner, Outcome, SearchLimits, bfs_plan, gbfs_plan

from conftest import fid


def test_compile_adds_one_action_per_disjunct(twin):
    disj = [fid(twin, "l"), fid(twin, "lp")]
    compiled = compile_disjunctive_goal(twin, twin.init, disj)
    assert len(compiled.task.actions) == len(twin.actions) + 2
    assert compiled.task.num_facts == twin.num_facts + 1
    goal_facts = compiled.task.facts_in(compiled.task.goal)
    assert [f.predicate for f in goal_facts] == ["subtask-goal"]


def test_compiled_singleton_solvable_iff_fact_reachable(twin):
    reachable = fid(twin, "p3")
    compiled = compile_disjunctive_goal(twin, twin.init, [reachable])
    assert bfs_plan(compiled.task).solved
    # p1 is consumed immediately and never restored
    compiled2 = compile_disjunctive_goal(
        twin, twin.mask(["l", "p2"]), [fid(twin, "p1")])
    assert bfs_plan(compiled2.task).outcome is Outcome.PROVED_UNSOLVABLE


def test_unmap_strips_artificial_actions(twin):
    compiled = compile_disjunctive_goal(twin, twin.init, [fid(twin, "l")])
    res = bfs_plan(compiled.task)
    assert res.solved
    bare = compiled.unmap(res.plan)
    assert len(bare) == len(res.plan) - 1
    assert all(a < len(twin.actions) for a in bare)


def test_leaves_on_demo_graph(demo_bw):
    g = build_landmark_graph(demo_bw)
    g.remove_nodes(f for f in g.nodes if demo_bw.init >> f & 1)
    lv = {demo_bw.facts[n].name for n in g.leaves()}
    assert "(clear c)" in lv  # all of its order sources are initial facts


def test_leaves_edgeless_and_empty():
    g = LGG()
    assert g.leaves() == ()
    g.add_node(3)
    g.add_node(7)
    assert g.leaves() == (3, 7)


def test_leaves_fault_when_a_cycle_leaked():
    g = LGG()
    g.add_node(0)
    g.add_node(1)
    g.add_edge(0, 1, GN)
    g.add_edge(1, 0, GN)
    with pytest.raises(PlanningError):
        g.leaves()


def test_roadmap_control_trace(roadmap):
    g = build_landmark_graph(roadmap)
    trace = run_control(roadmap, g, bfs_plan)
    assert trace.solved
    assert len(trace.iterations) == 1
    assert [roadmap.facts[f].name for f in trace.iterations[0].disjuncts] == ["(at d)"]
    assert len(trace.plan) == 2
    assert validate_plan(roadmap, trace.plan)


def test_empty_graph_goes_straight_to_final_call(roadmap):
    g = LGG()
    at_a = fid(roadmap, "(at a)")
    g.add_node(at_a)  # initial fact only; removed up front
    trace = run_control(roadmap, g, bfs_plan)
    assert trace.solved and trace.iterations == []
    assert len(trace.plan) == 2


def test_demo_control_full_run(demo_bw):
    g = build_landmark_graph(demo_bw)
    trace = run_control(demo_bw, g, bfs_plan)
    assert trace.outcome is ControlOutcome.SOLVED
    assert validate_plan(demo_bw, trace.plan)
    # every leaf removal is backed by the iteration's fragment or state
    for rec in trace.iterations:
        assert rec.removed


@pytest.mark.parametrize("mode", [MODE_CONJ_DISJ, MODE_DNF])
def test_control_variants_solve_demo(demo_bw, mode):
    g = build_landmark_graph(demo_bw)
    trace = run_control(demo_bw, g, bfs_plan, ControlConfig(mode=mode))
    assert trace.solved
    assert validate_plan(demo_bw, trace.plan)


def test_already_true_leaf_counts_as_achieved():
    t = make_task(
        actions=[("(both)", ["s0"], ["x", "y"], [])],
        init=["s0"], goal=["x", "y"],
    )
    x, y = fid(t, "x"), fid(t, "y")
    g = LGG()
    g.add_node(x)
    g.add_node(y)
    g.add_edge(x, y, GN)
    trace = run_control(t, g, bfs_plan)
    assert trace.solved
    # iteration 1 achieves both facts but only the leaf x is removed;
    # iteration 2 sees y already true and must still make progress
    assert trace.iterations[1].subplan == ()
    assert trace.iterations[1].removed == (y,)


def test_safety_net_recovers_from_unsolvable_subtask(roadmap):
    calls = []

    def picky_base(task, limits):
        calls.append(task.name)
        if task.name.endswith("-subtask"):
            return bfs_plan(task, SearchLimits(max_nodes=1, max_seconds=0.001))
        return bfs_plan(task, limits)

    g = build_landmark_graph(roadmap)
    without_net = run_control(roadmap, g, picky_base)
    assert without_net.outcome is ControlOutcome.SUBTASK_FAILED
    assert without_net.failed_iteration == 0
    with_net = run_control(roadmap, g, picky_base, ControlConfig(safety_net=True))
    assert with_net.solved and with_net.safety_net_used
    assert validate_plan(roadmap, with_net.plan)


def test_trace_records_failed_iteration_start_state(roadmap):
    def failing(task, limits):
        return bfs_plan(task, SearchLimits(max_nodes=1, max_seconds=0.001))

    g = build_landmark_graph(roadmap)
    trace = run_control(roadmap, g, failing)
    assert trace.outcome is ControlOutcome.SUBTASK_FAILED
    assert trace.plan is None


STUB = textwrap.dedent("""\
    import sys
    sys.path.insert(0, {src!r})
    from lmplan.pddl import ground_files
    from lmplan.planners import bfs_plan
    task = ground_files(open("domain.pddl").read(), open("problem.pddl").read())
    res = bfs_plan(task)
    if not res.solved:
        sys.exit(1)
    with open("plan.txt", "w") as fh:
        for aid in res.plan:
            fh.write(task.actions[aid].name + "\\n")
    sys.exit(0)
""")


def test_external_planner_protocol(tmp_path, roadmap):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    stub = tmp_path / "stub_planner.py"
    stub.write_text(STUB.format(src=os.path.abspath(src)))
    ext = ExternalPlanner([sys.executable, str(stub)], str(tmp_path))
    res = ext(roadmap, SearchLimits(max_seconds=60))
    assert res.solved and validate_plan(roadmap, res.plan)
    assert (tmp_path / "plan.txt").exists()
    g = build_landmark_graph(roadmap)
    trace = run_control(roadmap, g, ext)
    assert trace.solved and validate_plan(roadmap, trace.plan)


def test_external_planner_failure_signals_exhaustion(tmp_path, twin):
    stub = tmp_path / "fail_planner.py"
    stub.write_text("import sys; sys.exit(1)\n")
    ext = ExternalPlanner([sys.executable, str(stub)], str(tmp_path))
    res = ext(twin, SearchLimits(max_seconds=30))
    assert res.outcome is Outcome.RESOURCE_EXHAUSTED


def test_external_planner_timeout_signals_exhaustion(tmp_path, twin, monkeypatch):
    real_run = subprocess.run
    monkeypatch.setattr(subprocess, "run",
                        lambda *args, **kw: real_run(*args, **{**kw, "timeout": 0.2}))
    ext = ExternalPlanner([sys.executable, "-c", "import time; time.sleep(30)"],
                          str(tmp_path))
    res = ext(twin, SearchLimits(max_seconds=30))
    assert res.outcome is Outcome.RESOURCE_EXHAUSTED and res.plan is None


def test_external_planner_missing_plan_signals_exhaustion(tmp_path, twin):
    ext = ExternalPlanner([sys.executable, "-c", "pass"], str(tmp_path))
    res = ext(twin, SearchLimits(max_seconds=30))
    assert res.outcome is Outcome.RESOURCE_EXHAUSTED and res.plan is None
    assert not (tmp_path / "plan.txt").exists()


def test_with_init_replaces_start_state(roadmap):
    s = roadmap.mask(["(at e)"])
    t2 = with_init(roadmap, s)
    res = bfs_plan(t2)
    assert res.solved and len(res.plan) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        ControlConfig(mode="serial")
    with pytest.raises(ValueError):
        ControlConfig(limits=SearchLimits(max_nodes=0))
    with pytest.raises(ValueError):
        ControlConfig(limits=SearchLimits(max_seconds=0.0))


def test_compile_rejects_empty_disjunction(twin):
    with pytest.raises(PlanningError):
        compile_disjunctive_goal(twin, twin.init, [])
