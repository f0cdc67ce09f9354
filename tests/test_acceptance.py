"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest -v -s tests/test_acceptance.py``.  The random-instance
suites are deterministic (fixed seed bases).
"""

import math
import random
import statistics
import time

import pytest

from lmplan.bench import generate_task, run_config
from lmplan.control import ControlConfig, ControlOutcome, compile_disjunctive_goal, run_control
from lmplan.core import validate_plan
from lmplan.landmarks import GN, LN, R, RO, generate_candidates, lookahead_extend, verify_landmarks
from lmplan.oracles import (
    co_occurrence,
    enumerate_states,
    first_achiever_pre_mask,
    oracle_landmark,
    oracle_reasonable,
)
from lmplan.orders import add_obedient_orders, add_reasonable_orders, compute_mutexes, remove_cycles
from lmplan.pipeline import PipelineConfig, build_landmark_graph
from lmplan.planners import Outcome, SearchLimits, bfs_plan, gbfs_plan
from lmplan.rpg import GOALS_FIRST, build_rpg
from lmplan.instances import (
    blocksworld_demo_task,
    logistics_two_planes_task,
    roadmap_task,
    shared_add_task,
    twin_goal_task,
)

from conftest import fid, topological_order_exists
from test_pipeline_differential import interference_conditions

FIG_NODES = {
    "(on c a)", "(on b d)", "(holding c)", "(clear a)", "(holding b)",
    "(clear d)", "(clear c)", "(on-table c)", "(arm-empty)", "(on-table b)",
    "(clear b)", "(on d c)",
}


def test_criterion_1_four_block_graph_reproduction():
    t0 = time.monotonic()
    task = blocksworld_demo_task()
    rpg = build_rpg(task, GOALS_FIRST)
    candidates = generate_candidates(task, rpg)
    verified = verify_landmarks(task, candidates)
    assert {task.facts[n].name for n in verified.nodes} == FIG_NODES
    assert set(verified.nodes) == set(candidates.nodes), "verification removed a node"
    assert set(verified.edges) == set(candidates.edges)
    assert verified.has_edge(fid(task, "(clear d)"), fid(task, "(clear c)"), GN)
    ordered = add_reasonable_orders(task, verified, compute_mutexes(task))
    assert ordered.has_edge(fid(task, "(clear c)"), fid(task, "(on b d)"), R)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: four-block graph exact (12 nodes, key edges) in {elapsed:.2f}s")


def test_criterion_2_roadmap_reproduction():
    t0 = time.monotonic()
    task = roadmap_task()
    rpg = build_rpg(task, GOALS_FIRST)
    g = generate_candidates(task, rpg)
    named = {(task.facts[s].name, task.facts[d].name, k) for s, d, k in g.edges}
    assert {task.facts[n].name for n in g.nodes} == {"(at a)", "(at e)", "(at d)"}
    assert named == {("(at a)", "(at e)", GN), ("(at e)", "(at d)", GN)}
    gv = verify_landmarks(task, g)
    assert {task.facts[n].name for n in gv.nodes} == {"(at a)", "(at d)"}
    assert gv.edges == ()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 2: road-map candidate and verified graphs exact in {elapsed:.2f}s")


def test_criterion_3_oracle_fixtures():
    t0 = time.monotonic()
    twin = twin_goal_task()
    from lmplan.oracles import count_solutions_of_length

    l, lp = fid(twin, "l"), fid(twin, "lp")
    assert oracle_reasonable(twin, l, lp) and oracle_reasonable(twin, lp, l)
    assert count_solutions_of_length(twin, 3) == 2
    assert count_solutions_of_length(twin, 2) == 0

    shared = shared_add_task()
    sl, slp = fid(shared, "l"), fid(shared, "lp")
    table = compute_mutexes(shared)
    rpg = build_rpg(shared, GOALS_FIRST)
    g = verify_landmarks(shared, generate_candidates(shared, rpg))
    conds = interference_conditions(shared, table, g, sl, slp)
    assert conds == (False, True, False, False), conds
    from lmplan.oracles import oracle_inconsistent

    assert not oracle_inconsistent(shared, sl, slp)
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0
    print(f"\n[PASS] criterion 3: twin-goal and shared-add oracle fixtures in {elapsed:.2f}s")


def _soundness_instances():
    jobs = []
    for size in (3, 4, 5):
        jobs += [("blocksworld-arm", size, s) for s in range(30)]
    for size in (3, 4, 5):
        jobs += [("blocksworld-no-arm", size, s) for s in range(20)]
    jobs += [("logistics", (2, 2, 1, 1), s) for s in range(15)]
    jobs += [("logistics", (2, 2, 2, 1), s) for s in range(15)]
    jobs += [("logistics", (2, 2, 1, 2), s) for s in range(10)]
    jobs += [("logistics", (2, 3, 1, 1), s) for s in range(10)]
    return jobs


@pytest.mark.slow
def test_criterion_4_soundness_suites():
    t0 = time.monotonic()
    jobs = _soundness_instances()
    assert len(jobs) == 200
    checked_landmarks = checked_mutexes = checked_plans = checked_r = 0
    for domain, size, seed in jobs:
        task = generate_task(domain, size, seed)
        assert not task.provably_unsolvable
        space = enumerate_states(task, cap=200_000)

        rpg = build_rpg(task, GOALS_FIRST)
        g = lookahead_extend(task, rpg, generate_candidates(task, rpg))
        g = verify_landmarks(task, g)
        table = compute_mutexes(task)
        g_orders = add_obedient_orders(task, add_reasonable_orders(task, g, table), table)
        g_final = remove_cycles(g_orders)

        # (a) every verified landmark is a landmark
        for n in g.nodes:
            assert oracle_landmark(task, n, space=space), \
                (domain, size, seed, task.facts[n].name)
            checked_landmarks += 1

        # (b) every mutex pair is exactly inconsistent
        co = co_occurrence(space, task.num_facts)
        for x, y in table.pairs():
            assert not co[x] >> y & 1, (domain, size, seed,
                                        task.facts[x].name, task.facts[y].name)
            checked_mutexes += 1

        # (c) planner plans obey every exactly-confirmed greedy order
        plans = []
        for planner in (bfs_plan, gbfs_plan):
            res = planner(task)
            assert res.solved
            plans.append(res.plan)
        trace = run_control(task, g_final, bfs_plan)
        assert trace.solved
        plans.append(trace.plan)
        added_facts = set()
        for plan in plans:
            for aid in plan:
                add = task.actions[aid].add
                for f in range(task.num_facts):
                    if add >> f & 1:
                        added_facts.add(f)
        gn_mask = {}
        for lp in added_facts:
            if task.init >> lp & 1:
                continue
            gn_mask[lp] = first_achiever_pre_mask(task, lp)
        for plan in plans:
            first_add = {}
            for i, aid in enumerate(plan):
                for f in range(task.num_facts):
                    if task.actions[aid].add >> f & 1 and f not in first_add:
                        first_add[f] = i
            for lp, mask in gn_mask.items():
                if lp not in first_add:
                    continue
                for l in range(task.num_facts):
                    if not mask >> l & 1:
                        continue
                    if task.init >> l & 1:
                        continue
                    assert l in first_add and first_add[l] < first_add[lp], \
                        (domain, size, seed, task.facts[l].name, task.facts[lp].name)
                    checked_plans += 1

        # (d) cycle removal is conservative and complete
        assert topological_order_exists(g_final)
        structural = {(s, d, k) for s, d, k in g_orders.edges if k in (GN, LN)}
        assert structural == {(s, d, k) for s, d, k in g_final.edges if k in (GN, LN)}

        # bonus invariant: with exact greedy edges and exact mutexes, every
        # emitted r edge passes the exact reasonable-order decision
        if len(space) <= 1200:
            gn_confirmed = True
            for s, d, k in g.edges:
                if k is not GN:
                    continue
                m = gn_mask.get(d)
                if m is None:
                    m = gn_mask[d] = first_achiever_pre_mask(task, d)
                if not m >> s & 1:
                    gn_confirmed = False
                    break
            # arm-variant first achievers are unique (everything passes
            # through the holding bottleneck), so every greedy edge must
            # survive the exact check there; elsewhere unsound edges are
            # legal (the price of the level test: e.g. in the no-arm
            # variant a block can detour over another block before its
            # first landing on the table) and only disable the
            # reasonable-edge cross-check
            if domain == "blocksworld-arm":
                assert gn_confirmed, (domain, size, seed)
            if gn_confirmed:
                for s, d, k in g_orders.edges:
                    if k is R:
                        assert oracle_reasonable(task, s, d), \
                            (domain, size, seed, task.facts[s].name, task.facts[d].name)
                        checked_r += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"\n[PASS] criterion 4: 200 instances, {checked_landmarks} landmark checks, "
          f"{checked_mutexes} mutex checks, {checked_plans} order-obedience checks, "
          f"{checked_r} reasonable-edge checks, zero violations in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_5_control_never_fails_on_invertible_domains():
    t0 = time.monotonic()
    jobs = [("blocksworld-arm", 5, s) for s in range(17)]
    jobs += [("blocksworld-arm", 6, s) for s in range(17)]
    jobs += [("blocksworld-arm", 7, s) for s in range(16)]
    jobs += [("logistics", (2, 2, 2, 2), s) for s in range(10)]
    jobs += [("logistics", (2, 3, 2, 2), s) for s in range(10)]
    assert len(jobs) == 70
    for domain, size, seed in jobs:
        task = generate_task(domain, size, seed)
        g = build_landmark_graph(task)
        trace = run_control(task, g, bfs_plan, ControlConfig())
        assert trace.outcome is not ControlOutcome.SUBTASK_FAILED, (domain, size, seed)
        assert trace.solved, (domain, size, seed, trace.outcome)
        assert validate_plan(task, trace.plan), (domain, size, seed)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"\n[PASS] criterion 5: 70 control runs, no subtask failures, all plans valid, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_6_desk_scale_speedup():
    t0 = time.monotonic()
    failures = []

    plain, guided = [], []
    for seed in range(10):
        task = generate_task("blocksworld-arm", 8, seed)
        plain.append(run_config(task, "bfs", time_limit=60.0))
        guided.append(run_config(task, "bfs+L", time_limit=60.0))
    solved_plain = sum(1 for o, _, _ in plain if o == "solved")
    solved_guided = sum(1 for o, _, _ in guided if o == "solved")
    both = [(p[1], g[1]) for p, g in zip(plain, guided)
            if p[0] == g[0] == "solved"]
    geomean = math.exp(statistics.fmean(
        math.log(max(p, 1e-3) / max(g, 1e-3)) for p, g in both)) if both else float("inf")
    print(f"\n  blocksworld-arm n=8: bfs solved {solved_plain}/10, "
          f"bfs+L solved {solved_guided}/10, geomean speedup {geomean:.1f}x")
    if solved_guided < min(2 * solved_plain, 10):
        failures.append(
            f"bfs+L solved {solved_guided} < min(2x plain {solved_plain}, 10)")
    if both and geomean < 5.0:
        failures.append(f"geomean speedup {geomean:.2f} < 5x")

    gb, gl, lb, ll = [], [], [], []
    for seed in range(10):
        task = generate_task("logistics", (2, 3, 2, 4), seed)
        o1, s1, n1 = run_config(task, "gbfs", time_limit=60.0)
        o2, s2, n2 = run_config(task, "gbfs+L", time_limit=60.0)
        assert o1 == o2 == "solved"
        gb.append(s1)
        gl.append(s2)
        lb.append(n1)
        ll.append(n2)
    mean_base, mean_lm = statistics.fmean(gb), statistics.fmean(gl)
    print(f"  logistics 2 cities / 4 packages: gbfs mean {mean_base:.3f}s, "
          f"gbfs+L mean {mean_lm:.3f}s; mean lengths {statistics.fmean(lb):.1f} "
          f"vs {statistics.fmean(ll):.1f}")
    if mean_lm > mean_base:
        failures.append(
            f"gbfs+L mean runtime {mean_lm:.3f}s > gbfs {mean_base:.3f}s "
            "(pipeline overhead cannot amortize at this instance size)")
    if statistics.fmean(ll) > 2 * statistics.fmean(lb):
        failures.append("landmark plans more than 2x longer")

    elapsed = time.monotonic() - t0
    print(f"  criterion 6 measurements took {elapsed:.0f}s")
    assert not failures, "; ".join(failures)
    print("[PASS] criterion 6: desk-scale speedups hold")


def test_criterion_7_lookahead_order():
    t0 = time.monotonic()
    task = logistics_two_planes_task()
    g = build_landmark_graph(task)
    origin = fid(task, "(at pack1 la-airport)")
    dest = fid(task, "(at pack1 boston-airport)")
    assert origin in g
    assert g.has_edge(origin, dest, LN)
    g_off = build_landmark_graph(task, PipelineConfig(lookahead=False))
    assert origin not in g_off
    assert not any(k is LN for _, _, k in g_off.edges)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 7: lookahead order appears and disappears with the flag, {elapsed:.2f}s")


def test_criterion_8_goal_compilation_correctness():
    t0 = time.monotonic()
    rng = random.Random(20240817)
    tasks = [
        roadmap_task(),
        twin_goal_task(),
        shared_add_task(),
        generate_task("blocksworld-arm", 3, 0),
        generate_task("blocksworld-arm", 3, 5),
        generate_task("logistics", (2, 2, 1, 1), 1),
    ]
    checked = 0
    while checked < 100:
        task = rng.choice(tasks)
        state = task.init
        for _ in range(rng.randrange(0, 8)):
            applicable = [a for a in task.actions if state & a.pre == a.pre]
            if not applicable:
                break
            a = rng.choice(applicable)
            state = (state | a.add) & ~a.delete
        k = rng.randrange(1, min(4, task.num_facts + 1))
        disj = rng.sample(range(task.num_facts), k)

        from lmplan.control import with_init

        reach = enumerate_states(with_init(task, state))
        reachable = any(any(s >> f & 1 for s in reach) for f in disj)
        compiled = compile_disjunctive_goal(task, state, disj)
        res = bfs_plan(compiled.task)
        assert res.solved == reachable, (task.name, disj, reachable)
        if res.solved:
            bare = compiled.unmap(res.plan)
            from lmplan.core import result_state

            final = result_state(task, bare, state=state)
            assert final is not None
            assert any(final >> f & 1 for f in disj)
        checked += 1
    elapsed = time.monotonic() - t0
    print(f"\n[PASS] criterion 8: 100 compiled sub-tasks agree with reachability, "
          f"unmapped fragments apply, {elapsed:.0f}s")
