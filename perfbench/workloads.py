"""The benchmark's workloads: seeded PDDL texts and the work done per item.

An item is one unit of user-visible work, from PDDL text to a checked
output.  On the plan workloads it is one (instance, config) solve: ground the
texts, plan (optionally through the landmark control loop), validate the plan.
On ``oracle-micro`` it is one instance's full cross-check of the landmark
graph against the exact oracles.

Items are laid out in rounds; a round holds one item of every stratum
(instance size x config), so any run that completes whole rounds sees the
same mix whatever its seed.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable

# Per-item limits.  Node limits are what decide an item's outcome, so the
# outcome repeats exactly across machines; the time limit is a backstop far
# above any item seen while choosing the workloads.
ITEM_NODE_LIMIT = 1_000_000
ITEM_SECONDS = 20.0

# Spaces above this size skip the gn/r order deciders (as in the repository's
# soundness suite): their cost grows with the space times the edge count.
ORDER_ORACLE_MAX_STATES = 1200

# An item's outcome is "ok", "unsolved" (limits hit) or one of these, which
# mean the program produced a wrong answer or crashed.
WRONG = ("invalid", "disagree", "error")


@dataclass(frozen=True)
class Item:
    stratum: int
    domain: str  # key of lmplan.bench.DOMAIN_TEXTS
    size: str
    config: str
    problem: str  # PDDL problem text


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strata: tuple[tuple[str, object, str, int], ...]  # (domain, size, config, instance)
    pool_rounds: int  # rounds of texts generated at set-up; the stream cycles after
    checked_items: int  # fixed prefix: plan_len.mean, fingerprint, traced pass
    run_item: Callable


def _nospan(_name):
    return contextlib.nullcontext()


def generate_items(lm, workload: Workload, seed: int, tracer=None) -> list[Item]:
    """Set-up: every problem text of the stream, from the seed alone.

    Strata of one round that name the same (domain, size, instance) solve the
    same text, one item per config.
    """
    span = tracer.span if tracer is not None else _nospan
    items = []
    with span("bench.generate"):
        for r in range(workload.pool_rounds):
            texts: dict = {}
            for k, (domain, size, config, instance) in enumerate(workload.strata):
                key = (domain, size, instance)
                if key not in texts:
                    gen_seed = seed * 100_000 + r * 10 + instance
                    if domain == "logistics":
                        texts[key] = lm.bench.gen_logistics(*size, seed=gen_seed)
                    else:
                        variant = domain.removeprefix("blocksworld-")
                        texts[key] = lm.bench.gen_blocksworld(size, variant, gen_seed)
                label = "-".join(map(str, size)) if isinstance(size, tuple) else str(size)
                items.append(Item(k, domain, label, config, texts[key]))
    return items


def _edge_counts(lm, g, tracer) -> dict[str, int]:
    out = {k.value: 0 for k in lm.landmarks.EdgeKind}
    for _, _, k in g.edges:
        out[k.value] += 1
    if tracer is not None:
        tracer.counts["landmarks.edges_gn"] += out["gn"]
        tracer.counts["landmarks.edges_ln"] += out["ln"]
    return out


def _planner(lm, name: str, deadline: float, tracer):
    """The base planner for an item, cut at the item's deadline; traced runs
    put each call in a ``planners.<function>`` span and count its result."""
    fn = {"gbfs": lm.planners.gbfs_plan, "bfs": lm.planners.bfs_plan}[name]
    planners = lm.planners

    def call(task, limits):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return planners.PlannerResult(planners.Outcome.RESOURCE_EXHAUSTED, None, 0, 0.0)
        return fn(task, planners.SearchLimits(limits.max_nodes,
                                              min(limits.max_seconds, remaining)))

    if tracer is None:
        return call

    def count(_args, res):
        tracer.counts["planners.expanded"] += res.expanded
        tracer.counts["planners.failed"] += not res.solved

    return tracer.wrap(f"planners.{fn.__name__}", call, count)


def _ground(lm, item: Item, span, tracer):
    with span("pddl.ground_files"):
        task = lm.pddl.ground_files(lm.bench.DOMAIN_TEXTS[item.domain], item.problem)
    if tracer is not None:
        tracer.counts["pddl.actions_kept"] += len(task.actions)
        tracer.counts["pddl.actions_pruned"] += len(task.pruned_actions)
    return task


def _control(lm, task, g, planner, span, tracer):
    limits = lm.planners.SearchLimits(ITEM_NODE_LIMIT, ITEM_SECONDS)
    with span("control.run_control"):
        trace = lm.control.run_control(task, g, planner, lm.control.ControlConfig(limits=limits))
    if tracer is not None:
        tracer.counts["control.iterations"] += len(trace.iterations)
    return trace


def _validate(lm, task, plan, span) -> bool:
    with span("core.validate_plan"):
        return lm.core.validate_plan(task, plan)


def run_plan_item(lm, item: Item, tracer=None) -> dict:
    """Ground, solve with the item's config, validate.  Returns the item's
    fingerprint row."""
    span = tracer.span if tracer is not None else _nospan
    deadline = time.perf_counter() + ITEM_SECONDS
    row = {"domain": item.domain, "size": item.size, "config": item.config,
           "plan_len": None, "landmarks": None, "edges": None}
    base_name, with_landmarks = item.config.removesuffix("+L"), item.config.endswith("+L")
    planner = _planner(lm, base_name, deadline, tracer)
    task = _ground(lm, item, span, tracer)
    if with_landmarks:
        with span("pipeline.build_landmark_graph"):
            g = lm.pipeline.build_landmark_graph(task)
        row["landmarks"] = len(g)
        row["edges"] = _edge_counts(lm, g, tracer)
        plan = _control(lm, task, g, planner, span, tracer).plan
    else:
        plan = planner(task, lm.planners.SearchLimits(ITEM_NODE_LIMIT, ITEM_SECONDS)).plan
    if plan is None:
        row["outcome"] = "unsolved"
        return row
    row["plan_len"] = len(plan)
    row["outcome"] = "ok" if _validate(lm, task, plan, span) else "invalid"
    return row


def run_oracle_item(lm, item: Item, tracer=None) -> dict:
    """Cross-check one micro-instance's landmark graph against the exact
    oracles, then solve it through the control loop and validate the plan.

    What counts as a disagreement follows the repository's soundness suite:
    every verified landmark and every mutex pair must be exact; every gn edge
    must be exact on the arm variant (on no-arm the level test legitimately
    admits unsound gn edges, which are only counted); every r edge must be
    exact whenever all gn edges of the instance were confirmed.
    """
    span = tracer.span if tracer is not None else _nospan
    deadline = time.perf_counter() + ITEM_SECONDS
    oracles = lm.oracles
    row = {"domain": item.domain, "size": item.size, "config": item.config,
           "plan_len": None}
    task = _ground(lm, item, span, tracer)
    with span("orders.compute_mutexes"):
        table = lm.orders.compute_mutexes(task)
    with span("pipeline.build_landmark_graph"):
        g = lm.pipeline.build_landmark_graph(task, table=table)
    edges = g.edges
    row["landmarks"] = len(g)
    row["edges"] = _edge_counts(lm, g, tracer)
    problems: list[str] = []

    with span("oracles.enumerate_states"):
        space = oracles.enumerate_states(task)
    row["states"] = len(space)
    with span("oracles.oracle_landmark"):
        not_landmarks = [n for n in g.nodes if not oracles.oracle_landmark(task, n, space=space)]
    problems += [f"not a landmark: {task.facts[n].name}" for n in not_landmarks]
    with span("oracles.mutex_check"):
        co = oracles.co_occurrence(space, task.num_facts)
        pairs = table.pairs()
        bad_pairs = [(x, y) for x, y in pairs if co[x] >> y & 1]
    problems += [f"not mutex: {task.facts[x].name} {task.facts[y].name}" for x, y in bad_pairs]
    if tracer is not None:
        tracer.counts["oracles.landmark_calls"] += len(g)
        tracer.counts["oracles.states"] += len(space)
        tracer.counts["orders.mutex_pairs"] += len(pairs)

    if len(space) <= ORDER_ORACLE_MAX_STATES:
        gn = [(s, d) for s, d, k in edges if k is lm.landmarks.GN]
        r = [(s, d) for s, d, k in edges if k is lm.landmarks.R]
        with span("oracles.oracle_gn"):
            gn_ok = [oracles.oracle_gn(task, s, d) for s, d in gn]
        with span("oracles.oracle_reasonable"):
            r_ok = [oracles.oracle_reasonable(task, s, d) for s, d in r]
        row["gn_confirmed"], row["r_confirmed"] = sum(gn_ok), sum(r_ok)
        if tracer is not None:
            tracer.counts["oracles.gn_calls"] += len(gn)
            tracer.counts["oracles.reasonable_calls"] += len(r)
        all_gn = all(gn_ok)
        if item.domain == "blocksworld-arm" and not all_gn:
            problems.append("unconfirmed gn edge on the arm variant")
        if all_gn and not all(r_ok):
            problems.append("unconfirmed r edge with all gn edges confirmed")

    planner = _planner(lm, "bfs", deadline, tracer)
    plan = _control(lm, task, g, planner, span, tracer).plan
    if plan is not None:
        row["plan_len"] = len(plan)
        if not _validate(lm, task, plan, span):
            problems.append("invalid control-loop plan")
    if problems:
        row["outcome"] = "disagree"
        row["detail"] = "; ".join(problems)
    else:
        row["outcome"] = "ok" if plan is not None else "unsolved"
    return row


# Why each workload exists, and which layers it separates.  BENCHMARK.json
# carries the same reasons; perfbench/README.md has the measurements behind
# the sizes.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="bw-plan",
            why="blocksworld-arm solves (gbfs+L at 9 blocks, gbfs at 8, bfs+L at 6): "
                "relaxed heuristic, mutex fixpoint, sub-task compilation and search dominate",
            strata=(("blocksworld-arm", 9, "gbfs+L", 0),
                    ("blocksworld-arm", 8, "gbfs", 0),
                    ("blocksworld-arm", 6, "bfs+L", 0)),
            pool_rounds=300,
            checked_items=90,
            run_item=run_plan_item,
        ),
        Workload(
            name="logistics-plan",
            why="untyped logistics 2-3-2-4 and 3-3-1-6 with gbfs and gbfs+L, each item "
                "grounded from text: grounding does most of the work, search little",
            strata=tuple(("logistics", s, c, i) for i, (s, c) in enumerate(
                [((2, 3, 2, 4), "gbfs"), ((2, 3, 2, 4), "gbfs+L")] * 2
                + [((3, 3, 1, 6), "gbfs"), ((3, 3, 1, 6), "gbfs+L")])),
            pool_rounds=20,
            checked_items=10,
            run_item=run_plan_item,
        ),
        Workload(
            name="oracle-micro",
            why="3-4 block arm and no-arm micro-instances cross-checked by the exact oracles: "
                "the only workload that runs state enumeration and the oracle deciders",
            strata=tuple((d, n, "oracle", 0)
                         for d in ("blocksworld-arm", "blocksworld-no-arm") for n in (3, 4)),
            pool_rounds=500,
            checked_items=400,
            run_item=run_oracle_item,
        ),
    )
}
