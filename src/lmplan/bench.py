"""Instance generators, landmark-graph export, and the experiment harness."""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .control import ControlConfig, solve
from .core import Task
from .instances import (
    BLOCKSWORLD_ARM_DOMAIN,
    BLOCKSWORLD_NO_ARM_DOMAIN,
    LOGISTICS_DOMAIN,
)
from .landmarks import LGG, EdgeKind
from .pddl import ground_files
from .planners import PLANNERS, SearchLimits


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _random_stacks(blocks: Sequence[str], rng: random.Random) -> list[list[str]]:
    # random permutation cut into stacks with geometric lengths
    order = list(blocks)
    rng.shuffle(order)
    stacks = [[order[0]]]
    for b in order[1:]:
        if rng.random() < 0.5:
            stacks.append([b])
        else:
            stacks[-1].append(b)
    return stacks


def _stack_atoms(stacks: list[list[str]], with_clear: bool) -> list[str]:
    atoms = []
    for st in stacks:
        atoms.append(f"(on-table {st[0]})")
        for below, above in zip(st, st[1:]):
            atoms.append(f"(on {above} {below})")
        if with_clear:
            atoms.append(f"(clear {st[-1]})")
    return atoms


def gen_blocksworld(n: int, variant: str = "arm", seed: int = 0) -> str:
    """A random blocksworld problem: uniform block permutations split into
    stacks, independently for the initial and goal configurations."""
    if n < 1:
        raise ValueError("need at least one block")
    if variant not in ("arm", "no-arm"):
        raise ValueError(f"unknown variant {variant!r}")
    rng = random.Random(("blocksworld", variant, n, seed).__repr__())
    blocks = [f"b{i}" for i in range(1, n + 1)]
    init = _stack_atoms(_random_stacks(blocks, rng), with_clear=True)
    if variant == "arm":
        init.append("(arm-empty)")
    goal = _stack_atoms(_random_stacks(blocks, rng), with_clear=False)
    lines = [
        f"(define (problem bw-{variant}-{n}-{seed})",
        f"  (:domain blocksworld-{variant})",
        f"  (:objects {' '.join(blocks)} - block)",
        "  (:init " + " ".join(init) + ")",
        "  (:goal (and " + " ".join(goal) + "))",
        ")",
    ]
    return "\n".join(lines) + "\n"


def gen_logistics(cities: int, locs_per_city: int, planes: int,
                  packages: int, seed: int = 0) -> str:
    """A random logistics problem: one truck per city, airports are each
    city's first location, package origins and destinations uniform."""
    if min(cities, locs_per_city, planes, packages) < 1:
        raise ValueError("all size parameters must be >= 1")
    rng = random.Random(("logistics", cities, locs_per_city, planes, packages,
                         seed).__repr__())
    city_names = [f"c{i}" for i in range(1, cities + 1)]
    locs = {c: [f"{c}-l{j}" for j in range(1, locs_per_city + 1)] for c in city_names}
    airports = [locs[c][0] for c in city_names]
    trucks = {c: f"t{i + 1}" for i, c in enumerate(city_names)}
    plane_names = [f"p{i}" for i in range(1, planes + 1)]
    pkg_names = [f"pkg{i}" for i in range(1, packages + 1)]
    all_locs = [l for c in city_names for l in locs[c]]

    objects = pkg_names + list(trucks.values()) + plane_names + all_locs + city_names
    init = []
    init += [f"(package {p})" for p in pkg_names]
    init += [f"(truck {t})" for t in trucks.values()]
    init += [f"(airplane {a})" for a in plane_names]
    init += [f"(location {l})" for l in all_locs]
    init += [f"(airport {a})" for a in airports]
    init += [f"(city {c})" for c in city_names]
    for c in city_names:
        init += [f"(in-city {l} {c})" for l in locs[c]]
        init.append(f"(at {trucks[c]} {rng.choice(locs[c])})")
    for a in plane_names:
        init.append(f"(at {a} {rng.choice(airports)})")
    goal = []
    for p in pkg_names:
        init.append(f"(at {p} {rng.choice(all_locs)})")
        goal.append(f"(at {p} {rng.choice(all_locs)})")

    lines = [
        f"(define (problem log-{cities}-{locs_per_city}-{planes}-{packages}-{seed})",
        "  (:domain logistics)",
        f"  (:objects {' '.join(objects)})",
        "  (:init",
    ]
    lines += [f"    {a}" for a in init]
    lines.append("  )")
    lines.append("  (:goal (and " + " ".join(goal) + "))")
    lines.append(")")
    return "\n".join(lines) + "\n"


DOMAIN_TEXTS = {
    "blocksworld-arm": BLOCKSWORLD_ARM_DOMAIN,
    "blocksworld-no-arm": BLOCKSWORLD_NO_ARM_DOMAIN,
    "logistics": LOGISTICS_DOMAIN,
}


def gen_problem(domain: str, size, seed: int) -> str:
    """One generated problem of a ``DOMAIN_TEXTS`` domain.  ``size`` is the
    block count for the blocksworld variants and a (cities, locs, planes,
    packages) tuple for logistics."""
    if domain in ("blocksworld-arm", "blocksworld-no-arm"):
        return gen_blocksworld(int(size), domain.removeprefix("blocksworld-"), seed)
    if domain == "logistics":
        return gen_logistics(*size, seed=seed)
    raise ValueError(f"unknown domain {domain!r}")


def generate_task(domain: str, size, seed: int) -> Task:
    """Ground one generated instance (see ``gen_problem``)."""
    return ground_files(DOMAIN_TEXTS[domain], gen_problem(domain, size, seed))


# ---------------------------------------------------------------------------
# Landmark graph export
# ---------------------------------------------------------------------------

_DOT_STYLE = {
    EdgeKind.GREEDY_NECESSARY: 'style=solid',
    EdgeKind.LOOKAHEAD: 'style=dashed',
    EdgeKind.REASONABLE: 'style=dotted',
    EdgeKind.OBEDIENT_REASONABLE: 'style=dotted, color=gray',
}


def export_lgg(task: Task, g: LGG, fmt: str = "dot") -> str:
    if fmt == "dot":
        lines = ["digraph landmarks {"]
        for n in g.nodes:
            shape = "doublecircle" if task.goal >> n & 1 else "ellipse"
            # the reader keeps " and \ inside symbols
            label = task.facts[n].name.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{n} [label="{label}", shape={shape}];')
        for s, d, k in g.edges:
            lines.append(f'  n{s} -> n{d} [label="{k.value}", {_DOT_STYLE[k]}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "nodes": [{"id": n, "name": task.facts[n].name} for n in g.nodes],
            "edges": [{"from": s, "to": d, "kind": k.value} for s, d, k in g.edges],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def lgg_from_json(text: str) -> LGG:
    doc = json.loads(text)
    g = LGG()
    for node in doc["nodes"]:
        g.add_node(node["id"])
    for edge in doc["edges"]:
        g.add_edge(edge["from"], edge["to"], EdgeKind(edge["kind"]))
    return g


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRecord:
    domain: str
    size: str  # as ``lmplan bench --sizes`` takes it: "9", or "2x3x2x4"
    seed: int
    config: str
    outcome: str  # solved | unsolved | error
    seconds: float
    plan_length: Optional[int]
    detail: str = ""  # an error's exception type and message


def run_config(task: Task, config: str, time_limit: float,
               node_limit: int = 1_000_000) -> tuple[str, float, Optional[int]]:
    """Run one (instance, config) cell: outcome, seconds and plan length."""
    return run_config_detail(task, config, time_limit, node_limit)[:3]


def run_config_detail(task: Task, config: str, time_limit: float,
                      node_limit: int = 1_000_000) -> tuple[str, float, Optional[int], str]:
    """Run one (instance, config) cell: outcome, seconds, plan length and,
    for an "error" outcome, the exception's type and message, so that a
    crash does not pass for an unsolved instance.  Config labels are a
    planner name with an optional "+L" suffix for the landmark control
    loop.  Every planner call stops at the cell's ``time_limit``."""
    label = config.removesuffix("+L")
    if label not in PLANNERS:
        raise ValueError(f"unknown planner {label!r} in config {config!r}")
    t0 = time.monotonic()
    try:
        plan, _ = solve(task, PLANNERS[label], label != config,
                        ControlConfig(limits=SearchLimits(node_limit, time_limit)),
                        deadline=t0 + time_limit)
    except Exception as e:
        return "error", time.monotonic() - t0, None, f"{type(e).__name__}: {e}"
    elapsed = time.monotonic() - t0
    if plan is None:
        return "unsolved", elapsed, None, ""
    return "solved", elapsed, len(plan), ""


def _run_cell(args) -> BenchRecord:
    domain, size, seed, config, time_limit, node_limit = args
    task = generate_task(domain, size, seed)
    text = "x".join(map(str, size)) if isinstance(size, (tuple, list)) else str(size)
    return BenchRecord(domain, text, seed, config,
                       *run_config_detail(task, config, time_limit, node_limit))


def run_benchmark(domain: str, sizes: Sequence, per_size: int, seed_base: int,
                  configs: Sequence[str], time_limit: float = 60.0,
                  node_limit: int = 1_000_000, workers: int = 1) -> list[BenchRecord]:
    """One record per (instance, config); failures never abort the suite.

    With ``workers`` > 1, cells run in separate processes; the row order is
    the same either way (only the time column varies between runs).
    """
    cells = [(domain, size, seed_base + k, config, time_limit, node_limit)
             for size in sizes for k in range(per_size) for config in configs]
    if workers <= 1:
        return [_run_cell(c) for c in cells]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell, cells))


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["domain", "size", "seed", "config", "outcome", "seconds", "plan_length",
                "detail"])
    for r in records:
        w.writerow([r.domain, r.size, r.seed, r.config, r.outcome,
                    f"{r.seconds:.3f}", "" if r.plan_length is None else r.plan_length,
                    r.detail])
    return buf.getvalue()


def solved_series_csv(records: Iterable[BenchRecord]) -> str:
    """Cumulative solved-instances-versus-time rows, one series per config."""
    by_config: dict[str, list[float]] = {}
    for r in records:
        if r.outcome == "solved":
            by_config.setdefault(r.config, []).append(r.seconds)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["config", "seconds", "solved"])
    for config in sorted(by_config):
        for i, t in enumerate(sorted(by_config[config]), start=1):
            w.writerow([config, f"{t:.3f}", i])
    return buf.getvalue()
