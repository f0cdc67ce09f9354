"""Command-line interface.

Exit codes: 0 solved/ok, 1 unsolved or property-false, 2 usage error.
LMPLAN_TIME_LIMIT overrides the default per-search time limit in seconds;
only plan and bench read it, when --time-limit is not given.
Search limits must be positive finite numbers; sizes, counts and state caps
positive integers; bench configs must name known planners.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import bench as bench_mod
from .control import ControlConfig, solve
from .core import PlanningError, format_plan
from .oracles import (
    CapExceeded,
    DEFAULT_STATE_CAP,
    oracle_gn,
    oracle_inconsistent,
    oracle_landmark,
    oracle_n,
    oracle_reasonable,
)
from .pddl import ground_files
from .pipeline import PipelineConfig, build_landmark_graph
from .planners import PLANNERS, SearchLimits

# property -> (decider, number of fact arguments)
ORACLES = {
    "landmark": (oracle_landmark, 1),
    "gn": (oracle_gn, 2),
    "n": (oracle_n, 2),
    "r": (oracle_reasonable, 2),
    "mutex": (oracle_inconsistent, 2),
}


def _positive(kind):
    """An argparse type: ``kind(text)`` if it is positive and finite."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            what = "integer" if kind is int else "finite number"
            raise argparse.ArgumentTypeError(f"must be a positive {what}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


_seconds = _positive(float)
_count = _positive(int)


def _sizes(text: str) -> list[tuple[int, ...]]:
    """An argparse type for ``bench --sizes``: comma-separated sizes, each a
    positive count or positive counts joined by "x"."""
    try:
        return [tuple(_count(x) for x in size.split("x")) for size in text.split(",")]
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated sizes of positive integers, got {text!r}") from None


def _configs(text: str) -> list[str]:
    """An argparse type for ``bench --configs``: comma-separated planner
    names, each optionally suffixed "+L"."""
    configs = text.split(",")
    for config in configs:
        if config.removesuffix("+L") not in PLANNERS:
            raise argparse.ArgumentTypeError(
                f"unknown planner in config {config!r} (known: {', '.join(sorted(PLANNERS))})")
    return configs


def _check_size_arity(ap: argparse.ArgumentParser, args) -> None:
    """Logistics sizes are CxLxPxK; blocksworld sizes one block count."""
    arity = 4 if args.domain == "logistics" else 1
    bad = [size for size in args.sizes if len(size) != arity]
    if bad:
        shape = "four positive integers CxLxPxK" if arity == 4 else "one positive block count"
        ap.error(f"argument --sizes: a {args.domain} size is {shape}, got "
                 f"{'x'.join(map(str, bad[0]))!r}")


def _default_time_limit() -> float:
    env = os.environ.get("LMPLAN_TIME_LIMIT")
    if env:
        try:
            return _seconds(env)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"lmplan: LMPLAN_TIME_LIMIT must be a positive finite number, "
                  f"got {env!r}", file=sys.stderr)
            raise SystemExit(2)
    return 60.0


def _load_task(args):
    with open(args.domain) as fh:
        domain = fh.read()
    with open(args.problem) as fh:
        problem = fh.read()
    return ground_files(domain, problem)


def _add_task_args(p):
    p.add_argument("domain", help="domain PDDL file")
    p.add_argument("problem", help="problem PDDL file")


def cmd_ground(args) -> int:
    task = _load_task(args)
    print(f"task: {task.name}")
    print(f"facts: {task.num_facts}")
    print(f"actions: {len(task.actions)} (pruned {len(task.pruned_actions)})")
    print(f"goal facts: {len(task.facts_in(task.goal))}")
    if task.provably_unsolvable:
        print("provably unsolvable: goal unreachable even ignoring deletes")
        return 1
    return 0


def cmd_landmarks(args) -> int:
    task = _load_task(args)
    config = PipelineConfig(
        level_test=not args.no_level_test,
        lookahead=not args.no_lookahead,
        reasonable=not args.no_reasonable,
        obedient=not args.no_obedient,
    )
    g = build_landmark_graph(task, config)
    if args.emit:
        sys.stdout.write(bench_mod.export_lgg(task, g, args.emit))
        return 0
    print(f"landmarks: {len(g)}")
    for n in g.nodes:
        print(f"  {task.facts[n].name}")
    print(f"orders: {len(g.edges)}")
    for s, d, k in g.edges:
        print(f"  {task.facts[s].name} ->{k.value} {task.facts[d].name}")
    return 0


def cmd_plan(args) -> int:
    task = _load_task(args)
    cfg = ControlConfig(mode=args.mode, safety_net=args.safety_net,
                        limits=SearchLimits(args.node_limit, args.time_limit))
    plan, outcome = solve(task, PLANNERS[args.planner], args.landmarks == "on", cfg)
    if plan is None:
        print(f"failed: {outcome}", file=sys.stderr)
        return 1
    if plan:
        print(format_plan(task, plan))
    print(f"; length {len(plan)}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    task = _load_task(args)
    decide, _ = ORACLES[args.property]
    try:
        value = decide(task, *[task.fact_named(f).id for f in args.facts], args.cap)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 1
    print("true" if value else "false")
    return 0 if value else 1


def cmd_gen(args) -> int:
    size = ((args.cities, args.locs, args.planes, args.packages)
            if args.kind == "logistics" else args.size)
    text = bench_mod.gen_problem(args.kind, size, args.seed)
    out = sys.stdout if args.output == "-" else open(args.output, "w")
    out.write(text)
    if args.emit_domain:
        with open(args.emit_domain, "w") as fh:
            fh.write(bench_mod.DOMAIN_TEXTS[args.kind])
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_bench(args) -> int:
    sizes = args.sizes if args.domain == "logistics" else [n for n, in args.sizes]
    records = bench_mod.run_benchmark(
        args.domain, sizes, args.instances, args.seed_base,
        args.configs, args.time_limit, args.node_limit,
        workers=args.workers)
    csv_text = bench_mod.records_to_csv(records)
    if args.output == "-":
        sys.stdout.write(csv_text)
    else:
        with open(args.output, "w") as fh:
            fh.write(csv_text)
    if args.series:
        with open(args.series, "w") as fh:
            fh.write(bench_mod.solved_series_csv(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lmplan",
                                 description="landmark-guided STRIPS planning toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground", help="parse and ground a PDDL pair")
    _add_task_args(p)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("landmarks", help="extract the ordered landmark graph")
    _add_task_args(p)
    p.add_argument("--no-level-test", action="store_true",
                   help="intersect over all achievers (safe variant)")
    p.add_argument("--no-lookahead", action="store_true")
    p.add_argument("--no-reasonable", action="store_true")
    p.add_argument("--no-obedient", action="store_true")
    p.add_argument("--emit", choices=["dot", "json"])
    p.set_defaults(func=cmd_landmarks)

    p = sub.add_parser("plan", help="solve a task")
    _add_task_args(p)
    p.add_argument("--planner", choices=sorted(PLANNERS), default="gbfs")
    p.add_argument("--landmarks", choices=["on", "off"], default="on")
    p.add_argument("--mode", choices=["disj", "conjdisj", "dnf"], default="disj")
    p.add_argument("--safety-net", action="store_true")
    p.add_argument("--time-limit", type=_seconds)
    p.add_argument("--node-limit", type=_count, default=1_000_000)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("oracle", help="exact checks on enumerable tasks")
    p.add_argument("property", choices=list(ORACLES))
    _add_task_args(p)
    p.add_argument("facts", nargs="+", help='facts like "(clear c)"')
    p.add_argument("--cap", type=_count, default=DEFAULT_STATE_CAP,
                   help="most states any one search may keep; past it, prints "
                        "'cap exceeded' and exits 1 (default %(default)s)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("kind", choices=["blocksworld-arm", "blocksworld-no-arm", "logistics"])
    p.add_argument("--size", type=_count, default=4, help="block count")
    p.add_argument("--cities", type=_count, default=2)
    p.add_argument("--locs", type=_count, default=2)
    p.add_argument("--planes", type=_count, default=1)
    p.add_argument("--packages", type=_count, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--emit-domain", help="also write the domain file here")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run a benchmark suite, emit CSV")
    p.add_argument("--domain", choices=sorted(bench_mod.DOMAIN_TEXTS), required=True)
    p.add_argument("--sizes", type=_sizes, required=True,
                   help="comma list; logistics sizes as CxLxPxK")
    p.add_argument("--instances", type=_count, default=10)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--configs", type=_configs, default="bfs,bfs+L")
    p.add_argument("--time-limit", type=_seconds)
    p.add_argument("--node-limit", type=_count, default=1_000_000)
    p.add_argument("--workers", type=_count, default=1,
                   help="parallel worker processes (default sequential)")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--series", help="also write solved-vs-time series CSV here")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "oracle":
        _, need = ORACLES[args.property]
        if len(args.facts) != need:
            ap.error(f"{args.property} takes {need} fact argument(s)")
    elif args.command == "bench":
        _check_size_arity(ap, args)
    if args.command in ("plan", "bench") and args.time_limit is None:
        args.time_limit = _default_time_limit()
    try:
        return args.func(args)
    except (PlanningError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
