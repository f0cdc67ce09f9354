"""Time the exact-oracle decider calls of ``oracle-micro``, call by call.

    python3 tools/oracle_queries.py --rounds 3

Generates the seed-1 ``oracle-micro`` problem texts as ``perfbench`` does and
takes the workload's fixed prefix of 400 items, as
``tools/dropped_orders.py`` does.  Each round grounds every item afresh, so
no oracle memo outlives its item, and makes the workload's decider calls in
its order: ``oracle_landmark`` on every landmark, with the enumerated state
space, then, on items within the workload's state limit, ``oracle_gn`` on
every gn edge and ``oracle_reasonable`` on every r edge.  Only the decider
calls are timed.  Prints one line per kind (landmark, gn, r): calls, true and
false answers per round, the median microseconds per call over all rounds
and the mean milliseconds per round.  Exits 1 if two rounds answer
differently.  Runs lmplan from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from lmplan import bench  # noqa: E402
from lmplan.landmarks import GN, R  # noqa: E402
from lmplan.oracles import enumerate_states, oracle_gn, oracle_landmark, oracle_reasonable  # noqa: E402
from lmplan.orders import compute_mutexes  # noqa: E402
from lmplan.pddl import ground_files  # noqa: E402
from lmplan.pipeline import build_landmark_graph  # noqa: E402
from workloads import ORDER_ORACLE_MAX_STATES, WORKLOADS, generate_items  # noqa: E402

WORKLOAD = WORKLOADS["oracle-micro"]
KINDS = ("landmark", "gn", "r")
SEED = 1


def item_queries(item) -> list[tuple[str, object, tuple, dict]]:
    """The decider calls ``perfbench`` makes on one freshly grounded item:
    (kind, decider, positional arguments, keyword arguments)."""
    task = ground_files(bench.DOMAIN_TEXTS[item.domain], item.problem)
    g = build_landmark_graph(task, table=compute_mutexes(task))
    space = enumerate_states(task)
    queries = [("landmark", oracle_landmark, (task, n), {"space": space}) for n in g.nodes]
    if len(space) <= ORDER_ORACLE_MAX_STATES:
        queries += [("gn", oracle_gn, (task, s, d), {}) for s, d, k in g.edges if k is GN]
        queries += [("r", oracle_reasonable, (task, s, d), {}) for s, d, k in g.edges if k is R]
    return queries


def run_round(items) -> tuple[list[tuple[str, bool]], dict[str, list[float]]]:
    """Every item's decider calls: their answers in order, and the seconds
    each call took, per kind."""
    answers: list[tuple[str, bool]] = []
    seconds: dict[str, list[float]] = {k: [] for k in KINDS}
    for item in items:
        for kind, decide, args, kwargs in item_queries(item):
            t0 = time.perf_counter()
            answer = decide(*args, **kwargs)
            seconds[kind].append(time.perf_counter() - t0)
            answers.append((kind, answer))
    return answers, seconds


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    items = generate_items(SimpleNamespace(bench=bench), WORKLOAD, SEED)
    items = items[:WORKLOAD.checked_items]
    first = None
    seconds: dict[str, list[float]] = {k: [] for k in KINDS}
    for _ in range(args.rounds):
        answers, took = run_round(items)
        if first is None:
            first = answers
        elif answers != first:
            print("FAILED: two rounds answered differently")
            return 1
        for kind in KINDS:
            seconds[kind] += took[kind]
    print(f"seed {SEED}: {len(items)} items, {args.rounds} rounds")
    for kind in KINDS:
        true = sum(answer for k, answer in first if k == kind)
        calls = len(seconds[kind]) // args.rounds
        median = statistics.median(seconds[kind]) * 1e6 if seconds[kind] else 0.0
        total = sum(seconds[kind]) * 1e3 / args.rounds
        print(f"{kind}: {calls} calls, {true} true, {calls - true} false, "
              f"median {median:.1f} us/call, {total:.1f} ms/round")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
