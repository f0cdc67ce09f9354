"""Time the relaxed-plan heuristic on the states greedy best-first search
evaluates.

    python3 tools/heuristic_evals.py --rounds 5

Solves blocksworld-arm 9 and logistics 2-3-2-4 and 3-3-1-6, seeds 0-2, with
gbfs plain and as the control loop's base planner (``control.solve`` with landmarks off
and on), and times every heuristic evaluation gbfs makes: from its
``planners.build_rpg`` call to the end of its ``planners.extract_relaxed_plan``
call.  Each round grounds the tasks and solves them again, so whatever an
evaluation computes once per task and goal is paid for again, as in a run.
Per kind (domain and size, and ``gbfs`` plain or ``sub-tasks``: every call
of the control loop, its final original-goal call included), it prints the
evaluation count, the sum of the finite values and the count of infinite
ones (equal across checkouts whose heuristic agrees), and the median over
the rounds of the microseconds per evaluation.  Runs lmplan from this
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lmplan import planners  # noqa: E402
from lmplan.bench import generate_task  # noqa: E402
from lmplan.control import solve  # noqa: E402
from lmplan.rpg import INF  # noqa: E402

CASES = (("blocksworld-arm", 9), ("logistics", (2, 3, 2, 4)), ("logistics", (3, 3, 1, 6)))
SEEDS = range(3)


def timed_evaluations(task, landmarks: bool) -> tuple[list, float]:
    """The values of every evaluation gbfs makes in ``solve``, and the
    seconds they took."""
    values, spent, started = [], [0.0], [0.0]
    build, extract = planners.build_rpg, planners.extract_relaxed_plan

    def timed_build(task, mode, state):
        started[0] = time.perf_counter()
        return build(task, mode, state)

    def timed_extract(graph, goal):
        value = extract(graph, goal)
        spent[0] += time.perf_counter() - started[0]
        values.append(value)
        return value

    planners.build_rpg, planners.extract_relaxed_plan = timed_build, timed_extract
    try:
        solve(task, planners.gbfs_plan, landmarks)
    finally:
        planners.build_rpg, planners.extract_relaxed_plan = build, extract
    return values, spent[0]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for domain, size in CASES:
        label = "-".join(map(str, size)) if isinstance(size, tuple) else str(size)
        for landmarks, kind in ((False, "gbfs"), (True, "sub-tasks")):
            per_eval = []
            for _ in range(args.rounds):
                values, seconds = [], 0.0
                for seed in SEEDS:
                    v, s = timed_evaluations(generate_task(domain, size, seed), landmarks)
                    values += v
                    seconds += s
                per_eval.append(seconds / len(values) * 1e6)
            finite = [v for v in values if v is not INF]
            print(f"{domain} {label} {kind}: {len(values)} evaluations, values sum {sum(finite)} "
                  f"({len(values) - len(finite)} infinite), "
                  f"{statistics.median(per_eval):.2f} us per evaluation", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
