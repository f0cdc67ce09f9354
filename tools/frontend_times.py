"""Time the PDDL front end: reading a domain, reading a problem, grounding.

    python3 tools/frontend_times.py --repeats 5

For each case (a built-in domain and the size of a generated problem, seed
1) it times ``pddl.parse_domain`` on the domain text, ``pddl.parse_problem``
on the problem text and ``pddl.ground`` on the two ASTs.  Each repetition
calls the function as many times as ``timeit`` needs to fill about 0.2 s;
the line gives the best repetition's seconds per call, the least disturbed
by other load.  The grounded task's action and fact counts follow, equal
across checkouts whose grounding agrees.  Runs lmplan from this checkout's
``src``.
"""

from __future__ import annotations

import argparse
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lmplan import pddl  # noqa: E402
from lmplan.bench import DOMAIN_TEXTS, gen_problem  # noqa: E402

CASES = (("blocksworld-arm", 4), ("blocksworld-arm", 9), ("blocksworld-no-arm", 4),
         ("logistics", (2, 3, 2, 4)), ("logistics", (3, 3, 1, 6)))


def best_seconds(call, repeats: int) -> float:
    """The least seconds per call over ``repeats`` timed repetitions."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeats, number)) / number


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for domain, size in CASES:
        label = "-".join(map(str, size)) if isinstance(size, tuple) else str(size)
        domain_text, problem_text = DOMAIN_TEXTS[domain], gen_problem(domain, size, 1)
        d = pddl.parse_domain(domain_text)
        p = pddl.parse_problem(problem_text, d)
        task = pddl.ground(d, p)
        times = [best_seconds(lambda: pddl.parse_domain(domain_text), args.repeats),
                 best_seconds(lambda: pddl.parse_problem(problem_text, d), args.repeats),
                 best_seconds(lambda: pddl.ground(d, p), args.repeats)]
        print(f"{domain} {label}: parse_domain {times[0]:.3e} s, parse_problem {times[1]:.3e} s, "
              f"ground {times[2]:.3e} s ({len(task.actions)} actions, {len(task.facts)} facts)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
