"""Time the PDDL front end: reading a domain, reading a problem, grounding.

    python3 tools/frontend_times.py --repeats 5 [--against CHECKOUT]

For each case (a built-in domain and the size of a generated problem, seed
1) it times ``pddl.parse_domain`` on the domain text, past its memo,
``pddl.parse_problem`` on the problem text, ``pddl.ground`` on the two
ASTs, and ``pddl.ground_files`` on the two texts.  ``ground`` runs warm,
with the problem's object set grounded before, and cold, with the domain's
object-set memo emptied before each call; ``ground_files`` runs warm, with
the domain text already read, and cold, with the domain memo emptied
before each call (which empties the object-set memo with it).  Each
repetition calls the function as many times as ``timeit`` needs to fill
about 0.2 s, in ``SLICES`` slices; the line gives the best slice's seconds
per call, the least disturbed by other load.  The grounded task's action
and fact counts follow.  Runs lmplan from this checkout's ``src``.

With ``--against CHECKOUT`` it also imports the lmplan of another checkout
root into the same process, times each call on both in turn, slice by
slice, and prints after each case the ratio per call: the median over the
slices of this checkout's time over CHECKOUT's, each pair timed back to
back, so that load that comes and goes weighs on both alike.  A checkout
whose ``parse_domain`` or ``ground`` keeps no memo runs its warm and cold
calls alike.  Exits 1 if the two ground a case to different tasks.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lmplan import pddl  # noqa: E402
from lmplan.bench import DOMAIN_TEXTS, gen_problem  # noqa: E402

CASES = (("blocksworld-arm", 4), ("blocksworld-arm", 9), ("blocksworld-no-arm", 4),
         ("logistics", (2, 3, 2, 4)), ("logistics", (3, 3, 1, 6)))
CALLS = ("parse_domain", "parse_problem", "ground warm", "ground cold", "ground_files warm",
         "cold")
SLICES = 10  # per repetition: short turns see the same load on both sides
AGAINST = "lmplan_against"  # the package name CHECKOUT's lmplan is imported as


def slice_seconds(calls: list, repeats: int) -> list[list[float]]:
    """For each of ``calls``, its seconds per call in each slice of
    ``repeats`` timed repetitions of ``SLICES`` slices.  In each slice the
    calls take turns, in reverse order every other slice."""
    timers = [timeit.Timer(call) for call in calls]
    numbers = [max(1, timer.autorange()[0] // SLICES) for timer in timers]
    seconds: list[list[float]] = [[] for _ in calls]
    turns = list(range(len(calls)))
    for _ in range(repeats * SLICES):
        for k in turns:
            seconds[k].append(timers[k].timeit(numbers[k]) / numbers[k])
        turns.reverse()
    return seconds


def load_pddl(root: Path):
    """The ``pddl`` module of the lmplan under ``root/src``, imported as the
    package ``AGAINST``."""
    package = root / "src" / "lmplan"
    spec = importlib.util.spec_from_file_location(
        AGAINST, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{AGAINST}.pddl")


def front_end_calls(module, domain_text: str, problem_text: str):
    """The timed calls of ``module``, a ``pddl``, on the two texts, and the
    task they ground."""
    clear = getattr(module.parse_domain, "cache_clear", lambda: None)
    parse = getattr(module.parse_domain, "__wrapped__", module.parse_domain)  # past the memo
    d = module.parse_domain(domain_text)
    p = module.parse_problem(problem_text, d)
    object_sets = getattr(getattr(d, "plan", None), "object_sets", None)
    forget = getattr(object_sets, "clear", lambda: None)
    calls = [lambda: parse(domain_text),
             lambda: module.parse_problem(problem_text, d),
             lambda: module.ground(d, p),
             lambda: (forget(), module.ground(d, p)),
             lambda: module.ground_files(domain_text, problem_text),
             lambda: (clear(), module.ground_files(domain_text, problem_text))]
    return calls, module.ground(d, p)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="another checkout root to time alternately with this one")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    other = None
    if args.against is not None:
        if not (args.against / "src" / "lmplan" / "__init__.py").is_file():
            parser.error(f"no lmplan package under {args.against}/src")
        other = load_pddl(args.against.resolve())
    for domain, size in CASES:
        label = "-".join(map(str, size)) if isinstance(size, tuple) else str(size)
        texts = DOMAIN_TEXTS[domain], gen_problem(domain, size, 1)
        calls, task = front_end_calls(pddl, *texts)
        if other is None:
            times = list(map(min, slice_seconds(calls, args.repeats)))
        else:
            other_calls, other_task = front_end_calls(other, *texts)
            # facts and actions are named tuples, equal as plain tuples
            if (task.facts, task.actions, task.init, task.goal) != (
                    other_task.facts, other_task.actions, other_task.init, other_task.goal):
                print(f"{domain} {label}: {args.against} grounds another task", file=sys.stderr)
                return 1
            turns = [c for pair in zip(calls, other_calls) for c in pair]
            both = slice_seconds(turns, args.repeats)
            times = list(map(min, both[::2]))
            ratios = [statistics.median(t / o for t, o in zip(ours, theirs))
                      for ours, theirs in zip(both[::2], both[1::2])]
        print(f"{domain} {label}: " + ", ".join(f"{c} {t:.3e} s" for c, t in zip(CALLS, times))
              + f" ({len(task.actions)} actions, {len(task.facts)} facts)", flush=True)
        if other is not None:
            print(f"{domain} {label} against: "
                  + ", ".join(f"{c} {r:.3f}x" for c, r in zip(CALLS, ratios)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
