"""Repeat the logistics half of acceptance criterion 6 and summarise it.

    python3 tools/criterion6_ratio.py --rounds 20
    python3 tools/criterion6_ratio.py --processes 20

Each round grounds the same ten logistics 2-3-2-4 tasks (seeds 0-9) and
times ``bench.run_config`` with gbfs and then gbfs+L on each, as
``tests/test_acceptance.py::test_criterion_6_desk_scale_speedup`` does.  The
check passes when gbfs+L's mean time is at most gbfs's, that is when the
ratio of the two means is at most 1; on a shared host that ratio moves from
round to round, so one pass or failure says little.  Prints each round's
means and ratio, then the ratio's median, quartiles and the number of
rounds above 1.  With ``--processes N`` each round runs in a fresh Python
process of its own, N one after another, so that no round inherits the
caches, heap or warm-up of an earlier one; the lines and the summary are the
same.  Runs lmplan from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import re
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lmplan.bench import generate_task, run_config  # noqa: E402

SEEDS = range(10)
SIZE = (2, 3, 2, 4)


def one_round() -> tuple[float, float]:
    """Mean seconds of gbfs and of gbfs+L over the ten tasks."""
    base, landmarks = [], []
    for seed in SEEDS:
        task = generate_task("logistics", SIZE, seed)
        o1, s1, _ = run_config(task, "gbfs", time_limit=60.0)
        o2, s2, _ = run_config(task, "gbfs+L", time_limit=60.0)
        if not o1 == o2 == "solved":
            raise SystemExit(f"seed {seed}: gbfs {o1}, gbfs+L {o2}")
        base.append(s1)
        landmarks.append(s2)
    return statistics.fmean(base), statistics.fmean(landmarks)


def fresh_round() -> tuple[float, float]:
    """``one_round`` in a new process: its gbfs and gbfs+L means."""
    done = subprocess.run([sys.executable, __file__, "--rounds", "1"],
                          capture_output=True, text=True)
    line = re.match(r"round 0: gbfs mean ([0-9.]+) ms, gbfs\+L mean ([0-9.]+) ms", done.stdout)
    if done.returncode or not line:
        raise SystemExit(done.stderr.strip() or done.stdout.strip() or "no output")
    return float(line[1]) / 1000, float(line[2]) / 1000


def summary(ratios: list[float]) -> str:
    if len(ratios) > 1:
        q1, median, q3 = statistics.quantiles(ratios, n=4)
    else:
        q1 = median = q3 = ratios[0]
    above = sum(1 for r in ratios if r > 1)
    return (f"ratio median {median:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
            f"above 1 in {above} of {len(ratios)} rounds")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    count = parser.add_mutually_exclusive_group()
    count.add_argument("--rounds", type=int, help="rounds in this process (default 10)")
    count.add_argument("--processes", type=int, help="rounds, each in a fresh process")
    args = parser.parse_args(argv)
    if args.processes is not None:
        rounds, run = args.processes, fresh_round
        if rounds < 1:
            parser.error("--processes must be at least 1")
    else:
        rounds, run = 10 if args.rounds is None else args.rounds, one_round
        if rounds < 1:
            parser.error("--rounds must be at least 1")
    ratios = []
    for i in range(rounds):
        base, landmarks = run()
        ratios.append(landmarks / base)
        print(f"round {i}: gbfs mean {base * 1000:.2f} ms, gbfs+L mean "
              f"{landmarks * 1000:.2f} ms, ratio {ratios[-1]:.3f}", flush=True)
    print(summary(ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
