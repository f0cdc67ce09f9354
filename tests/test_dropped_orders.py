"""tools/dropped_orders.py: one seed of oracle-micro and its report."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "dropped_orders.py"
LINE = re.compile(r"(.+): (\d+) items; r edges inserted (\d+), dropped (\d+) \((\d+) true "
                  r"reasonable orders\); rO edges inserted (\d+), dropped (\d+)")


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def test_one_seed_reports_each_stratum_and_the_total():
    done = run("--seed", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    parsed = [LINE.fullmatch(line) for line in lines]
    assert all(parsed), lines
    labels = [m.group(1) for m in parsed]
    assert labels == ["blocksworld-arm 3", "blocksworld-arm 4", "blocksworld-no-arm 3",
                      "blocksworld-no-arm 4", "seed 1"]
    counts = [tuple(map(int, m.groups()[1:])) for m in parsed]
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1])))
    items, r_in, r_drop, r_true, ro_in, ro_drop = counts[-1]
    assert items == 400 and r_in > 0 and ro_in > 0
    assert r_true <= r_drop <= r_in and ro_drop <= ro_in

