"""tools/heuristic_evals.py: one round, its report and its argument check."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "heuristic_evals.py"
LINE = re.compile(r"(blocksworld-arm 9|logistics 2-3-2-4|logistics 3-3-1-6) (gbfs|sub-tasks): "
                  r"(\d+) evaluations, "
                  r"values sum (\d+) \((\d+) infinite\), ([0-9.]+) us per evaluation")


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def test_one_round_reports_each_kind():
    done = run("--rounds", "1")
    assert done.returncode == 0, done.stderr
    parsed = [LINE.fullmatch(line) for line in done.stdout.strip().splitlines()]
    assert all(parsed), done.stdout
    kinds = [m.group(1, 2) for m in parsed]
    assert kinds == [(case, kind) for case in ("blocksworld-arm 9", "logistics 2-3-2-4",
                                               "logistics 3-3-1-6")
                     for kind in ("gbfs", "sub-tasks")]
    for m in parsed:
        count, total, infinite, micros = int(m.group(3)), int(m.group(4)), int(m.group(5)), \
            float(m.group(6))
        assert count > 0 and total > 0 and infinite < count and micros > 0


def test_rounds_below_one_are_refused():
    done = run("--rounds", "0")
    assert done.returncode == 2 and "--rounds must be at least 1" in done.stderr
