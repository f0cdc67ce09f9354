"""tools/criterion6_ratio.py: one round, in this process or in fresh ones,
its report and its argument checks."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "criterion6_ratio.py"


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def test_one_round_reports_means_and_ratio_summary():
    done = run("--rounds", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 2
    round_line = re.fullmatch(r"round 0: gbfs mean ([0-9.]+) ms, gbfs\+L mean ([0-9.]+) ms, "
                              r"ratio ([0-9.]+)", lines[0])
    assert round_line, lines[0]
    base, landmarks, ratio = map(float, round_line.groups())
    assert base > 0 and landmarks > 0
    assert abs(ratio - landmarks / base) < 0.01
    assert re.fullmatch(r"ratio median [0-9.]+ \(quartiles [0-9.]+-[0-9.]+\), "
                        r"above 1 in [01] of 1 rounds", lines[1]), lines[1]


def test_rounds_below_one_are_refused():
    done = run("--rounds", "0")
    assert done.returncode == 2 and "--rounds must be at least 1" in done.stderr


def test_fresh_processes_report_a_round_each_and_the_summary():
    done = run("--processes", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines[:2]):
        round_line = re.fullmatch(rf"round {i}: gbfs mean ([0-9.]+) ms, gbfs\+L mean ([0-9.]+) ms, "
                                  r"ratio ([0-9.]+)", line)
        assert round_line, line
        base, landmarks, ratio = map(float, round_line.groups())
        assert base > 0 and landmarks > 0 and abs(ratio - landmarks / base) < 0.01
    assert re.fullmatch(r"ratio median [0-9.]+ \(quartiles [0-9.]+-[0-9.]+\), "
                        r"above 1 in [012] of 2 rounds", lines[2]), lines[2]


def test_processes_below_one_and_both_counts_are_refused():
    done = run("--processes", "0")
    assert done.returncode == 2 and "--processes must be at least 1" in done.stderr
    done = run("--processes", "2", "--rounds", "2")
    assert done.returncode == 2 and "not allowed with argument" in done.stderr
