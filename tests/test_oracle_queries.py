"""tools/oracle_queries.py: one round of oracle-micro's decider calls."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "oracle_queries.py"
LINE = re.compile(r"(landmark|gn|r): (\d+) calls, (\d+) true, (\d+) false, "
                  r"median (\d+\.\d) us/call, (\d+\.\d) ms/round")


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def test_two_rounds_report_each_kind():
    done = run("--rounds", "2")
    assert done.returncode == 0, done.stderr
    head, *lines = done.stdout.strip().splitlines()
    assert head == "seed 1: 400 items, 2 rounds"
    parsed = [LINE.fullmatch(line) for line in lines]
    assert all(parsed), lines
    assert [m.group(1) for m in parsed] == ["landmark", "gn", "r"]
    for m in parsed:
        calls, true, false = map(int, m.group(2, 3, 4))
        assert calls > 0 and true + false == calls
        assert float(m.group(5)) > 0 and float(m.group(6)) > 0
    # every verified landmark of the prefix is a true landmark
    assert parsed[0].group(4) == "0"


def test_rounds_must_be_positive():
    done = run("--rounds", "0")
    assert done.returncode == 2
    assert "--rounds" in done.stderr
