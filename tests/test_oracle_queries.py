"""tools/oracle_queries.py: one round of oracle-micro's oracle calls."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "oracle_queries.py"
TIMES = r"median (\d+\.\d) us/call, (\d+\.\d) ms/round, (\d+) successor sets"
ENUMERATE = re.compile(r"enumerate: (\d+) calls, (\d+) states, " + TIMES)
DECIDER = re.compile(r"(landmark|gn|r): (\d+) calls, (\d+) true, (\d+) false, " + TIMES)
TOTAL = re.compile(r"successor sets: (\d+) per round")


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def test_two_rounds_report_each_kind():
    done = run("--rounds", "2")
    assert done.returncode == 0, done.stderr
    head, first, *lines, last = done.stdout.strip().splitlines()
    assert head == "seed 1: 400 items, 2 rounds"
    enumerate_ = ENUMERATE.fullmatch(first)
    assert enumerate_, first
    calls, states = map(int, enumerate_.group(1, 2))
    assert calls == 400 and states >= calls
    assert float(enumerate_.group(3)) > 0 and float(enumerate_.group(4)) > 0
    parsed = [DECIDER.fullmatch(line) for line in lines]
    assert all(parsed), lines
    assert [m.group(1) for m in parsed] == ["landmark", "gn", "r"]
    for m in parsed:
        calls, true, false = map(int, m.group(2, 3, 4))
        assert calls > 0 and true + false == calls
        assert float(m.group(5)) > 0 and float(m.group(6)) > 0
    # every verified landmark of the prefix is a true landmark
    assert parsed[0].group(4) == "0"
    # enumeration generates each reachable state's successors once; the
    # deciders read them from the task's table and generate none
    assert int(enumerate_.group(5)) == states
    assert [int(m.group(7)) for m in parsed] == [0, 0, 0]
    total = TOTAL.fullmatch(last)
    assert total and int(total.group(1)) == states


def test_rounds_must_be_positive():
    done = run("--rounds", "0")
    assert done.returncode == 2
    assert "--rounds" in done.stderr
