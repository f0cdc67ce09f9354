"""tools/oracle_queries.py: two rounds of oracle-micro's oracle calls.

The seed-1 answer counts and the digest of the answers in order are
pinned: they are the exact oracles' verdicts on the prefix's 3,631
landmarks, 3,369 gn edges and 1,117 r edges."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "oracle_queries.py"
TIMES = r"median (\d+\.\d) us/call, (\d+\.\d) ms/round, (\d+) successor sets"
ENUMERATE = re.compile(r"enumerate: (\d+) calls, (\d+) states, " + TIMES)
DECIDER = re.compile(r"(landmark|gn|r): (\d+) calls, (\d+) true, (\d+) false, " + TIMES)
SEARCH = re.compile(r"r (achieved-before|deletion|aftermath): (\d+) calls, "
                    r"median (\d+\.\d) us/call, (\d+\.\d) ms/round, (\d+) states kept")
TOTAL = re.compile(r"successor sets: (\d+) per round")
DIGEST = "answers digest: 5fbbc8b3fb1df7a1"


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def test_two_rounds_report_each_kind():
    done = run("--rounds", "2")
    assert done.returncode == 0, done.stderr
    head, first, *lines, last, digest = done.stdout.strip().splitlines()
    assert head == "seed 1: 400 items, 2 rounds"
    enumerate_ = ENUMERATE.fullmatch(first)
    assert enumerate_, first
    calls, states = map(int, enumerate_.group(1, 2))
    assert calls == 400 and states >= calls
    assert float(enumerate_.group(3)) > 0 and float(enumerate_.group(4)) > 0
    parsed = [DECIDER.fullmatch(line) for line in lines[:3]]
    assert all(parsed), lines
    assert [m.group(1) for m in parsed] == ["landmark", "gn", "r"]
    for m in parsed:
        assert float(m.group(5)) > 0 and float(m.group(6)) > 0
    # every verified landmark of the prefix is a true landmark
    assert [tuple(map(int, m.group(2, 3, 4))) for m in parsed] == [
        (3631, 3631, 0), (3369, 3045, 324), (1117, 1084, 33)]
    # the r decider's searches: the scan runs on every query, the
    # deletion search on the 382 with achieved-before states, and refutes
    # 33 of them; the aftermath search runs on the other 349 and on this
    # prefix refutes none.  The deletion search keeps its whole closure
    # and a search that refutes nothing keeps the same states in any
    # search order, so what each keeps is fixed by the tasks
    searches = [SEARCH.fullmatch(line) for line in lines[3:]]
    assert all(searches), lines
    assert [(m.group(1), int(m.group(2)), int(m.group(5))) for m in searches] == [
        ("achieved-before", 1117, 965), ("deletion", 382, 2264), ("aftermath", 349, 24010)]
    for m in searches:
        assert float(m.group(3)) > 0 and float(m.group(4)) > 0
    # the counting round starts with no successor table, and the items of
    # one action set share one: enumeration generates each reachable state's
    # successors once per action set, 125 + 73 + 22 + 13 over the prefix's
    # four (blocksworld arm and no-arm, at 4 and 3 blocks); the deciders read
    # them from the tables and generate none
    assert int(enumerate_.group(5)) == 233
    assert [int(m.group(7)) for m in parsed] == [0, 0, 0]
    total = TOTAL.fullmatch(last)
    assert total and int(total.group(1)) == 233
    assert digest == DIGEST


def test_rounds_must_be_positive():
    done = run("--rounds", "0")
    assert done.returncode == 2
    assert "--rounds" in done.stderr
