"""tools/frontend_times.py: one repetition, its report and its argument check."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "frontend_times.py"
LINE = re.compile(r"(\S+) (\S+): parse_domain (\S+) s, parse_problem (\S+) s, ground (\S+) s "
                  r"\((\d+) actions, (\d+) facts\)")


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def test_one_repetition_reports_each_case():
    done = run("--repeats", "1")
    assert done.returncode == 0, done.stderr
    parsed = [LINE.fullmatch(line) for line in done.stdout.strip().splitlines()]
    assert all(parsed), done.stdout
    assert [m.group(1, 2) for m in parsed] == [
        ("blocksworld-arm", "4"), ("blocksworld-arm", "9"), ("blocksworld-no-arm", "4"),
        ("logistics", "2-3-2-4"), ("logistics", "3-3-1-6")]
    for m in parsed:
        assert all(0 < float(m.group(k)) < 1 for k in (3, 4, 5))
    # 9 blocks: 9 pick-up, 9 put-down, 72 stack and 72 unstack actions;
    # 72 on, 9 each of on-table, clear and holding, and arm-empty
    assert parsed[1].group(6, 7) == ("162", "100")


def test_repeats_below_one_are_refused():
    done = run("--repeats", "0")
    assert done.returncode == 2 and "--repeats must be at least 1" in done.stderr
