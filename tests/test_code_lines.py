"""tools/code_lines.py: the count on a small source, and a report whose total
is the sum of its modules."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts

# a comment alone does not


class A:
    """Class docstring."""

    x = """a string that is not a docstring,
    over two lines"""

    def f(self):
        """Function
        docstring."""
        return os.sep


def g(): "docstring and code on one line"; return 1


async def h():
    'single-quoted docstring'
    await g()
    "a string after the first statement counts"
'''


def test_count_skips_blanks_comments_and_docstrings():
    # import, class A, x (two lines), def f, return, def g, async def h,
    # await, the late string
    assert code_lines.code_lines(SOURCE) == 10


def test_a_source_of_docstrings_and_comments_only_counts_zero():
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_report_total_is_the_sum_of_the_modules():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.strip().splitlines()]
    *modules, (last, total) = lines
    assert last == "total"
    names = [name for name, _ in modules]
    assert names == sorted(p.name for p in (ROOT / "src" / "lmplan").glob("*.py"))
    assert "core.py" in names and "rpg.py" in names
    assert int(total) == sum(int(count) for _, count in modules) > 0
