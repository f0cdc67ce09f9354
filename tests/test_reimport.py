"""What importing lmplan costs a process.  A fresh import lets the last one
go: nothing the package builds when it loads (typing's alias cache among
others) keeps its classes; perfbench imports the package afresh for each
run it sets up.  And the import loads no module only one rarely used path
needs, such as ``subprocess`` for the external planner."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import gc, sys, weakref
import lmplan, lmplan.core
old = weakref.ref(lmplan.core.Task)
for name in [m for m in sys.modules if m.split(".")[0] == "lmplan"]:
    del sys.modules[name]
del lmplan
import lmplan
gc.collect()
assert lmplan.core.Task is not old()
print("dead" if old() is None else "alive")
"""


def test_a_purged_import_is_freed():
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "dead"


def test_importing_lmplan_loads_no_subprocess():
    probe = ("import sys; import lmplan, lmplan.bench, lmplan.cli; "
             "print('subprocess' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
