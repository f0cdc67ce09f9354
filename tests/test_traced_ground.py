"""The traced benchmark's count of pruned actions builds no name.

``perfbench/workloads.py`` counts ``len(task.pruned_actions)`` for every
grounded item on a traced pass.  The grounder keeps that count, so the read
must name no action.  The benchmark's files are loaded as they are, not
edited, as ``tests/test_tracing_contract.py`` loads ``tracing.py``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from lmplan import bench, pddl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(module)
    return module


workloads, tracing = _load("workloads"), _load("tracing")


def test_the_traced_pruned_count_builds_no_name(monkeypatch):
    item = workloads.Item(0, "logistics", "3-3-1-6", "gbfs",
                          bench.gen_logistics(3, 3, 1, 6, seed=1))
    lm = SimpleNamespace(pddl=pddl, bench=bench)
    workloads._ground(lm, item, workloads._nospan, None)  # the memo is warm

    def fail(*_):
        raise AssertionError("an action name was built")

    monkeypatch.setattr(pddl, "format_atom", fail)
    tracer = tracing.Tracer()
    task = workloads._ground(lm, item, tracer.span, tracer)
    assert tracer.counts["pddl.actions_pruned"] == 221_592
    assert tracer.counts["pddl.actions_kept"] == len(task.actions) == 168
