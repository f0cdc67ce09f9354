"""The traced benchmark's contract with the library, checked in the main test
suite (``perfbench/test_perfbench.py`` lies outside ``testpaths``).

``perfbench/tracing.py`` rebinds names that one lmplan module imported from
another and counts what passed through them, reading the inputs of
``verify_landmarks`` and ``remove_cycles`` after each call.  So a rename of
a rebound name breaks the traced run, a stage that stops calling one
through its module empties that layer's metrics, and a stage that edits its
input in place zeroes the counts read from it.  The benchmark's files are
imported here as they are, not edited.
"""

from __future__ import annotations

import collections
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from lmplan.bench import DOMAIN_TEXTS, gen_problem

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = ("bench", "control", "core", "landmarks", "oracles", "orders",
           "pddl", "pipeline", "planners", "rpg")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
LM = SimpleNamespace(**{m: importlib.import_module(f"lmplan.{m}") for m in MODULES})


# verification prunes candidates on the logistics item, cycle removal drops
# edges on both
ITEMS = (("blocksworld-arm", 6, 1), ("logistics", (2, 3, 2, 4), 5))


def _solve(lm):
    """gbfs+L solves as the plan workloads run them: ground from text, build
    the landmark graph, run the control loop.  Returns the plans."""
    plans = []
    for domain, size, seed in ITEMS:
        task = lm.pddl.ground_files(DOMAIN_TEXTS[domain], gen_problem(domain, size, seed))
        g = lm.pipeline.build_landmark_graph(task)
        plans.append(lm.control.run_control(task, g, lm.planners.gbfs_plan).plan)
    return plans


def test_every_rebound_name_exists():
    bindings = tracing.layer_bindings(LM, tracing.Tracer())
    assert bindings
    for module, name, _ in bindings:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_traced_gbfs_landmark_solves_fill_the_counts():
    tracer = tracing.Tracer()
    calls = collections.Counter()
    inputs = collections.defaultdict(list)  # stage -> (input as it came, output)

    def watched(module, name, traced):
        def call(*args, **kwargs):
            calls[module.__name__, name] += 1
            before = args[-1].copy() if name in ("verify_landmarks", "remove_cycles") else None
            result = traced(*args, **kwargs)
            if before is not None:
                inputs[name].append((before, result))
            return result

        return call

    bindings = [(m, n, watched(m, n, v)) for m, n, v in tracing.layer_bindings(LM, tracer)]
    untraced = _solve(LM)
    with tracing.rebound(bindings):
        plans = _solve(LM)
    assert None not in plans and plans == untraced
    # every rebound name is still called through the module that binds it
    assert [calls[m.__name__, n] > 0 for m, n, _ in bindings] == [True] * len(bindings), \
        [f"{m.__name__}.{n}" for m, n, _ in bindings if not calls[m.__name__, n]]

    counts = tracer.counts
    assert counts["rpg.heuristic_evals"] > 0
    # strictly fewer verified: a verification that pruned its input in place
    # would read equal
    assert counts["landmarks.candidates"] > counts["landmarks.verified"] > 0
    assert counts["landmarks.candidates"] == sum(len(g) for g, _ in inputs["verify_landmarks"])
    assert counts["landmarks.verified"] == sum(len(out) for _, out in inputs["verify_landmarks"])
    dropped = sum(len(g.edges) - len(out.edges) for g, out in inputs["remove_cycles"])
    assert counts["orders.edges_dropped"] == dropped > 0
    metrics = tracing.per_layer_metrics(tracer)
    assert metrics["orders.cycles_s"] > 0 and metrics["landmarks.verify_s"] > 0
