"""Span recording for the traced benchmark run.

Spans are opened only by benchmark code: around its own calls into lmplan's
public functions, and inside wrappers that the benchmark binds, for the
duration of one traced pass, over names one lmplan module imported from
another (``lmplan.planners.build_rpg``, the stage functions imported into
``lmplan.pipeline``, ...).  Nothing under ``src/`` is edited.  Spans live in
memory and are folded into per-layer metrics when the pass ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Callable, Optional

# Every span name starts with the layer (lmplan module) it is charged to.
LAYERS = ("pddl", "rpg", "landmarks", "orders", "pipeline", "control",
          "planners", "core", "oracles", "bench")


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans (name, start, end, parent) plus exact counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: Optional[Span] = None

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(name, time.perf_counter(), self._open)
        self._open = s
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open = s.parent
            self.spans.append(s)

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[tuple, object], None]] = None) -> Callable:
        """``fn`` inside a span; ``count(args, result)`` runs after the span
        closes, so counting is not charged to the layer."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(args, result)
            return result

        return traced

    # -- folding ------------------------------------------------------------

    def total(self, name: str, parent_layer: Optional[str] = None) -> float:
        return sum(s.seconds for s in self.spans if s.name == name and
                   (parent_layer is None or
                    (s.parent is not None and s.parent.layer == parent_layer)))

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's direct children.

        Children of one span run one after another (one thread), so the
        covered part is the sum of their durations.
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.seconds
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            out[s.layer] += s.seconds - child_time.get(id(s), 0.0)
        return out


@contextlib.contextmanager
def rebound(bindings: list[tuple[object, str, Callable]]):
    """Set ``module.name = value`` for each binding; restore on exit."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in bindings]
    try:
        for mod, name, value in bindings:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)


def layer_bindings(lm, tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """Span-recording wrappers for names one lmplan module imported from
    another, with the counts each boundary can see from its arguments and
    result.  Pass the list to ``rebound``."""
    counts = tracer.counts

    def kind_count(g, kind) -> int:
        return sum(1 for e in g.edges if e[2] is kind)

    def counted_eval(_args, _result):
        counts["rpg.heuristic_evals"] += 1

    def counted_verify(args, result):
        counts["landmarks.candidates"] += len(args[1])
        counts["landmarks.verified"] += len(result)

    def counted_mutexes(args, table):
        counts["orders.mutex_pairs"] += _mutex_pairs(table, args[0].num_facts)

    def counted_r(_args, g):
        counts["orders.edges_r"] += kind_count(g, lm.landmarks.R)

    def counted_ro(_args, g):
        counts["orders.edges_ro"] += kind_count(g, lm.landmarks.RO)

    def counted_cycles(args, g):
        counts["orders.edges_dropped"] += len(args[0].edges) - len(g.edges)

    w = tracer.wrap
    pddl, planners, pipeline, rpg = lm.pddl, lm.planners, lm.pipeline, lm.rpg
    return [
        (pddl, "parse_domain", w("pddl.parse_domain", pddl.parse_domain)),
        (pddl, "parse_problem", w("pddl.parse_problem", pddl.parse_problem)),
        (pddl, "ground", w("pddl.ground", pddl.ground)),
        (planners, "build_rpg", w("rpg.build_rpg", rpg.build_rpg)),
        (planners, "extract_relaxed_plan",
         w("rpg.extract_relaxed_plan", rpg.extract_relaxed_plan, counted_eval)),
        (pipeline, "build_rpg", w("rpg.build_rpg", rpg.build_rpg)),
        (pipeline, "generate_candidates",
         w("landmarks.generate_candidates", pipeline.generate_candidates)),
        (pipeline, "lookahead_extend", w("landmarks.lookahead_extend", pipeline.lookahead_extend)),
        (pipeline, "verify_landmarks",
         w("landmarks.verify_landmarks", pipeline.verify_landmarks, counted_verify)),
        (pipeline, "compute_mutexes",
         w("orders.compute_mutexes", pipeline.compute_mutexes, counted_mutexes)),
        (pipeline, "add_reasonable_orders",
         w("orders.add_reasonable_orders", pipeline.add_reasonable_orders, counted_r)),
        (pipeline, "add_obedient_orders",
         w("orders.add_obedient_orders", pipeline.add_obedient_orders, counted_ro)),
        (pipeline, "remove_cycles",
         w("orders.remove_cycles", pipeline.remove_cycles, counted_cycles)),
    ]


def _mutex_pairs(table, num_facts: int) -> int:
    return sum(bin(table.mutex_mask(x)).count("1") for x in range(num_facts)) // 2


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold spans and counts into the per-layer metrics (seconds and counts
    summed over the traced items).  Metrics of a layer the workload does not
    exercise read 0."""
    t, c = tracer.total, tracer.counts
    search_s = t("planners.gbfs_plan") + t("planners.bfs_plan")
    planner_spans = [s for s in tracer.spans if s.layer == "planners"]
    kept, pruned = c["pddl.actions_kept"], c["pddl.actions_pruned"]
    out = {
        "pddl.parse_s": t("pddl.parse_domain") + t("pddl.parse_problem"),
        "pddl.ground_s": t("pddl.ground"),
        "pddl.actions_kept": kept,
        "pddl.actions_pruned": pruned,
        "pddl.keep_ratio": _ratio(kept, kept + pruned),
        "rpg.build_s": t("rpg.build_rpg"),
        "rpg.heuristic_evals": c["rpg.heuristic_evals"],
        "rpg.heuristic_s": t("rpg.build_rpg", "planners") + t("rpg.extract_relaxed_plan"),
        "planners.calls": len(planner_spans),
        "planners.search_s": search_s,
        "planners.expanded": c["planners.expanded"],
        "planners.expanded_per_s": _ratio(c["planners.expanded"], search_s),
        "planners.failed": c["planners.failed"],
        "landmarks.candidates_s": t("landmarks.generate_candidates"),
        "landmarks.lookahead_s": t("landmarks.lookahead_extend"),
        "landmarks.verify_s": t("landmarks.verify_landmarks"),
        "landmarks.candidates": c["landmarks.candidates"],
        "landmarks.verified": c["landmarks.verified"],
        "landmarks.keep_ratio": _ratio(c["landmarks.verified"], c["landmarks.candidates"]),
        "landmarks.edges_gn": c["landmarks.edges_gn"],
        "landmarks.edges_ln": c["landmarks.edges_ln"],
        "orders.mutex_s": t("orders.compute_mutexes"),
        "orders.mutex_pairs": c["orders.mutex_pairs"],
        "orders.reasonable_s": t("orders.add_reasonable_orders"),
        "orders.obedient_s": t("orders.add_obedient_orders"),
        "orders.cycles_s": t("orders.remove_cycles"),
        "orders.edges_r": c["orders.edges_r"],
        "orders.edges_ro": c["orders.edges_ro"],
        "orders.edges_dropped": c["orders.edges_dropped"],
        "pipeline.build_s": t("pipeline.build_landmark_graph"),
        "control.iterations": c["control.iterations"],
        "control.subtasks": sum(1 for s in planner_spans
                                if s.parent is not None and s.parent.layer == "control"),
        "core.validate_s": t("core.validate_plan"),
        "oracles.enumerate_s": t("oracles.enumerate_states"),
        "oracles.states": c["oracles.states"],
        "oracles.landmark_calls": c["oracles.landmark_calls"],
        "oracles.landmark_s": t("oracles.oracle_landmark"),
        "oracles.gn_calls": c["oracles.gn_calls"],
        "oracles.gn_s": t("oracles.oracle_gn"),
        "oracles.reasonable_calls": c["oracles.reasonable_calls"],
        "oracles.reasonable_s": t("oracles.oracle_reasonable"),
        "oracles.mutex_check_s": t("oracles.mutex_check"),
        "bench.generate_s": t("bench.generate"),
    }
    for layer, seconds in tracer.self_seconds().items():
        out[f"{layer}.self_s"] = seconds
    return out
