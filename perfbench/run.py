"""lmplan benchmark: seeded PDDL text -> lmplan -> checked output.

    python3 perfbench/run.py --workload bw-plan --seed 1 --seconds 30 --trace 0

Runs one workload in this process (no pool, no threads) from the root of a
checkout that holds ``src/lmplan``.  With ``--trace 0`` it runs items for
``--seconds`` seconds untraced and reports the end-to-end metrics; with
``--trace 1`` it runs the workload's fixed item prefix once untraced and once
traced and reports the per-layer metrics, self times and tracing overhead.
Every item's output is checked (plans validated, oracle verdicts compared);
the per-item rows go to ``perfbench/out/``.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Exit status is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, layer_bindings, per_layer_metrics, rebound  # noqa: E402
from workloads import WORKLOADS, WRONG, generate_items  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MODULES = ("bench", "control", "core", "landmarks", "oracles", "orders",
           "pddl", "pipeline", "planners", "rpg")
SETUP_REPEATS = 9
# A run stops starting items this long after it began, even with its fixed
# prefix unfinished, so that it exits within 180 s.
HARD_STOP_S = 140.0
TAIL_BEYOND = 10

# Host-speed correction.  On a shared 2-vCPU host the speed of
# pure-Python work moved by up to 60% within seconds (other tenants share its
# cores), far more than any change a run should detect.  So every reported
# time is rescaled to a nominal host speed: a fixed pure-Python reference
# loop is timed between items every CALIBRATE_EVERY_S, and each item's wall
# time is multiplied by REFERENCE_NOMINAL_S over the mean reference time at
# the two ends of its window.  Raw wall times stay in the rows file.
REFERENCE_NOMINAL_S = 0.00075
REFERENCE_ITERATIONS = 3000
CALIBRATE_EVERY_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "item_s.p50": "s",
    "item_s.tail": "s", "ok_frac": "ratio", "plan_len.mean": "steps",
    "peak_rss_mb": "MB",
}


def import_lmplan() -> SimpleNamespace:
    """A fresh import of lmplan from this checkout's ``src``."""
    if not (SRC / "lmplan").is_dir():
        raise SystemExit(f"no lmplan package under {SRC}: run from the root of a checkout")
    for name in [m for m in sys.modules if m == "lmplan" or m.startswith("lmplan.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lm = SimpleNamespace(**{m: importlib.import_module(f"lmplan.{m}") for m in MODULES})
    if not Path(lm.core.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"lmplan imported from {lm.core.__file__}, not from {SRC}")
    return lm


def _reference_work() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        key = (acc ^ i) & 1023
        acc = (acc + table.get(key, i)) & 0xFFFFFFFFFFFF
        table[key] = acc
    return acc


def reference_seconds() -> float:
    """Wall time of the reference loop; the best of three, so an interrupt
    does not count as a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Sets each row's ``seconds`` to its ``wall_s`` rescaled to the nominal
    host speed, one calibration window at a time."""

    def __init__(self):
        self.ref = reference_seconds()
        self.opened = time.perf_counter()
        self.window: list[dict] = []
        self.factors: list[float] = []

    def add(self, row: dict) -> None:
        self.window.append(row)
        if time.perf_counter() - self.opened >= CALIBRATE_EVERY_S:
            self.close()

    def close(self) -> None:
        if not self.window:
            return
        ref = reference_seconds()
        factor = 2 * REFERENCE_NOMINAL_S / (self.ref + ref)
        for row in self.window:
            row["seconds"] = row["wall_s"] * factor
        self.factors.append(factor)
        self.ref, self.opened, self.window = ref, time.perf_counter(), []


def setup(workload, seed: int):
    """Import lmplan and generate the workload's texts, SETUP_REPEATS times.
    Returns the last import and its items, the median corrected set-up time
    and the median set-up wall time."""
    times, walls = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        t0 = time.perf_counter()
        lm = import_lmplan()
        items = generate_items(lm, workload, seed)
        walls.append(time.perf_counter() - t0)
        times.append(walls[-1] * 2 * REFERENCE_NOMINAL_S / (before + reference_seconds()))
    return lm, items, statistics.median(times), statistics.median(walls)


def attempt(lm, workload, item, position: int, tracer=None) -> dict:
    t0 = time.perf_counter()
    try:
        row = workload.run_item(lm, item, tracer)
    except Exception as exc:  # a crash is a failed output check, kept with its cause
        row = {"domain": item.domain, "size": item.size, "config": item.config,
               "outcome": "error", "detail": f"{type(exc).__name__}: {exc}"}
    row["wall_s"] = time.perf_counter() - t0
    row["i"] = position
    row["stratum"] = item.stratum
    return row


def run_items(lm, workload, items, seconds: float, stop_at: float,
              tracer=None) -> tuple[list[dict], list[float]]:
    """Items in stream order until ``seconds`` have passed and the fixed
    prefix is done (the item running when time is up finishes); with
    ``seconds`` 0, exactly the prefix.  No item starts after ``stop_at``.
    Returns the rows and the host-speed factors applied."""
    rows: list[dict] = []
    speed = HostSpeed()
    start = time.perf_counter()
    while len(rows) < workload.checked_items or (
            seconds and time.perf_counter() - start < seconds):
        if time.perf_counter() >= stop_at:
            break
        rows.append(attempt(lm, workload, items[len(rows) % len(items)], len(rows), tracer))
        speed.add(rows[-1])
    speed.close()
    return rows, speed.factors


def throughput(rows: list[dict], key: str = "seconds") -> float:
    """Items per second at the workload's round mix: the number of strata
    over the sum of each stratum's mean item time.  Equal to items per
    second over whole rounds, and not swayed by which stratum happens to be
    running when time is up."""
    by_stratum: dict[int, list[float]] = {}
    for r in rows:
        by_stratum.setdefault(r["stratum"], []).append(r[key])
    return len(by_stratum) / sum(statistics.fmean(v) for v in by_stratum.values())


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with at least TAIL_BEYOND samples above
    it: (value, its percentile, samples beyond).  Never below the median: with
    fewer than 2 * TAIL_BEYOND samples the median is reported, with fewer
    samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - TAIL_BEYOND, (n + 1) // 2)
    return ordered[k - 1], 100.0 * k / n, n - k


def end_to_end(rows: list[dict], workload, setup_s: float) -> tuple[dict, dict]:
    times = [r["seconds"] for r in rows]
    value, pct, beyond = tail(times)
    lengths = [r["plan_len"] for r in rows[:workload.checked_items] if r["outcome"] == "ok"]
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": throughput(rows),
        "item_s.p50": statistics.median(times),
        "item_s.tail": value,
        "ok_frac": sum(r["outcome"] == "ok" for r in rows) / len(rows),
        "plan_len.mean": statistics.fmean(lengths) if lengths else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"percentile": pct, "samples": len(times), "beyond": beyond,
                     "plan_len_items": len(lengths)}


def strip(rows: list[dict]) -> list[dict]:
    """Rows without their timing: what must repeat exactly for a seed."""
    return [{k: v for k, v in r.items() if k not in ("seconds", "wall_s")} for r in rows]


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns the report (written to ``out/``) and the
    metric units."""
    stop_at = time.perf_counter() + HARD_STOP_S
    lm, items, setup_s, setup_wall_s = setup(workload, seed)
    report: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                    "trace": int(trace)}
    if trace:
        rows, factors = run_items(lm, workload, items, 0, stop_at)
        tracer = Tracer()
        generate_items(lm, workload, seed, tracer)
        with rebound(layer_bindings(lm, tracer)):
            traced_rows, traced_factors = run_items(lm, workload, items, 0, stop_at, tracer)
        factors += traced_factors
        metrics = per_layer_metrics(tracer)
        untraced_tp, traced_tp = throughput(rows), throughput(traced_rows)
        metrics["trace.throughput_untraced_per_s"] = untraced_tp
        metrics["trace.throughput_traced_per_s"] = traced_tp
        metrics["trace.overhead_frac"] = 1.0 - traced_tp / untraced_tp
        units = {name: _unit(name) for name in metrics}
        same = strip(rows[:len(traced_rows)]) == strip(traced_rows)
        report["traced_matches_untraced"] = same
        rows = rows + traced_rows
    else:
        rows, factors = run_items(lm, workload, items, seconds, stop_at)
        metrics, report["tail"] = end_to_end(rows, workload, setup_s)
        units = END_TO_END_UNITS
        same = True
    report["uncorrected"] = {
        "setup_s": setup_wall_s,
        "throughput_per_s": throughput(rows, "wall_s"),
        "item_s.p50": statistics.median(r["wall_s"] for r in rows),
        "host_speed_factor.median": statistics.median(factors),
        "host_speed_factor.min": min(factors),
        "host_speed_factor.max": max(factors),
    }

    failures = [r for r in rows if r["outcome"] != "ok"]
    report.update(correct=same and not any(r["outcome"] in WRONG for r in rows),
                  attempted=len(rows), failed=len(failures), metrics=metrics,
                  failures=failures, fingerprint=strip(rows),
                  item_seconds=[r["seconds"] for r in rows],
                  item_wall_s=[r["wall_s"] for r in rows])
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    report["path"] = str(out_path.relative_to(ROOT))
    return report, units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    report, units = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    for name, value in report["metrics"].items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    for name, value in report["uncorrected"].items():
        print(f"uncorrected {name:24s} {value:14.6g}")
    for r in report["failures"]:
        print(f"FAILED item {r['i']} {r['domain']} {r['size']} {r['config']}: "
              f"{r['outcome']} {r.get('detail', '')}")
    print(f"rows: {report['path']}")
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    }))
    return 0 if report["correct"] else 1


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
