"""Run the benchmark's pair protocol on two checkouts and summarise it.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B [--seconds 30] [--trace]

PARENT and CHANGE are checkout roots.  For each seed from A to B, runs
``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`` in
both checkouts, one after the other: the parent first on the first pair, the
change first on the next, and so on, so that neither side always runs first.
Prints each pair's end-to-end metrics, each side's ``attempted`` and
``failed`` counts and whether its fingerprints agree; then each side's median
attempted count and total failed count, and per metric each side's median and
quartiles, the pairs the change wins (by ``better`` in CHANGE's
``BENCHMARK.json``), the change of the median and the metric's regression
bound.  Exits 1 if a run is not ``correct`` or a pair's fingerprints differ
over their common rows, else 0.

With ``--trace`` each run is ``--trace 1`` instead: the workload's fixed
prefix, once untraced and once traced (``--seconds`` is passed on but does
not change what runs), and the metrics reported and summarised are the
``per_layer`` ones.  Span times are not corrected for host speed, so one
traced pair cannot show a layer's change; the medians of several can.

Each run compiles the checkout's modules from source, as a fresh checkout
does: it runs with ``PYTHONDONTWRITEBYTECODE=1`` and with
``PYTHONPYCACHEPREFIX`` set to an empty temporary directory, removed
afterwards, so it reads no ``__pycache__`` that the checkout holds and
writes none.  A side whose cache is warm skips the compilations of
perfbench's set-up, which moves its ``peak_rss_mb`` by 1-2 MB.

On Linux a process's ``ru_maxrss``, which ``peak_rss_mb`` reads, starts at
the peak resident size of the process that started it.  So this script never
loads a report's fingerprint itself: ``tools/compare_fingerprints.py``
compares each pair in a child process of its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COMPARE = Path(__file__).resolve().parent / "compare_fingerprints.py"


def seed_range(text: str) -> range:
    """``A-B`` (inclusive) or a single seed ``A``."""
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A-B or A, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_side(root: Path, workload: str, seed: int, seconds: float,
             trace: bool = False) -> dict:
    """One benchmark run in the checkout ``root``, traced or not, with no
    bytecode cache read or written: its ``correct`` flag, ``attempted`` and
    ``failed`` counts (None if the run did not print them), metric values
    and the path of its report."""
    with tempfile.TemporaryDirectory() as empty:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=empty)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=root, capture_output=True, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": None, "failed": None, "metrics": {},
                "report": None,
                "error": (done.stderr.strip().splitlines() or ["no output"])[-1]}
    return {"correct": last["correct"], "attempted": last.get("attempted"),
            "failed": last.get("failed"),
            "metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "report": root / "perfbench" / "out" / f"{workload}-seed{seed}-trace{int(trace)}.json"}


def compare_fingerprints(a, b) -> tuple[bool, str]:
    """``tools/compare_fingerprints.py`` on two reports: agreement and report."""
    if a is None or b is None:
        return False, "a run wrote no report"
    done = subprocess.run([sys.executable, str(COMPARE), str(a), str(b)],
                          capture_output=True, text=True)
    return done.returncode == 0, (done.stdout or done.stderr).strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def wins(metric: dict, parent: float, change: float) -> bool:
    return change < parent if metric["better"] == "lower" else change > parent


def relative(parent: float, change: float) -> str:
    return f"{(change - parent) / parent:+.1%}" if parent else "n/a"


def pair_lines(k: int, seed: int, change_first: bool, parent: dict, change: dict,
               metrics: list[dict]) -> tuple[list[str], bool]:
    """One pair's report, and whether both runs are correct and agree."""
    order = "change first" if change_first else "parent first"
    lines = [f"pair {k} seed {seed} ({order})"]
    ok = True
    for side, report in (("parent", parent), ("change", change)):
        if not report["correct"]:
            ok = False
            lines.append(f"  {side} run NOT correct {report.get('error', '')}".rstrip())
    for metric in metrics:
        name = metric["name"]
        if name in parent["metrics"] and name in change["metrics"]:
            p, c = parent["metrics"][name], change["metrics"][name]
            lines.append(f"  {name:18s} {p:12.6g} -> {c:12.6g}  {relative(p, c)}")
    for key in ("attempted", "failed"):
        p, c = ("-" if r[key] is None else str(r[key]) for r in (parent, change))
        lines.append(f"  {key:18s} {p:>12} -> {c:>12}")
    same, text = compare_fingerprints(parent["report"], change["report"])
    lines.append(f"  fingerprints: {text}" if same else f"  fingerprints DIFFER: {text}")
    return lines, ok and same


def run_counts(reports: list[dict]) -> str:
    """The median ``attempted`` and the total ``failed`` of the runs that
    printed them."""
    attempted = [r["attempted"] for r in reports if r["attempted"] is not None]
    failed = sum(r["failed"] for r in reports if r["failed"] is not None)
    median = f"{statistics.median(attempted):.10g}" if attempted else "-"
    return f"attempted median {median}, failed total {failed}"


def summary_lines(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """Each side's run counts; then per metric each side's median
    (quartiles), the change's wins, the change of the median and the bound,
    if the metric has one."""
    lines = [f"{len(pairs)} pairs: metric, parent median (q1-q3), change median (q1-q3), "
             "change wins, median change, bound",
             f"  runs: parent {run_counts([p for p, _ in pairs])}; "
             f"change {run_counts([c for _, c in pairs])}"]
    for metric in metrics:
        name = metric["name"]
        both = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        if not both:
            continue
        pq = quartiles([p for p, _ in both])
        cq = quartiles([c for _, c in both])
        won = sum(wins(metric, p, c) for p, c in both)
        bound = f"bound {metric['bound']:.0%} " if "bound" in metric else ""
        lines.append(
            f"  {name:18s} {pq[1]:.6g} ({pq[0]:.6g}-{pq[2]:.6g})  "
            f"{cq[1]:.6g} ({cq[0]:.6g}-{cq[2]:.6g})  wins {won}/{len(both)}  "
            f"{relative(pq[1], cq[1])}  {bound}({metric['better']} is better)")
    return lines


def main(argv: list[str], run=run_side) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", action="store_true",
                    help="traced runs of the fixed prefix; summarise the per-layer metrics")
    args = ap.parse_args(argv)
    with open(args.change / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        run = functools.partial(run, trace=True)

    pairs, ok = [], True
    for k, seed in enumerate(args.seeds):
        change_first = k % 2 == 1
        sides = [("change", args.change), ("parent", args.parent)]
        reports = {name: run(root, args.workload, seed, args.seconds)
                   for name, root in (sides if change_first else sides[::-1])}
        lines, pair_ok = pair_lines(k, seed, change_first, reports["parent"],
                                    reports["change"], metrics)
        print("\n".join(lines), flush=True)
        pairs.append((reports["parent"], reports["change"]))
        ok = ok and pair_ok
    print("\n".join(summary_lines(pairs, metrics)))
    if not ok:
        print("FAILED: a run was not correct or fingerprints differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
