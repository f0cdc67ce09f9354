"""The benchmark's own tests: short runs of every workload.

    python3 -m pytest perfbench -q

Each workload runs with a shortened fixed prefix so the file finishes in a
couple of minutes; the metric names are checked against BENCHMARK.json.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SHORT_PREFIX = {"bw-plan": 6, "logistics-plan": 2, "oracle-micro": 12}


def short(name):
    return dataclasses.replace(WORKLOADS[name], checked_items=SHORT_PREFIX[name])


def test_workloads_match_benchmark_json():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_reports_every_end_to_end_metric(name):
    report, units = run.run(short(name), seed=3, seconds=0.1, trace=False)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] >= SHORT_PREFIX[name]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: units[k] for k in report["metrics"]} == expected
    assert all(v > 0 for v in report["metrics"].values())
    assert report["tail"]["samples"] == report["attempted"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_traced_runs_repeat_counts_and_fingerprints(name):
    first, units = run.run(short(name), seed=5, seconds=0.1, trace=True)
    second, _ = run.run(short(name), seed=5, seconds=0.1, trace=True)
    assert first["correct"] and first["traced_matches_untraced"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: units[k] for k in first["metrics"]} == expected
    counts = {k for k, u in units.items() if u == "count" or k.endswith("keep_ratio")}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["fingerprint"] == second["fingerprint"]


def test_plan_workload_counts_land_in_their_layers():
    report, _ = run.run(short("bw-plan"), seed=5, seconds=0.1, trace=True)
    m = report["metrics"]
    assert m["rpg.heuristic_evals"] > 0 and m["planners.expanded"] > 0
    assert m["landmarks.verified"] <= m["landmarks.candidates"]
    assert m["control.subtasks"] >= m["control.iterations"] > 0
    assert m["oracles.states"] == 0
    assert m["control.self_s"] > 0 and m["planners.self_s"] > 0


def test_oracle_workload_exercises_every_oracle():
    report, _ = run.run(short("oracle-micro"), seed=5, seconds=0.1, trace=True)
    m = report["metrics"]
    for name in ("oracles.states", "oracles.landmark_calls", "oracles.gn_calls",
                 "oracles.reasonable_calls", "orders.mutex_pairs"):
        assert m[name] > 0, name


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(1, 101)]
    assert run.tail(times) == (90.0, 90.0, 10)
    assert run.tail(times[:15]) == (8.0, 100.0 * 8 / 15, 7)


def test_untraced_window_keeps_its_fixed_prefix():
    a, _ = run.run(short("oracle-micro"), seed=7, seconds=0.1, trace=False)
    b, _ = run.run(short("oracle-micro"), seed=7, seconds=0.5, trace=False)
    n = SHORT_PREFIX["oracle-micro"]
    assert a["fingerprint"][:n] == b["fingerprint"][:n]
    assert a["metrics"]["plan_len.mean"] == b["metrics"]["plan_len.mean"]
