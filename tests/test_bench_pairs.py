"""tools/bench_pairs.py on synthetic reports: the pair order, the per-pair and
summary report, and the exit status.  No benchmark is run: the runner is
replaced by one that writes canned reports and returns their results, or
runs a stub checkout's ``perfbench/run.py``."""

import importlib.util
import json
import py_compile
import shutil
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def report(throughput, p50, correct=True, rows=None, attempted=10, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"throughput_per_s": throughput, "item_s.p50": p50, "ok_frac": 1.0},
            "fingerprint": rows if rows is not None else [{"i": 0, "plan_len": 5}]}


def fake_runner(table, calls):
    """Writes ``table[(side, seed)]`` as the run's report file, returns what
    ``run_side`` would, and records the call order."""
    def run(root, workload, seed, seconds):
        calls.append((root.name, seed))
        canned = table[(root.name, seed)]
        path = root / f"{workload}-seed{seed}-trace0.json"
        path.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "fingerprint": canned["fingerprint"]}))
        return {"correct": canned["correct"], "attempted": canned["attempted"],
                "failed": canned["failed"], "metrics": canned["metrics"], "report": path}
    return run


@pytest.fixture
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    return parent, change


def test_sides_alternate_and_the_summary_counts_wins(checkouts, capsys):
    parent, change = checkouts
    table = {}
    for k, seed in enumerate(range(201, 205)):
        table[("parent", seed)] = report(100.0 + k, 0.010)
        # the change is faster on three pairs, slower on the last
        table[("change", seed)] = report(130.0 + k if k < 3 else 90.0, 0.008)
    calls = []
    status = bench_pairs.main([str(parent), str(change), "--workload", "oracle-micro",
                               "--seeds", "201-204", "--seconds", "3"],
                              run=fake_runner(table, calls))
    out = capsys.readouterr().out
    assert status == 0, out
    assert calls == [("parent", 201), ("change", 201), ("change", 202), ("parent", 202),
                     ("parent", 203), ("change", 203), ("change", 204), ("parent", 204)]
    assert "pair 0 seed 201 (parent first)" in out and "pair 1 seed 202 (change first)" in out
    assert out.count("fingerprints: 1 common rows identical") == 4
    summary = {line.split()[0]: line for line in out.splitlines()[-4:]}
    # parent 100..103: median 101.5, quartiles 100.25-102.75
    tp = summary["throughput_per_s"]
    assert "101.5 (100.25-102.75)" in tp and "wins 3/4" in tp and "bound 20%" in tp
    assert "higher is better" in tp
    # p50: lower is better, the change wins every pair
    assert "wins 4/4" in summary["item_s.p50"] and "-20.0%" in summary["item_s.p50"]
    assert "wins 0/4" in summary["ok_frac"]


def test_a_fingerprint_difference_fails(checkouts, capsys):
    parent, change = checkouts
    table = {("parent", 7): report(1.0, 1.0, rows=[{"i": 0, "plan_len": 5}]),
             ("change", 7): report(2.0, 1.0, rows=[{"i": 0, "plan_len": 6}, {"i": 1}])}
    status = bench_pairs.main([str(parent), str(change), "--workload", "bw-plan",
                               "--seeds", "7"], run=fake_runner(table, []))
    out = capsys.readouterr().out
    assert status == 1
    assert "fingerprints DIFFER: row 0 differs" in out and '"plan_len": 6' in out


def test_a_run_that_is_not_correct_fails(checkouts, capsys):
    parent, change = checkouts
    table = {("parent", s): report(1.0, 1.0) for s in (1, 2)}
    table.update({("change", 1): report(1.0, 1.0),
                  ("change", 2): report(1.0, 1.0, correct=False)})
    status = bench_pairs.main([str(parent), str(change), "--workload", "bw-plan",
                               "--seeds", "1-2"], run=fake_runner(table, []))
    out = capsys.readouterr().out
    assert status == 1
    assert "change run NOT correct" in out and "FAILED" in out.splitlines()[-1]


def test_each_pair_and_the_summary_show_attempted_and_failed(checkouts, capsys):
    parent, change = checkouts
    table = {("parent", 1): report(1.0, 1.0, attempted=40),
             ("change", 1): report(1.0, 1.0, attempted=38, failed=2),
             ("parent", 2): report(1.0, 1.0, attempted=44, failed=1),
             ("change", 2): report(1.0, 1.0, attempted=41, failed=3),
             ("parent", 3): report(1.0, 1.0, attempted=42),
             ("change", 3): report(1.0, 1.0, attempted=39)}
    status = bench_pairs.main([str(parent), str(change), "--workload", "bw-plan",
                               "--seeds", "1-3"], run=fake_runner(table, []))
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    counts = [line.split() for line in lines if line.split()[0] in ("attempted", "failed")]
    assert counts == [["attempted", "40", "->", "38"], ["failed", "0", "->", "2"],
                      ["attempted", "44", "->", "41"], ["failed", "1", "->", "3"],
                      ["attempted", "42", "->", "39"], ["failed", "0", "->", "0"]]
    assert ("  runs: parent attempted median 42, failed total 1; "
            "change attempted median 39, failed total 5") in lines


def test_a_run_without_output_counts_as_unknown(checkouts, capsys):
    parent, change = checkouts
    crashed = {"correct": False, "attempted": None, "failed": None, "metrics": {},
               "report": None, "error": "boom"}
    table = {("parent", 1): report(1.0, 1.0, attempted=40, failed=1)}

    def run(root, workload, seed, seconds):
        if root.name == "change":
            return crashed
        return fake_runner(table, [])(root, workload, seed, seconds)

    status = bench_pairs.main([str(parent), str(change), "--workload", "bw-plan",
                               "--seeds", "1"], run=run)
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert ["attempted", "40", "->", "-"] in [line.split() for line in lines]
    assert ("  runs: parent attempted median 40, failed total 1; "
            "change attempted median -, failed total 0") in lines


def test_traced_pairs_summarise_the_per_layer_metrics(checkouts, capsys):
    parent, change = checkouts
    table = {}
    for seed in (1, 2, 3):
        for side, mutex_s in (("parent", 0.030), ("change", 0.020)):
            table[(side, seed)] = dict(
                report(1.0, 1.0, attempted=20),
                metrics={"orders.mutex_s": mutex_s + (seed - 1) / 1000,
                         "landmarks.verified": 244, "oracles.states": 0})
    canned = fake_runner(table, [])
    traced = []

    def run(root, workload, seed, seconds, trace=False):
        traced.append((root.name, seed, trace))
        return canned(root, workload, seed, seconds)

    status = bench_pairs.main([str(parent), str(change), "--workload", "logistics-plan",
                               "--seeds", "1-3", "--trace"], run=run)
    out = capsys.readouterr().out
    assert status == 0, out
    assert traced == [("parent", 1, True), ("change", 1, True), ("change", 2, True),
                      ("parent", 2, True), ("parent", 3, True), ("change", 3, True)]
    assert out.count("fingerprints: 1 common rows identical") == 3
    summary = {line.split()[0]: line for line in out.splitlines()
               if line.startswith("  ") and "wins" in line}
    # per-layer metrics only, with each side's median and quartiles, and no bound
    assert set(summary) == {"orders.mutex_s", "landmarks.verified", "oracles.states"}
    mutex = summary["orders.mutex_s"]
    assert "0.031 (0.03-0.032)" in mutex and "0.021 (0.02-0.022)" in mutex
    assert "wins 3/3" in mutex and "-32.3%" in mutex and "bound" not in mutex
    assert "(lower is better)" in mutex
    assert "wins 0/3" in summary["landmarks.verified"] and "+0.0%" in summary["landmarks.verified"]
    assert "n/a" in summary["oracles.states"]


@pytest.mark.parametrize("seeds", ["x", "5-3", "1-y"])
def test_bad_seed_ranges_are_usage_errors(checkouts, seeds):
    parent, change = checkouts
    with pytest.raises(SystemExit) as err:
        bench_pairs.main([str(parent), str(change), "--workload", "bw-plan",
                          "--seeds", seeds], run=None)
    assert err.value.code == 2


def test_an_unknown_workload_is_a_usage_error(checkouts):
    parent, change = checkouts
    with pytest.raises(SystemExit) as err:
        bench_pairs.main([str(parent), str(change), "--workload", "nope", "--seeds", "1"],
                         run=None)
    assert err.value.code == 2


STUB_RUN = """import json, sys
sys.path.insert(0, "src")
import stubmod, helper
print(json.dumps({"correct": True, "metrics": {"value": {"value": stubmod.VALUE}}}))
"""


def test_a_side_reads_and_writes_no_bytecode_cache(tmp_path, monkeypatch):
    # the checkout's cache holds stubmod as VALUE = 1, unchecked against its
    # source, which now says 2: a run reading the cache would report 1
    root = tmp_path / "stub"
    (root / "src").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "perfbench" / "helper.py").write_text("")
    module = root / "src" / "stubmod.py"
    module.write_text("VALUE = 1\n")
    cached = importlib.util.cache_from_source(str(module))
    py_compile.compile(str(module), cfile=cached,
                       invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    module.write_text("VALUE = 2\n")
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    side = bench_pairs.run_side(root, "bw-plan", 1, 0.1)
    assert side["correct"] and side["metrics"] == {"value": 2}
    assert not (root / "perfbench" / "__pycache__").exists()  # helper's cache not written
    assert list(temp.iterdir()) == []  # the empty cache directory is removed
