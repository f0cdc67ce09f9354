import csv
import io
import json
import re
from pathlib import Path

from lmplan import bench
from lmplan.bench import (
    gen_blocksworld,
    gen_logistics,
    generate_task,
    export_lgg,
    lgg_from_json,
    records_to_csv,
    run_benchmark,
    solved_series_csv,
)
from lmplan.cli import _sizes
from lmplan.core import validate_plan
from lmplan.landmarks import LGG
from lmplan.pddl import ground_files
from lmplan.pipeline import build_landmark_graph
from lmplan.planners import bfs_plan


def test_generators_are_deterministic():
    assert gen_blocksworld(5, "arm", 7) == gen_blocksworld(5, "arm", 7)
    assert gen_blocksworld(5, "arm", 7) != gen_blocksworld(5, "arm", 8)
    assert gen_logistics(2, 2, 1, 2, 3) == gen_logistics(2, 2, 1, 2, 3)


def test_single_block_instance_is_trivially_solved():
    task = generate_task("blocksworld-arm", 1, 0)
    res = bfs_plan(task)
    assert res.solved and res.plan == ()


def test_generated_instances_ground_and_solve():
    for domain in ("blocksworld-arm", "blocksworld-no-arm"):
        for seed in range(3):
            task = generate_task(domain, 4, seed)
            res = bfs_plan(task)
            assert res.solved, (domain, seed)
            assert validate_plan(task, res.plan)
    for seed in range(3):
        task = generate_task("logistics", (2, 2, 1, 1), seed)
        res = bfs_plan(task)
        assert res.solved and validate_plan(task, res.plan)


def test_generated_cross_city_package_gets_lookahead_chain():
    from lmplan.landmarks import LN

    for seed in range(50):
        task = generate_task("logistics", (2, 2, 2, 1), seed)
        origin = next(f for f in task.facts_in(task.init) if f.predicate == "at"
                      and f.args[0] == "pkg1")
        dest = next(f for f in task.facts_in(task.goal) if f.predicate == "at")
        if origin.args[1][:2] == dest.args[1][:2]:
            continue  # same city; no air leg
        g = build_landmark_graph(task)
        airports = [n for n in g.nodes
                    if task.facts[n].predicate == "at"
                    and task.facts[n].args[0] == "pkg1"
                    and task.facts[n].args[1].endswith("-l1")]
        ln_edges = [(s, d) for s, d, k in g.edges if k is LN]
        assert any(s in airports and d in airports for s, d in ln_edges), seed
        return
    raise AssertionError("no cross-city seed among the first 50")


def test_same_origin_destination_puts_goal_in_init():
    # scan for a seed where some package starts at its destination
    for seed in range(50):
        task = generate_task("logistics", (1, 2, 1, 1), seed)
        if task.init & task.goal == task.goal:
            assert bfs_plan(task).plan == ()
            return
    raise AssertionError("no same-place seed among the first 50")


def test_dot_export_mentions_every_landmark(demo_bw):
    g = build_landmark_graph(demo_bw)
    dot = export_lgg(demo_bw, g, "dot")
    assert dot.startswith("digraph")
    for n in g.nodes:
        assert demo_bw.facts[n].name in dot
    for style in ("style=solid", "style=dotted"):
        assert style in dot


def test_dot_labels_escape_quotes_and_backslashes():
    # the reader keeps " and \ inside symbols
    domain = """(define (domain d) (:predicates (p ?x) (r ?x))
      (:action go :parameters (?x) :precondition (r ?x) :effect (p ?x)))"""
    problem = r"""(define (problem q) (:domain d) (:objects a"b c\d e\"f)
      (:init (r a"b) (r c\d) (r e\"f)) (:goal (and (p a"b) (p c\d) (p e\"f))))"""
    task = ground_files(domain, problem)
    g = build_landmark_graph(task)
    dot = export_lgg(task, g, "dot")
    labels = re.findall(r'label="((?:[^"\\]|\\.)*)", shape=', dot)
    unescaped = [re.sub(r"\\(.)", r"\1", label) for label in labels]
    assert sorted(unescaped) == sorted(task.facts[n].name for n in g.nodes)
    assert sorted(unescaped) == ['(p a"b)', "(p c\\d)", '(p e\\"f)',
                                 '(r a"b)', "(r c\\d)", '(r e\\"f)']
    assert "->" in dot
    # no quote ends a label early
    for line in dot.splitlines()[1:-1]:
        assert re.fullmatch(r'  n\d+ (-> n\d+ )?\[label="(?:[^"\\]|\\.)*", [^"]*\];', line)


def test_empty_graph_exports_are_valid(demo_bw):
    g = LGG()
    assert export_lgg(demo_bw, g, "dot") == "digraph landmarks {\n}\n"
    doc = json.loads(export_lgg(demo_bw, g, "json"))
    assert doc == {"nodes": [], "edges": []}


def test_json_nodes_hold_id_and_name_only(demo_bw):
    g = build_landmark_graph(demo_bw)
    doc = json.loads(export_lgg(demo_bw, g, "json"))
    assert doc["nodes"] and all(set(node) == {"id", "name"} for node in doc["nodes"])


def test_json_with_a_verified_key_still_loads(two_planes):
    # earlier exports carried "verified": true on every node
    g = build_landmark_graph(two_planes)
    doc = json.loads(export_lgg(two_planes, g, "json"))
    for node in doc["nodes"]:
        node["verified"] = True
    assert lgg_from_json(json.dumps(doc)) == g


def test_json_round_trip(demo_bw, two_planes):
    for task in (demo_bw, two_planes):
        g = build_landmark_graph(task)
        back = lgg_from_json(export_lgg(task, g, "json"))
        assert back == g


def test_benchmark_emits_one_row_per_cell():
    records = run_benchmark("blocksworld-arm", [3], per_size=2, seed_base=0,
                            configs=["bfs", "bfs+L"], time_limit=30)
    assert len(records) == 4
    assert {r.config for r in records} == {"bfs", "bfs+L"}
    assert all(r.outcome == "solved" for r in records)


def test_benchmark_cutoff_is_honored():
    records = run_benchmark("blocksworld-arm", [4], per_size=2, seed_base=0,
                            configs=["bfs"], time_limit=5)
    grace = 1.0
    assert all(r.seconds <= 5 + grace for r in records)


def test_csv_is_stable_except_time_column():
    kwargs = dict(domain="blocksworld-arm", sizes=[3], per_size=2, seed_base=4,
                  configs=["bfs+L"], time_limit=30)
    a = records_to_csv(run_benchmark(**kwargs)).splitlines()
    b = records_to_csv(run_benchmark(**kwargs)).splitlines()

    def drop_time(lines):
        out = []
        for line in lines:
            cols = line.split(",")
            out.append(",".join(cols[:5] + cols[6:]))
        return out

    assert drop_time(a) == drop_time(b)


def test_crash_is_recorded_with_its_cause(monkeypatch):
    def crash(task, limits):
        raise RuntimeError("boom, at step 3")

    monkeypatch.setitem(bench.PLANNERS, "bfs", crash)
    records = run_benchmark("blocksworld-arm", [3], per_size=1, seed_base=0,
                            configs=["bfs", "bfs+L"], time_limit=30)
    assert [(r.outcome, r.detail) for r in records] == \
        [("error", "RuntimeError: boom, at step 3")] * 2
    rows = list(csv.reader(io.StringIO(records_to_csv(records))))
    assert rows[0][-1] == "detail"
    assert [row[-1] for row in rows[1:]] == ["RuntimeError: boom, at step 3"] * 2


def test_parallel_workers_agree_with_sequential():
    kwargs = dict(domain="blocksworld-arm", sizes=[3], per_size=2, seed_base=0,
                  configs=["bfs", "gbfs+L"], time_limit=30)
    seq = run_benchmark(**kwargs)
    par = run_benchmark(**kwargs, workers=2)
    strip = lambda rs: [(r.domain, r.size, r.seed, r.config, r.outcome, r.plan_length)
                        for r in rs]
    assert strip(seq) == strip(par)


def test_solved_series_is_cumulative():
    records = run_benchmark("blocksworld-arm", [3], per_size=3, seed_base=0,
                            configs=["bfs"], time_limit=30)
    lines = solved_series_csv(records).strip().splitlines()
    assert lines[0] == "config,seconds,solved"
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert counts == sorted(counts) and counts[-1] == 3


def test_a_rows_size_reads_back_through_sizes():
    # each row's size is what ``lmplan bench --sizes`` takes
    for domain, size in (("logistics", (1, 2, 1, 1)), ("blocksworld-arm", 3)):
        records = run_benchmark(domain, [size], per_size=1, seed_base=0,
                                configs=["gbfs"], time_limit=30)
        rows = list(csv.DictReader(io.StringIO(records_to_csv(records))))
        assert rows and all(_sizes(row["size"]) == [size if isinstance(size, tuple) else (size,)]
                            for row in rows)


def test_the_committed_series_sizes_read_back():
    for path in sorted((Path(__file__).resolve().parents[1] / "results").glob("scale-*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        arity = 4 if rows[0]["domain"] == "logistics" else 1
        assert rows and all(len(_sizes(row["size"])[0]) == arity for row in rows), path
