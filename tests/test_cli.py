import json

import pytest

from lmplan.cli import main
from lmplan.bench import gen_logistics
from lmplan.instances import (
    BLOCKSWORLD_ARM_DOMAIN,
    BLOCKSWORLD_DEMO_PROBLEM,
    LOGISTICS_DOMAIN,
    ROADMAP_DOMAIN,
    ROADMAP_PROBLEM,
)


@pytest.fixture
def demo_files(tmp_path):
    d = tmp_path / "domain.pddl"
    p = tmp_path / "problem.pddl"
    d.write_text(BLOCKSWORLD_ARM_DOMAIN)
    p.write_text(BLOCKSWORLD_DEMO_PROBLEM)
    return str(d), str(p)


@pytest.fixture
def roadmap_files(tmp_path):
    d = tmp_path / "rd.pddl"
    p = tmp_path / "rp.pddl"
    d.write_text(ROADMAP_DOMAIN)
    p.write_text(ROADMAP_PROBLEM)
    return str(d), str(p)


def test_ground_reports_counts(demo_files, capsys):
    assert main(["ground", *demo_files]) == 0
    out = capsys.readouterr().out
    assert "facts: 25" in out and "actions: 32" in out


def test_ground_counts_pruned_actions_without_naming_them(tmp_path, capsys, monkeypatch):
    from lmplan import pddl

    problem = gen_logistics(2, 3, 2, 4, seed=1)
    task = pddl.ground_files(LOGISTICS_DOMAIN, problem)
    pruned = len(task.pruned_actions)
    pddl.parse_domain.cache_clear()  # so that the command grounds afresh
    calls = []
    real = pddl.format_atom
    monkeypatch.setattr(pddl, "format_atom", lambda *a: calls.append(1) or real(*a))
    d, p = tmp_path / "d.pddl", tmp_path / "p.pddl"
    d.write_text(LOGISTICS_DOMAIN)
    p.write_text(problem)
    assert main(["ground", str(d), str(p)]) == 0
    assert f"(pruned {pruned})" in capsys.readouterr().out
    assert len(calls) == len(task.actions) < pruned  # a name per kept action only


def test_landmarks_json_emission(demo_files, capsys):
    assert main(["landmarks", *demo_files, "--emit", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 12


def test_landmarks_flags_change_output(demo_files, capsys):
    assert main(["landmarks", *demo_files, "--no-reasonable", "--no-obedient",
                 "--emit", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(e["kind"] in ("gn", "ln") for e in doc["edges"])
    assert main(["landmarks", *demo_files, "--no-level-test", "--emit", "json"]) == 0
    safe = json.loads(capsys.readouterr().out)
    assert len(safe["nodes"]) < 12


def test_plan_with_and_without_landmarks(demo_files, capsys):
    assert main(["plan", *demo_files, "--planner", "bfs", "--landmarks", "off"]) == 0
    plain = capsys.readouterr().out.strip().splitlines()
    assert main(["plan", *demo_files, "--planner", "bfs", "--landmarks", "on"]) == 0
    guided = capsys.readouterr().out.strip().splitlines()
    assert len(plain) == 6 and len(guided) >= 6


def test_plan_modes(demo_files):
    for mode in ("disj", "conjdisj", "dnf"):
        assert main(["plan", *demo_files, "--planner", "bfs", "--mode", mode]) == 0


def test_oracle_subcommands(demo_files, roadmap_files):
    assert main(["oracle", "landmark", *demo_files, "(clear c)"]) == 0
    assert main(["oracle", "landmark", *roadmap_files, "(at e)"]) == 1
    assert main(["oracle", "gn", *demo_files, "(clear d)", "(clear c)"]) == 0
    assert main(["oracle", "n", *demo_files, "(clear d)", "(clear c)"]) == 1
    assert main(["oracle", "r", *demo_files, "(clear c)", "(on b d)"]) == 0
    assert main(["oracle", "mutex", *demo_files, "(clear d)", "(on b d)"]) == 0


def test_oracle_wrong_arity_is_usage_error(demo_files):
    with pytest.raises(SystemExit) as err:
        main(["oracle", "gn", *demo_files, "(clear d)"])
    assert err.value.code == 2


def test_unsolvable_task_exits_one(tmp_path):
    d = tmp_path / "d.pddl"
    p = tmp_path / "p.pddl"
    d.write_text(BLOCKSWORLD_ARM_DOMAIN)
    p.write_text("""(define (problem stuck) (:domain blocksworld-arm)
      (:objects a - block) (:init (on-table a) (clear a)) (:goal (holding a)))""")
    assert main(["ground", str(d), str(p)]) == 1
    assert main(["plan", str(d), str(p)]) == 1


def test_gen_and_bench_round_trip(tmp_path, capsys):
    prob = tmp_path / "gen.pddl"
    dom = tmp_path / "gen-domain.pddl"
    assert main(["gen", "blocksworld-arm", "--size", "3", "--seed", "1",
                 "-o", str(prob), "--emit-domain", str(dom)]) == 0
    assert main(["plan", str(dom), str(prob), "--planner", "bfs"]) == 0
    capsys.readouterr()
    out_csv = tmp_path / "bench.csv"
    series = tmp_path / "series.csv"
    assert main(["bench", "--domain", "blocksworld-arm", "--sizes", "3",
                 "--instances", "1", "--configs", "bfs,bfs+L",
                 "--time-limit", "20", "-o", str(out_csv), "--series", str(series)]) == 0
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0].startswith("domain,") and len(rows) == 3
    assert series.read_text().startswith("config,")


def test_missing_file_reports_error(tmp_path, capsys):
    assert main(["ground", str(tmp_path / "nope.pddl"), str(tmp_path / "x.pddl")]) == 1
    assert "error:" in capsys.readouterr().err


def test_env_time_limit_override(monkeypatch):
    monkeypatch.setenv("LMPLAN_TIME_LIMIT", "12.5")
    from lmplan.cli import _default_time_limit

    assert _default_time_limit() == 12.5


@pytest.mark.parametrize("value", ["abc", "0"])
def test_a_bad_env_time_limit_stops_only_plan_and_bench(demo_files, capsys, monkeypatch, value):
    monkeypatch.setenv("LMPLAN_TIME_LIMIT", value)
    assert main(["gen", "blocksworld-arm", "--size", "3"]) == 0
    assert capsys.readouterr().out.startswith("(define (problem")
    assert main(["ground", *demo_files]) == 0
    assert main(["landmarks", *demo_files]) == 0
    for argv in (["--help"], ["plan", "--help"]):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
    capsys.readouterr()
    # a given --time-limit is used as it is
    assert main(["plan", *demo_files, "--time-limit", "30"]) == 0
    for argv in (["plan", *demo_files],
                 ["bench", "--domain", "blocksworld-arm", "--sizes", "3", "--instances", "1"]):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 2
        assert "LMPLAN_TIME_LIMIT must be a positive finite number" in capsys.readouterr().err
