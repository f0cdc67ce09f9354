"""Search limits on the command line: only positive finite numbers."""

import pytest

from lmplan.cli import main
from lmplan.instances import BLOCKSWORLD_ARM_DOMAIN, BLOCKSWORLD_DEMO_PROBLEM


@pytest.fixture
def demo_files(tmp_path):
    d = tmp_path / "domain.pddl"
    p = tmp_path / "problem.pddl"
    d.write_text(BLOCKSWORLD_ARM_DOMAIN)
    p.write_text(BLOCKSWORLD_DEMO_PROBLEM)
    return str(d), str(p)


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("landmarks", ["on", "off"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_plan_rejects_a_node_limit_below_one(demo_files, capsys, landmarks, value):
    err = _usage_error(["plan", *demo_files, "--landmarks", landmarks,
                        "--node-limit", value], capsys)
    assert "--node-limit" in err and "positive" in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_plan_rejects_a_time_limit_that_is_not_positive_and_finite(demo_files, capsys, value):
    err = _usage_error(["plan", *demo_files, "--time-limit", value], capsys)
    assert "--time-limit" in err and "positive" in err


@pytest.mark.parametrize("flag,value", [("--node-limit", "0"), ("--time-limit", "nan")])
def test_bench_rejects_bad_limits(capsys, flag, value):
    err = _usage_error(["bench", "--domain", "blocksworld-arm", "--sizes", "3",
                        flag, value], capsys)
    assert flag in err and "positive" in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-2", "soon"])
def test_env_time_limit_must_be_positive_and_finite(demo_files, capsys, monkeypatch, value):
    monkeypatch.setenv("LMPLAN_TIME_LIMIT", value)
    err = _usage_error(["plan", *demo_files], capsys)
    assert "LMPLAN_TIME_LIMIT" in err and "positive" in err


def test_plan_reports_a_proved_unsolvable_task(tmp_path, capsys):
    d = tmp_path / "d.pddl"
    p = tmp_path / "p.pddl"
    d.write_text(BLOCKSWORLD_ARM_DOMAIN)
    p.write_text("""(define (problem stuck) (:domain blocksworld-arm)
      (:objects a - block) (:init (on-table a) (clear a)) (:goal (holding a)))""")
    for landmarks in ("on", "off"):
        assert main(["plan", str(d), str(p), "--landmarks", landmarks]) == 1
        assert capsys.readouterr().err == "failed: proved-unsolvable\n"
