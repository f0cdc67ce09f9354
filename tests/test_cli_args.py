"""Bad sizes, counts, caps and configs on the command line are usage errors:
exit code 2 and a one-line message, never a traceback or a false verdict."""

import csv
import io

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
    """The error line of a usage error, which must be the last line printed."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.strip().splitlines()[-1]
    assert "error: argument" in last and "Traceback" not in captured.err
    return last


@pytest.mark.parametrize("argv", [
    ["gen", "blocksworld-arm", "--size", "0"],
    ["gen", "blocksworld-no-arm", "--size", "-2"],
    ["gen", "logistics", "--cities", "0"],
    ["gen", "logistics", "--locs", "0"],
    ["gen", "logistics", "--planes", "-1"],
    ["gen", "logistics", "--packages", "0"],
])
def test_gen_rejects_sizes_below_one(argv, capsys):
    assert argv[-2] in _usage_error(argv, capsys)


@pytest.mark.parametrize("domain,sizes", [
    ("logistics", "2x2"),
    ("logistics", "2x3x2x4x1"),
    ("logistics", "2x3x2x4,3"),
    ("blocksworld-arm", "2x3"),
])
def test_bench_rejects_sizes_of_the_wrong_shape(domain, sizes, capsys):
    line = _usage_error(["bench", "--domain", domain, "--sizes", sizes,
                         "--instances", "1"], capsys)
    assert "--sizes" in line and domain in line


@pytest.mark.parametrize("sizes", ["abc", "3,,4", "0", "2x0x2x4", "-3", ""])
def test_bench_rejects_sizes_that_are_not_positive_integers(sizes, capsys):
    domain = "logistics" if "x" in sizes else "blocksworld-arm"
    line = _usage_error(["bench", "--domain", domain, "--sizes", sizes], capsys)
    assert "--sizes" in line and "positive" in line


@pytest.mark.parametrize("configs", ["bfs,zzz", "zzz+L", "bfs,", "+L"])
def test_bench_rejects_unknown_planners(configs, capsys):
    line = _usage_error(["bench", "--domain", "blocksworld-arm", "--sizes", "3",
                         "--configs", configs], capsys)
    assert "--configs" in line and "unknown planner" in line


@pytest.mark.parametrize("flag", ["--instances", "--workers"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_bench_rejects_counts_below_one(flag, value, capsys):
    line = _usage_error(["bench", "--domain", "blocksworld-arm", "--sizes", "3",
                         flag, value], capsys)
    assert flag in line and "positive integer" in line


@pytest.mark.parametrize("cap", ["-3", "0", "many"])
def test_oracle_rejects_a_cap_below_one(demo_files, cap, capsys):
    line = _usage_error(["oracle", "landmark", *demo_files, "(clear c)", "--cap", cap],
                        capsys)
    assert "--cap" in line


def test_valid_logistics_and_config_arguments_still_run(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--domain", "logistics", "--sizes", "1x2x1x1",
                 "--instances", "1", "--configs", "gbfs+L,bfs", "-o", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [(r["size"], r["config"], r["outcome"]) for r in rows] == [
        ("1x2x1x1", "gbfs+L", "solved"), ("1x2x1x1", "bfs", "solved")]
