"""tools/frontend_times.py: one repetition, its report and its argument
checks; ``--against`` timing one case on this checkout and a second one."""

import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "frontend_times.py"
LINE = re.compile(r"(\S+) (\S+): parse_domain (\S+) s, parse_problem (\S+) s, "
                  r"ground warm (\S+) s, ground cold (\S+) s, "
                  r"ground_files warm (\S+) s, cold (\S+) s \((\d+) actions, (\d+) facts\)")
RATIOS = re.compile(r"(\S+) (\S+) against: parse_domain (\S+)x, parse_problem (\S+)x, "
                    r"ground warm (\S+)x, ground cold (\S+)x, ground_files warm (\S+)x, "
                    r"cold (\S+)x")


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=180)


def test_one_repetition_reports_each_case():
    done = run("--repeats", "1")
    assert done.returncode == 0, done.stderr
    parsed = [LINE.fullmatch(line) for line in done.stdout.strip().splitlines()]
    assert all(parsed), done.stdout
    assert [m.group(1, 2) for m in parsed] == [
        ("blocksworld-arm", "4"), ("blocksworld-arm", "9"), ("blocksworld-no-arm", "4"),
        ("logistics", "2-3-2-4"), ("logistics", "3-3-1-6")]
    for m in parsed:
        assert all(0 < float(m.group(k)) < 1 for k in range(3, 9))
    # 9 blocks: 9 pick-up, 9 put-down, 72 stack and 72 unstack actions;
    # 72 on, 9 each of on-table, clear and holding, and arm-empty
    assert parsed[1].group(9, 10) == ("162", "100")


def test_repeats_below_one_are_refused():
    done = run("--repeats", "0")
    assert done.returncode == 2 and "--repeats must be at least 1" in done.stderr


def test_against_a_checkout_without_lmplan_is_refused(tmp_path):
    done = run("--repeats", "1", "--against", str(tmp_path))
    assert done.returncode == 2 and f"no lmplan package under {tmp_path}/src" in done.stderr


def test_against_times_both_checkouts_in_turn(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("frontend_times", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "CASES", (("blocksworld-arm", 4),))
    taken = []

    def slices(calls, repeats):
        # this checkout's slices 1, 4 and 9 units, CHECKOUT's 2 each: the
        # best is 1 unit, the ratios 0.5, 2 and 4.5, their median 2
        taken.append((calls, repeats))
        return [[1e-4, 4e-4, 9e-4] if k % 2 == 0 else [2e-4] * 3 for k in range(len(calls))]

    monkeypatch.setattr(tool, "slice_seconds", slices)
    try:
        assert tool.main(["--repeats", "3", "--against", str(ROOT)]) == 0
        other = sys.modules[tool.AGAINST + ".pddl"]
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == tool.AGAINST]:
            del sys.modules[name]
    # this checkout's calls and the other's take turns
    [(calls, repeats)] = taken
    assert repeats == 3 and len(calls) == 2 * len(tool.CALLS)
    outer = [inspect.getclosurevars(c).nonlocals for c in calls]
    by_name = {m.__name__: m for m in (tool.pddl, other)}
    modules = [v.get("module") or by_name[v["parse"].__module__] for v in outer]
    assert modules == [tool.pddl, other] * len(tool.CALLS)
    assert other is not tool.pddl and Path(other.__file__).parent == ROOT / "src" / "lmplan"
    assert all(c() is not None for c in calls)
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and LINE.fullmatch(lines[0]), lines
    assert LINE.fullmatch(lines[0]).group(3, 4, 5, 6, 7, 8) == ("1.000e-04",) * 6
    ratios = RATIOS.fullmatch(lines[1])
    assert ratios and ratios.group(1, 2) == ("blocksworld-arm", "4")
    assert ratios.group(3, 4, 5, 6, 7, 8) == ("2.000",) * 6


def test_against_a_checkout_grounding_otherwise_fails(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("frontend_times", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "CASES", (("blocksworld-arm", 4),))
    real_load = tool.load_pddl

    def load(root):
        other = real_load(root)
        ground = other.ground
        monkeypatch.setattr(other, "ground",
                            lambda d, p: (lambda t: t.derive(t.init, t.init, t.name))(ground(d, p)))
        return other

    monkeypatch.setattr(tool, "load_pddl", load)
    try:
        assert tool.main(["--repeats", "1", "--against", str(ROOT)]) == 1
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == tool.AGAINST]:
            del sys.modules[name]
    assert "grounds another task" in capsys.readouterr().err


def test_ground_runs_warm_on_a_seen_object_set_and_cold_on_an_emptied_memo(monkeypatch):
    spec = importlib.util.spec_from_file_location("frontend_times", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    pddl = tool.pddl
    built = []
    real = pddl._object_set
    monkeypatch.setattr(pddl, "_object_set", lambda *a: built.append(a) or real(*a))
    texts = tool.DOMAIN_TEXTS["logistics"], tool.gen_problem("logistics", (2, 3, 2, 4), 1)
    pddl.parse_domain.cache_clear()
    calls, task = tool.front_end_calls(pddl, *texts)
    assert len(built) == 1
    warm, cold = calls[tool.CALLS.index("ground warm")], calls[tool.CALLS.index("ground cold")]
    assert warm().actions is task.actions and len(built) == 1
    assert cold()[1].actions == task.actions and len(built) == 2
    assert warm().actions is not task.actions and len(built) == 2
