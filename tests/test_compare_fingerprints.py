"""tools/compare_fingerprints.py: exit status and report on two perfbench outputs."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_fingerprints.py"


def report(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"workload": "w", "seed": 1, "fingerprint": rows}))
    return str(path)


def compare(*paths):
    return subprocess.run([sys.executable, str(TOOL), *paths],
                          capture_output=True, text=True, timeout=60)


def row(i, plan_len):
    return {"i": i, "config": "gbfs", "plan_len": plan_len, "edges": {"gn": 3}}


def test_common_prefix_agrees(tmp_path):
    a = report(tmp_path, "a.json", [row(0, 5), row(1, 7), row(2, 9)])
    b = report(tmp_path, "b.json", [row(0, 5), row(1, 7)])
    done = compare(a, b)
    assert done.returncode == 0
    assert "2 common rows identical" in done.stdout


def test_first_difference_is_printed(tmp_path):
    a = report(tmp_path, "a.json", [row(0, 5), row(1, 7), row(2, 9)])
    b = report(tmp_path, "b.json", [row(0, 5), row(1, 8), row(2, 10)])
    done = compare(a, b)
    assert done.returncode == 1
    assert "row 1 differs" in done.stdout
    assert '"plan_len": 7' in done.stdout and '"plan_len": 8' in done.stdout
    assert "row 2" not in done.stdout


def test_wrong_arguments_print_usage(tmp_path):
    done = compare(report(tmp_path, "a.json", []))
    assert done.returncode == 2 and "compare_fingerprints.py A.json B.json" in done.stderr
