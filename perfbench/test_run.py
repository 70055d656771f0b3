"""Self-tests of the benchmark at smoke size: python3 -m pytest perfbench

Each workload runs end to end, untraced and traced, in a subprocess, and
must report exactly the metrics BENCHMARK.json lists, with every job
checked correct.  Without the program next to it, the benchmark must fail
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_its_metrics(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, lines[:-1]
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_planted_mismatch_counts_as_passing():
    proc = run(ROOT, "parse-trees", 0)
    controls = [line for line in proc.stdout.splitlines() if "square-bad.red" in line]
    assert controls and all(" exit=1 " in line and " ok " in line for line in controls)


def test_traced_self_times_cover_each_job():
    proc = run(ROOT, "big-output", 1)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((HERE / "out" / "trace-big-output-7.json").read_text())
    for job in report["jobs"]:
        assert "cli.self_s" in job["self_s"]
        assert abs(sum(job["self_s"].values()) - job["wall_s"]) < 0.01


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "hankel", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
