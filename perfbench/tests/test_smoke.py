"""Every workload end to end at smoke size, through run.py.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = result_of(bench(workload, 0))["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        value = metrics[m["name"]]["value"]
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(value) and value > 0, m["name"]


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("cli-sweep", 1)
    metrics = result_of(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert "thread policy:" in proc.stdout
    # two sweep seeds x four gamma points reload the dataset
    assert metrics["data.load_calls"]["value"] == 8
    assert metrics["debias.amplify_calls"]["value"] == 8
    assert metrics["debias.amplify_unique_frac"]["value"] == pytest.approx(2 / 8)
    for name in ("runner.bytes_written", "runner.pool_wall_s", "runner.child_cpu_s",
                 "causal.oracle_report_s", "runner.io_s", "blas1.wall_s"):
        assert metrics[name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
