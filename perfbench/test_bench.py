"""Reduced-size self-test of the benchmark: every workload, both modes.

    python3 -m pytest perfbench/test_bench.py -q

Each case runs run.py at a small fraction of the workload size and checks
the contract of its output: every metric BENCHMARK.json names for that
mode appears with its unit, no operation failed, and the exit code is 0.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = {"fc-flood": 0.25, "ring-async": 0.1, "audit": 0.25}


def bench(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", str(SCALE[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_every_workload_has_a_scale():
    assert sorted(SCALE) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SCALE))
def test_metrics_and_error_rate(workload, trace):
    lines = bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(re.fullmatch(r"\s*error_rate 0 \(0 failed of \d+ attempted\)",
                            line) for line in lines)
    group = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "tracer.py"):
        (tmp_path / "perfbench" / name).write_bytes(
            (ROOT / "perfbench" / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
