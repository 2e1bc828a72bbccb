"""Smoke test: every workload at a tiny size, end to end through run.py.

    python3 -m pytest benchmarks/test_smoke.py -q

Each run takes about a second.  The test checks the output contract of
BENCHMARK.json, not performance.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fp:
    BENCH = json.load(_fp)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_meets_output_contract(workload, trace):
    out = _run(ROOT, workload, trace, "--tiny")
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    want = {m["name"]: m["unit"]
            for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert f"row {workload}:" in out.stdout


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run(str(tmp_path), WORKLOADS[0], 0, "--tiny")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
