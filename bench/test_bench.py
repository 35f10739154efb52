"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py

Every workload runs end to end, untraced and traced, and must emit exactly
the metrics BENCHMARK.json names, each with its unit.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the end-to-end metrics as the issue names them, printed by one `all` run
NAMED_METRICS = ("setup_s", "train_images_per_s", "train_map", "score_images_per_s",
                 "score_one_s", "eval_images_per_s", "perturb_images_per_s",
                 "curvature_fit_s", "variance_queries_per_s", "peak_rss_mb", "error_rate")


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _tiny(workload: str, trace: int) -> subprocess.CompletedProcess:
    return _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = _tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_prints_every_named_metric():
    proc = _tiny("all", 0)
    assert proc.returncode == 0, proc.stderr
    printed = {line.split()[1] for line in proc.stdout.splitlines()
               if line.split()[:1] and line.split()[0] in WORKLOADS}
    assert set(NAMED_METRICS) <= printed


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
