"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once with ``--size tiny``, untraced and traced.  Checks
that the result line carries every metric of BENCHMARK.json with its unit,
that every output passed its check, and that the traced run reaches the
layers each workload was chosen to exercise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layers whose calls must be non-zero (or zero) in each workload's trace
MUST_CALL = {
    "exhaustive-n6": ("graphs.to_graph6", "graphs.from_edges",
                      "extendibility.is_k_extendible",
                      "extendibility.hall_surplus_check",
                      "connectivity.is_k_connected",
                      "matching.koenig_ore_deficiency",
                      "oracles.brute_force_deficiency"),
    "monoext-n14": ("matching.extends_to_perfect",
                    "matching.enumerate_matchings",
                    "extendibility.extendibility_number",
                    "verifier.random_graph"),
    "random-n10": ("connectivity.is_k_connected",
                   "matching.extends_to_perfect", "verifier.random_graph"),
    "analyze-n12": ("connectivity.vertex_connectivity", "graphs.parse_graph6",
                    "cli.analysis_record", "jsonio.certificate_json",
                    "extendibility.extendibility_number"),
}
MUST_NOT_CALL = {
    "monoext-n14": ("connectivity.is_k_connected",
                    "connectivity.vertex_connectivity"),
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result["metrics"]


def assert_metrics(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run(workload, 0)
    assert_metrics(metrics, SPEC["end_to_end"])
    for name, metric in metrics.items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    metrics = run(workload, 1)
    assert_metrics(metrics, SPEC["per_layer"])
    for layer in MUST_CALL[workload]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    for layer in MUST_NOT_CALL.get(workload, ()):
        assert metrics[f"{layer}.calls"]["value"] == 0, layer
