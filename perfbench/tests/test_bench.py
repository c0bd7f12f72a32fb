"""Smoke, determinism and registry tests for the benchmark.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
WORKLOADS = ("explore-session", "multicore-extract", "tenant-soak")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REGISTRY = json.loads((HERE / "registry.json").read_text())
DES_METRICS = ("first_feedback_p50_s", "first_feedback_p90_s",
               "runtime_p50_s", "runtime_p90_s")


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int) -> dict:
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{HERE}", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--mode", "run",
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", "0", "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    result = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", "1", "--size", "tiny")
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert (ROOT / ".bench_out" / f"spans-{workload}-3.jsonl").is_file()


@pytest.mark.parametrize("workload", ("explore-session", "tenant-soak"))
def test_same_seed_same_simulated_results(workload):
    a, b = measure(workload, 5), measure(workload, 5)
    for name in DES_METRICS:
        assert a["metrics"][name] == b["metrics"][name], name
    # Different run lengths repeat the pass a different number of times;
    # the failure *fraction* of the deterministic pass is what repeats.
    assert a["failures"] == b["failures"]
    assert a.get("fingerprint") == b.get("fingerprint")
    c = measure(workload, 6)
    assert any(a["metrics"][n] != c["metrics"][n] for n in DES_METRICS)


def test_registry_matches_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(REGISTRY["workloads"])
    for kind in ("end_to_end", "per_layer"):
        assert {m["name"] for m in SPEC[kind]} == set(REGISTRY[kind])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
