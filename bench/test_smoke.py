"""Smoke test of the benchmark: every workload once, briefly, plus one traced run.

    python -m pytest bench/test_smoke.py

Checks that each metric is printed by name with its unit, that the JSON
result carries exactly the metrics BENCHMARK.json declares, and that no
output check failed. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
NAMED = {
    "cli_mix": {**COMMON, "cli_latency_p50_ms": "ms", "cli_latency_p90_ms": "ms"},
    "lib_scalar": {**COMMON, "scalar_states_per_s": "1/s", "scalar_latency_p50_us": "us", "scalar_latency_p99_us": "us"},
    "lib_bulk": {**COMMON, "sample_states_per_s": "1/s", "qf_samples_per_s": "1/s", "max_area_ms": "ms"},
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def printed(stdout: str) -> tuple[dict[str, tuple[float, str]], dict]:
    """(name -> (value, unit) of the metric lines, the JSON result on the last line)."""
    lines = stdout.strip().splitlines()
    named = {}
    for line in lines[:-1]:
        parts = line.split(" ")
        if len(parts) == 3:
            named[parts[0]] = (float(parts[1]), parts[2])
    return named, json.loads(lines[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload: str) -> None:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    named, result = printed(proc.stdout)
    for name, unit in NAMED[workload].items():
        assert name in named and named[name][1] == unit, name
    assert named["error_rate"][0] == 0.0
    check_result(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_prints_every_layer_metric() -> None:
    proc = run_bench(ROOT, "--workload", "lib_scalar", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    named, result = printed(proc.stdout)
    assert named["error_rate"][0] == 0.0
    check_result(result, SPEC["per_layer"])
    assert result["metrics"]["cli.run.calls"]["value"] == 45
    assert (ROOT / "bench" / "out" / "trace-lib_scalar-seed7.json").is_file()


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "lib_scalar", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
