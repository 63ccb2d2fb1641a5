"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests).

Each test runs the real command at tiny sizes for a second, so the whole
file takes well under a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
from run import WORKLOADS  # noqa: E402

TIMED_UNITS = {"ms", "s", "1/s", "GMAC/s", "MiB", "bytes", "x"}


def bench(*args, cwd=ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds",
         "1", "--tiny", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, _ in metrics.PER_LAYER]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, lines = bench("--workload", workload, "--trace", "0")
    assert code == 0, lines[-20:]
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = result["metrics"]
    assert list(printed) == [n for n, *_ in metrics.END_TO_END]
    for name, unit, *_ in metrics.END_TO_END:
        assert printed[name]["unit"] == unit
        assert printed[name]["value"] > 0, name
        assert any(line.split()[1:2] == [name] and unit in line.split()
                   for line in lines[:-1]), f"{name} not printed"
    assert printed["quality"]["value"] == 1.0
    assert printed["success_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_prints_every_layer_metric(workload):
    code, lines = bench("--workload", workload, "--trace", "1")
    assert code == 0, lines[-20:]
    printed = result_of(lines)["metrics"]
    assert list(printed) == [n for n, *_ in metrics.PER_LAYER]
    for name, unit, _, where in metrics.PER_LAYER:
        assert printed[name]["unit"] == unit
        assert any(line.split()[1:2] == [name] for line in lines[:-1])
        exercised = workload in where and not name.startswith("trace.")
        if exercised and unit in TIMED_UNITS:
            assert printed[name]["value"] > 0, name
        if workload not in where:
            assert printed[name]["value"] == 0, name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_planted_wrong_output_fails_the_run(workload):
    code, lines = bench("--workload", workload, "--trace", "0",
                        "--plant-fault")
    assert code == 1
    result = result_of(lines)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["quality"]["value"] < 1.0
    assert result["metrics"]["success_frac"]["value"] < 1.0
    assert any(line.startswith("FAILED") for line in lines)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "engine-batch", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
