"""Smoke tests: every workload end to end at a tiny size, both run modes.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("desk-pipeline", "readme-learn", "dense-learn")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, RUN, "--seconds", "0", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_lists_these_workloads():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_checks_pass(workload, trace):
    done = bench(ROOT, "--workload", workload, "--trace", trace, "--scale", "0.05")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    wanted = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
