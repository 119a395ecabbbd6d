"""Smoke runs of the experiment scripts under ``scripts/`` at tiny sizes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hawkesnet

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(hawkesnet.__file__).resolve().parents[1])
TINY = ["--runs", "1", "--nodes", "4", "--types", "2", "--k", "1"]


@pytest.mark.parametrize(
    "script, args, rows",
    [
        ("sample_size_sweep.py", ["--sizes", "300", *TINY], ["300"]),
        ("kernel_robustness.py", ["--events", "300", *TINY], ["exponential", "gaussian", "uniform"]),
    ],
)
def test_script_runs(script, args, rows):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 + len(rows)  # header, then one row each
    assert [line.split()[0] for line in lines[1:]] == rows


def test_bench_pairs_records_both_sides(tmp_path):
    # two copies of this checkout, one tiny pair
    for side in ("parent", "change"):
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, tmp_path / side / part,
                            ignore=shutil.ignore_patterns("__pycache__", "results"))
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--seeds", "3", "--pairs", "1", "--seconds", "0",
         "--scale", "0.01", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["checks"]["seed 3"]["correct"]
    workloads = record["end_to_end"]["seed 3"]
    assert sorted(workloads) == ["dense-learn", "desk-pipeline", "readme-learn"]
    for metrics in workloads.values():
        assert sorted(metrics) == sorted(["setup_s", "pipeline_s", "learn_s", "evaluate_s",
                                          "peak_rss_mb", "f1"])
        for entry in metrics.values():
            assert entry["pairs"] == 1 and len(entry["parent_runs"]) == len(entry["change_runs"]) == 1
            assert entry["parent"]["q1"] <= entry["parent"]["median"] <= entry["parent"]["q3"]
            assert 0 <= entry["change_better_pairs"] <= 1
