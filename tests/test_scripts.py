"""Smoke runs of the experiment scripts under ``scripts/`` at tiny sizes."""

from __future__ import annotations

import os
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
