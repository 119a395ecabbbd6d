"""Smoke runs of every script under ``scripts/`` at tiny sizes (a script
without a case in ``SMOKE`` fails), and of the README's library example."""

from __future__ import annotations

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hawkesnet

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(hawkesnet.__file__).resolve().parents[1])
# each script's smoke runs: (arguments, first column of the rows it prints)
SMOKE = {
    "study.py": {
        "size": (["--axis", "size", "--values", "300", "600", "--runs", "1"], ["300", "600"]),
        "kernel": (["--axis", "kernel", "--values", "gaussian", "uniform", "--runs", "1"],
                   ["gaussian", "uniform"]),
    },
}
# exercised by their own tests below: bench_pairs on stub checkouts, identity
# on copies of the package
STUBBED = {"bench_pairs.py", "identity.py"}
SCRIPTS = sorted(path.name for path in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script, case", [
    (script, case) for script in SCRIPTS if script not in STUBBED for case in SMOKE.get(script, [None])
])
def test_script_runs(script, case):
    assert case is not None, f"scripts/{script} has no smoke case in SMOKE"
    args, rows = SMOKE[script][case]
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


# a stand-in for ``perfbench/run.py``: logs its side, seed, bytecode prefix
# and whether bytecode writing is off, then prints the ``env:`` line and the
# last-line result JSON that perfbench documents; the change side reads
# faster and scores a higher F1 on every workload, at the same peak memory
STUB_RUN = """
import argparse, json, os, sys
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--scale"):
    parser.add_argument(flag)
args = parser.parse_args()
side = os.path.basename(os.getcwd())
with open(os.environ["STUB_LOG"], "a", encoding="utf-8") as fh:
    fh.write(json.dumps([side, int(args.seed), sys.pycache_prefix, sys.dont_write_bytecode]) + "\\n")
print("env:", json.dumps({"nproc": 1, "python": "3", "numpy": "2", "blas": "stub", "threads": {}}))
scale = 1.0 if side == "parent" else 0.5
metrics = {}
for workload in ("desk-pipeline", "readme-learn", "dense-learn"):
    for name in ("setup_s", "pipeline_s", "learn_s", "evaluate_s"):
        metrics[f"{workload}.{name}"] = {"value": scale * (1.0 + int(args.seed)), "unit": "s"}
    metrics[f"{workload}.peak_rss_mb"] = {"value": 100.0, "unit": "MB"}
    metrics[f"{workload}.f1"] = {"value": 1.0 - scale / 4, "unit": "ratio"}
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""


def test_bench_pairs_records_both_sides(tmp_path, monkeypatch, capsys):
    # two stub checkouts, two pairs at two seeds
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
    log, out = tmp_path / "calls.log", tmp_path / "bench.json"
    monkeypatch.setenv("STUB_LOG", str(log))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    bench_pairs = importlib.import_module("bench_pairs")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert bench_pairs.main(
        [str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds", "3", "4", "--pairs", "2",
         "--seconds", "0", "--out", str(out)]
    ) == 0
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    # even pairs run the parent first, odd pairs the change; seeds interleave
    assert [f"{side} {seed}" for side, seed, _, _ in calls] == [
        "parent 3", "change 3", "parent 4", "change 4",
        "change 3", "parent 3", "change 4", "parent 4",
    ]
    # every run is as the benchmark runs: no bytecode prefix and no bytecode written
    assert all(prefix is None and writes_off for _, _, prefix, writes_off in calls)
    assert not any(path.name == "__pycache__" for path in tmp_path.rglob("*"))
    record = json.loads(out.read_text())
    assert record["machine"]["blas"] == "stub"
    for seed in (3, 4):
        checks = record["checks"][f"seed {seed}"]
        assert checks["correct"] and checks["attempted"] == {"parent": 6, "change": 6}
        workloads = record["end_to_end"][f"seed {seed}"]
        assert sorted(workloads) == ["dense-learn", "desk-pipeline", "readme-learn"]
        for metrics in workloads.values():
            assert sorted(metrics) == sorted(["setup_s", "pipeline_s", "learn_s", "evaluate_s",
                                              "peak_rss_mb", "f1"])
            for name, entry in metrics.items():
                assert entry["pairs"] == 2 and len(entry["parent_runs"]) == len(entry["change_runs"]) == 2
                assert entry["parent"]["q1"] <= entry["parent"]["median"] <= entry["parent"]["q3"]
                # equal peaks tie every pair, so only they miss the claim rule
                assert entry["change_better_pairs"] == (0 if name == "peak_rss_mb" else 2), name
                assert entry["claim_rule_met"] == (name != "peak_rss_mb"), name
            assert metrics["learn_s"]["parent_runs"] == [1.0 + seed] * 2
            assert metrics["learn_s"]["change_vs_parent"] == -0.5
    # one line per workload names the metrics meeting the rule, seed by seed
    met = ", ".join(f"{name} (seed {seed})" for seed in (3, 4)
                    for name in ("setup_s", "pipeline_s", "learn_s", "evaluate_s", "f1"))
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "claim rule" in line] == [
        f"{workload}: claim rule met by {met}" for workload in ("desk-pipeline", "readme-learn", "dense-learn")
    ]


@pytest.mark.parametrize("parent, change, met", [
    ([10.0] * 10, [9.0] * 9 + [10.0], True),  # 9 of 10 won, the tie counts for neither
    ([10.0] * 10, [9.0] * 8 + [10.0, 11.0], False),  # 8 of 10
    ([9.0, 9.5, 10.0, 10.5, 11.0] * 2, [x - 0.9 for x in [9.0, 9.5, 10.0, 10.5, 11.0] * 2], False),
    ([9.0, 9.5, 10.0, 10.5, 11.0] * 2, [x - 1.1 for x in [9.0, 9.5, 10.0, 10.5, 11.0] * 2], True),
])
def test_bench_pairs_claim_rule(monkeypatch, parent, change, met):
    # the last two win every pair; the parent's interquartile range is 1.0
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    bench_pairs = importlib.import_module("bench_pairs")
    assert bench_pairs.compare("learn_s", parent, change)["claim_rule_met"] is met
    # a higher-better metric reads the same runs the other way round
    assert bench_pairs.compare("f1", change, parent)["claim_rule_met"] is met


@pytest.mark.parametrize("side", ["parent", "change"])
def test_bench_pairs_refuses_a_checkout_holding_bytecode(tmp_path, monkeypatch, capsys, side):
    for name in ("parent", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(STUB_RUN)
    cache = tmp_path / side / "src" / "__pycache__"
    cache.mkdir(parents=True)
    log = tmp_path / "calls.log"
    monkeypatch.setenv("STUB_LOG", str(log))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    bench_pairs = importlib.import_module("bench_pairs")
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "1",
                          "--seconds", "0", "--out", str(tmp_path / "bench.json")])
    assert exited.value.code == 2
    assert str(cache) in capsys.readouterr().err
    # nothing ran, nothing was written and the cache is left in place
    assert not log.exists() and not (tmp_path / "bench.json").exists() and cache.is_dir()


def test_bench_pairs_runs_the_named_workload(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
    monkeypatch.setenv("STUB_LOG", str(tmp_path / "calls.log"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    bench_pairs = importlib.import_module("bench_pairs")
    real_run, workloads = subprocess.run, []

    def recording_run(argv, **kwargs):
        if "--workload" in argv:
            workloads.append(argv[argv.index("--workload") + 1])
        return real_run(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording_run)
    sides = [str(tmp_path / "parent"), str(tmp_path / "change")]
    common = ["--seeds", "3", "--pairs", "1", "--seconds", "0"]
    assert bench_pairs.main([*sides, *common, "--out", str(tmp_path / "all.json")]) == 0
    assert bench_pairs.main([*sides, *common, "--workload", "dense-learn",
                             "--out", str(tmp_path / "dense.json")]) == 0
    assert workloads == ["all", "all", "dense-learn", "dense-learn"]
    every, dense = (json.loads((tmp_path / name).read_text()) for name in ("all.json", "dense.json"))
    assert "--workload all " in every["description"]
    assert "--workload dense-learn " in dense["description"]
    # the record keeps its format: the same keys, workloads and metrics
    assert sorted(every) == sorted(dense)
    assert every["end_to_end"].keys() == dense["end_to_end"].keys()


def test_bench_pairs_records_both_commits(tmp_path, monkeypatch):
    # two git checkouts, as worktrees give them: each side's commit is recorded
    commits = {}
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(STUB_RUN + f"# {side}\n")
        git = ["git", "-C", str(root), "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
        for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", side]):
            subprocess.run([*git, *argv], check=True, capture_output=True)
        commits[side] = subprocess.run([*git, "rev-parse", "--short=7", "HEAD"], check=True,
                                       capture_output=True, text=True).stdout.strip()
    assert commits["parent"] != commits["change"]
    monkeypatch.setenv("STUB_LOG", str(tmp_path / "calls.log"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    bench_pairs = importlib.import_module("bench_pairs")
    out = tmp_path / "bench.json"
    sides = [str(tmp_path / "parent"), str(tmp_path / "change")]
    common = ["--seeds", "3", "--pairs", "1", "--seconds", "0", "--out", str(out)]
    assert bench_pairs.main([*sides, *common]) == 0
    record = json.loads(out.read_text())
    assert (record["parent_commit"], record["change_commit"]) == (commits["parent"], commits["change"])
    # a side that is not a git checkout is recorded as null
    (tmp_path / "plain" / "perfbench").mkdir(parents=True)
    (tmp_path / "plain" / "perfbench" / "run.py").write_text(STUB_RUN)
    assert bench_pairs.main([sides[0], str(tmp_path / "plain"), *common]) == 0
    record = json.loads(out.read_text())
    assert (record["parent_commit"], record["change_commit"]) == (commits["parent"], None)


def test_identity_reports_copies_identical_and_names_a_perturbed_constant(tmp_path):
    # two copies of the package on a tiny matrix, then one with a looser EM
    # tolerance: every fit's config and most of its numbers move
    package = Path(hawkesnet.__file__).resolve().parent
    for side in ("parent", "change"):
        shutil.copytree(package, tmp_path / side / "src" / "hawkesnet",
                        ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, str(ROOT / "scripts" / "identity.py"), str(tmp_path / "parent"),
            str(tmp_path / "change"), "--seeds", "3", "--scale", "0.02"]
    same = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert same.returncode == 0, same.stderr
    assert re.fullmatch(r"identical: 33 exit codes and stdouts, \d+ files\n", same.stdout)
    assert "parent: 33 runs (33 exit 0)" in same.stderr
    cli = tmp_path / "change" / "src" / "hawkesnet" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    assert source.count('"rel_tolerance", 1e-6') == 1
    cli.write_text(source.replace('"rel_tolerance", 1e-6', '"rel_tolerance", 1e-3'), encoding="utf-8")
    moved = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert moved.returncode == 1, moved.stderr
    lines = moved.stdout.splitlines()
    assert lines[-1].startswith("differences found over 33 runs")
    at = lines.index("readme-learn-3/fit-plain/report.json: differs")
    assert "  config.em.rel_tolerance: largest change +0.000999 (relative +999), 1 of 1 values moved" in lines[at:]


def test_readme_library_example_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library\n.*?```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    number = r"\d+(\.\d+)?"
    assert re.fullmatch(
        rf"StructureReport\(true_positives=\d+, false_positives=\d+, false_negatives=\d+, "
        rf"precision={number}, recall={number}, f1={number}\)\n",
        printed,
    ), printed
