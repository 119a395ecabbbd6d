"""Byte-identity check of two checkouts: one fixed matrix of CLI runs in
each, then every exit code, stdout and written file compared.

Usage::

    python3 scripts/identity.py ../parent ../change --seeds 23 5

A checkout is any directory holding the package under ``src``: a git
worktree, as ``scripts/bench_pairs.py`` uses, or a tree written by ``git
archive``. Each side runs the whole matrix in one process through its own
``hawkesnet.cli.main``, with ``PYTHONDONTWRITEBYTECODE=1`` and BLAS and
OpenMP held to one thread, as ``perfbench/run.py`` holds them. The matrix,
at each seed:

- ``simulate`` on the desk config of ``desk-pipeline``;
- ``learn`` with perfbench's arguments on the three perfbench inputs (the
  desk events that side simulated; the ``readme-learn`` and ``dense-learn``
  inputs, which this repository's ``perfbench/gen.py`` writes once for both
  sides): plain, ``--trace``, ``--dag-only``, ``--no-topology`` (``--nodes``
  in place of the topology file) and ``--k-sweep``;
- ``evaluate`` on each fit against its input's ground truth;

and once, ``simulate --seed 7`` at README scale and ``benchmark --runs 2``.
``--scale`` shrinks every horizon and event target, for smoke runs.

Paths are masked before anything is compared: each side's output
directory reads as ``<out>`` and the shared inputs as ``<in>``. Every
artifact that differs is named. For a JSON file the largest change of each
numeric key follows, absolute and relative to the parent's value (list
indices read as ``[]``), and for a file with learned ``edges`` whether the
two edge sets are equal. Standard error is not compared: it holds timings.
The script exits 0 when everything is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# learn variants: (name, extra arguments); "{fit}" is the fit's directory
VARIANTS = (
    ("plain", []),
    ("trace", ["--trace", "{fit}.trace.jsonl"]),
    ("dag-only", ["--dag-only"]),
    ("no-topology", ["--no-topology"]),
    ("k-sweep", ["--k-sweep"]),
)
EVENTS = 20_000  # the default event target of simulate (README scale) and benchmark
# run by each side: a list of argv on stdin, one {"code", "stdout"} per argv
# on stdout; a crash is an outcome to compare, named by its exception
RUNNER = """
import contextlib, io, json, sys
from hawkesnet.cli import main
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
    results.append({"code": code, "stdout": out.getvalue()})
json.dump(results, sys.stdout)
"""


def load_perfbench():
    """This repository's ``perfbench/run.py``, for its workloads' inputs and
    arguments (importing it pins the BLAS threads of this process); it
    leaves no bytecode in the checkout."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def matrix(perfbench, inputs: str, out: str, seeds: list, scale: float) -> list:
    """``(name, argv)`` of every run of one side, writing under ``out``.

    The generated inputs and the desk configs are written under ``inputs``
    on first use."""
    runs = []
    for seed in seeds:
        for name, workload in perfbench.WORKLOADS.items():
            workload = workload.scaled(scale)
            work = os.path.join(inputs, f"{name}-{seed}")
            if not os.path.isdir(work):
                workload.prepare(work, seed)
            stages = dict(workload.stages(work, seed, out=os.path.join(out, f"{name}-{seed}")))
            if "simulate" in stages:
                runs.append((f"{name} {seed} simulate", stages["simulate"]))
            learn, evaluate = stages["learn"], stages["evaluate"]
            fit = learn[learn.index("--out") + 1]
            nodes = workload.shape.nodes if workload.shape else perfbench.DESK["node_count"]
            for variant, extra in VARIANTS:
                argv = learn[: learn.index("--out")] + ["--out", f"{fit}-{variant}"]
                if variant == "no-topology":
                    at = argv.index("--topology")
                    argv[at : at + 2] = ["--nodes", str(nodes)]
                argv += [arg.format(fit=f"{fit}-{variant}") for arg in extra]
                runs.append((f"{name} {seed} learn {variant}", argv))
                check = list(evaluate)
                check[check.index("--predicted") + 1] = os.path.join(f"{fit}-{variant}", "learned_graph.json")
                check[check.index("--out") + 1] += f"-{variant}"
                runs.append((f"{name} {seed} evaluate {variant}", check))
    events = max(100, int(EVENTS * scale))
    runs.append(("readme-scale simulate", ["simulate", "--seed", "7", "--target-events", str(events),
                                           "--out", os.path.join(out, "readme-scale")]))
    runs.append(("benchmark", ["benchmark", "--runs", "2", "--target-events", str(events),
                               "--out", os.path.join(out, "benchmark")]))
    return runs


def run_side(checkout: str, runs: list) -> list:
    """Each run's exit code and stdout, in one process of ``checkout``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPYCACHEPREFIX"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps([argv for _, argv in runs]),
                          env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: the matrix failed in {checkout}:\n{done.stderr}")
    return json.loads(done.stdout)


def read_files(out: str, masks: dict) -> dict:
    """Every file under ``out`` by relative path, its bytes masked."""
    found = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = mask(fh.read(), masks)
    return found


def mask(data: bytes, masks: dict) -> bytes:
    for path, label in masks.items():
        data = data.replace(path.encode(), label.encode())
    return data


def numbers(doc, key: str = "") -> dict:
    """Every numeric leaf of a JSON document, by key path (``[]`` for any
    list index), as lists in document order."""
    found = {}
    if isinstance(doc, dict):
        for name, value in doc.items():
            for path, values in numbers(value, f"{key}.{name}" if key else name).items():
                found.setdefault(path, []).extend(values)
    elif isinstance(doc, list):
        for value in doc:
            for path, values in numbers(value, f"{key}[]").items():
                found.setdefault(path, []).extend(values)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        found[key] = [doc]
    return found


def edge_set(doc):
    """The ``(from, to)`` pairs of a document's learned ``edges``, or None."""
    edges = doc.get("edges") if isinstance(doc, dict) else None
    if not isinstance(edges, list) or not all(isinstance(e, dict) and "from" in e for e in edges):
        return None
    return {(e["from"], e["to"]) for e in edges}


def json_changes(before: bytes, after: bytes) -> list:
    """Lines describing how two JSON files differ, or [] if either is not JSON."""
    try:
        old, new = json.loads(before), json.loads(after)
    except ValueError:
        return []
    lines = []
    old_edges, new_edges = edge_set(old), edge_set(new)
    if old_edges is not None and new_edges is not None:
        lines.append(f"learned edge sets {'equal' if old_edges == new_edges else 'differ'}"
                     f" ({len(old_edges)} -> {len(new_edges)} edges)")
    old_numbers, new_numbers = numbers(old), numbers(new)
    for key in sorted(old_numbers.keys() | new_numbers.keys()):
        a, b = old_numbers.get(key, []), new_numbers.get(key, [])
        if len(a) != len(b):
            lines.append(f"{key}: {len(a)} -> {len(b)} values")
            continue
        moves = [(abs(y - x), (y - x) / abs(x) if x else float("inf"), y - x) for x, y in zip(a, b) if x != y]
        if moves:
            _, relative, change = max(moves)
            lines.append(f"{key}: largest change {change:+.6g} (relative {relative:+.3g}), "
                         f"{len(moves)} of {len(a)} values moved")
    return lines


def compare(names: list, sides: dict) -> list:
    """Lines naming every difference between the parent's and the change's
    outcomes and files."""
    (old_runs, old_files), (new_runs, new_files) = sides["parent"], sides["change"]
    lines = []
    for name, old, new in zip(names, old_runs, new_runs):
        if old["code"] != new["code"]:
            lines.append(f"{name}: exit {old['code']} -> {new['code']}")
        if old["stdout"] != new["stdout"]:
            lines.append(f"{name}: stdout differs")
    for path in sorted(old_files.keys() | new_files.keys()):
        if path not in new_files or path not in old_files:
            lines.append(f"{path}: only in the {'parent' if path in old_files else 'change'}")
        elif old_files[path] != new_files[path]:
            lines.append(f"{path}: differs")
            lines += [f"  {line}" for line in json_changes(old_files[path], new_files[path])]
            if lines[-1].endswith(": differs") and path.endswith(".json"):
                lines.append("  no learned edge or number moved")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="byte-identity check of two checkouts")
    parser.add_argument("parent", help="checkout root of the parent commit")
    parser.add_argument("change", help="checkout root of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[23, 5])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="horizon and event-target factor (smoke tests use a small value)")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not os.path.isdir(os.path.join(checkout, "src", "hawkesnet")):
            parser.error(f"{checkout} holds no src/hawkesnet")
    perfbench = load_perfbench()
    with tempfile.TemporaryDirectory(prefix="identity-") as scratch:
        inputs = os.path.join(scratch, "in")
        sides, names = {}, []
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            out = os.path.join(scratch, side)
            runs = matrix(perfbench, inputs, out, args.seeds, args.scale)
            names = [name for name, _ in runs]
            masks = {out: "<out>", inputs: "<in>"}
            results = [{"code": r["code"], "stdout": mask(r["stdout"].encode(), masks)}
                       for r in run_side(checkout, runs)]
            sides[side] = (results, read_files(out, masks))
            exited = sum(result["code"] == 0 for result in results)
            print(f"{side}: {len(runs)} runs ({exited} exit 0), {len(sides[side][1])} files", file=sys.stderr)
        lines = compare(names, sides)
    runs, files = len(names), len(sides["change"][1])
    for line in lines:
        print(line)
    if lines:
        print(f"differences found over {runs} runs and {files} files")
        return 1
    print(f"identical: {runs} exit codes and stdouts, {files} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
