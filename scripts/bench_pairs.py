"""Alternating before/after pairs of the perfbench end-to-end benchmark.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds N`` in two
checkouts, a parent and a change, and writes one JSON record of every
end-to-end metric: per seed and workload, the median and quartiles
(inclusive method) of each side, every run in pair order, the number of
pairs the change won (strictly; ties count for neither side), the
relative change of the medians and ``claim_rule_met``, the rule for
claiming a gain: the change won at least 9 of every 10 pairs and its median
beats the parent's by more than the parent's interquartile range. One
stderr line per workload names the metrics that meet it, with their seeds.
Even pairs run the parent first, odd pairs the change first, and the seeds
are interleaved, because a run's position moves its timings by several
percent.

Every run has ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``,
as the benchmark itself runs: each CLI process compiles the package modules
it imports and reads the installed bytecode of the standard library and
numpy. Timings with a bytecode prefix differ from these, so the script has
no such mode. A side that read bytecode left in its checkout would skip
that compile (it read every stage 2-10% faster), so the script refuses to
start, naming the directory, while either checkout holds a ``__pycache__``;
it deletes nothing.

Make both checkouts as git worktrees of this repository, so that each
side's commit stays readable and goes into the record as
``parent_commit`` and ``change_commit`` (a side that is not a git checkout
is recorded as ``null``)::

    git worktree add --detach ../parent PARENT_COMMIT
    git worktree add --detach ../change CHANGE_COMMIT

Usage::

    python3 scripts/bench_pairs.py ../parent ../change --seeds 23 5 --pairs 10

``--workload NAME`` runs one perfbench workload instead of ``all``, to
iterate on one claim quickly; a final record runs ``all``. The record goes
to ``--out``, by default ``BENCH_<parent commit>.json`` in the working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# metrics where a larger value is better; every other metric is lower-better
HIGHER_BETTER = {"f1"}


def run_bench(checkout: str, workload: str, seed: int, seconds: float, scale: float) -> dict:
    """One perfbench run in ``checkout``: its environment line and result JSON."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--scale", repr(scale)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: perfbench failed in {checkout}:\n{done.stderr}")
    env = next((json.loads(line[len("env:"):]) for line in lines if line.startswith("env:")), {})
    return {"env": env, "result": json.loads(lines[-1])}


def summary(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(name: str, parent: list, change: list) -> dict:
    """Both sides' summaries, the pairs the change won, the median's relative
    move and whether the change meets the claim rule."""
    higher = name in HIGHER_BETTER
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    before, after = summary(parent), summary(change)
    gain = (after["median"] - before["median"]) * (1 if higher else -1)
    return {
        "parent": before,
        "change": after,
        "parent_runs": parent,
        "change_runs": change,
        "pairs": len(parent),
        "change_better_pairs": won,
        "change_vs_parent": after["median"] / before["median"] - 1.0 if before["median"] else 0.0,
        "claim_rule_met": 10 * won >= 9 * len(parent) and gain > before["q3"] - before["q1"],
    }


def commit_of(checkout: str) -> str | None:
    done = subprocess.run(["git", "-C", checkout, "rev-parse", "--short=7", "HEAD"],
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating perfbench pairs of two checkouts")
    parser.add_argument("parent", help="checkout root of the parent commit")
    parser.add_argument("change", help="checkout root of the change")
    parser.add_argument("--workload", default="all", help="perfbench workload (default all)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[23, 5])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="perfbench --scale (smoke tests use a small value)")
    parser.add_argument("--out", help="default: BENCH_<parent commit>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    parent_commit = commit_of(args.parent)
    out = args.out or (parent_commit and f"BENCH_{parent_commit}.json")
    if out is None:
        parser.error("the parent is not a git checkout; name the record with --out")

    sides = {"parent": args.parent, "change": args.change}
    caches = [os.path.join(root, "__pycache__") for checkout in sides.values()
              for root, dirs, _ in os.walk(checkout) if "__pycache__" in dirs]
    if caches:  # the side holding it would skip the compile the other side pays
        parser.error(f"{caches[0]} holds bytecode; remove it before measuring")
    runs = {(side, seed): [] for side in sides for seed in args.seeds}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for seed in args.seeds:
            for side in order:
                runs[side, seed].append(run_bench(sides[side], args.workload, seed, args.seconds, args.scale))
                print(f"pair {pair + 1}/{args.pairs} seed {seed} {side} done", file=sys.stderr)

    end_to_end, checks, claims = {}, {}, {}
    for seed in args.seeds:
        results = {side: [run["result"] for run in runs[side, seed]] for side in sides}
        per_workload = {}
        for name in results["parent"][0]["metrics"]:
            workload, metric = name.split(".", 1) if "." in name else ("all", name)
            values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
            per_workload.setdefault(workload, {})[metric] = compare(metric, values["parent"], values["change"])
        end_to_end[f"seed {seed}"] = per_workload
        for workload, metrics in per_workload.items():
            claims.setdefault(workload, []).extend(
                f"{metric} (seed {seed})" for metric, entry in metrics.items() if entry["claim_rule_met"])
        checks[f"seed {seed}"] = {
            "attempted": {side: sum(r["attempted"] for r in results[side]) for side in sides},
            "failed": {side: sum(r["failed"] for r in results[side]) for side in sides},
            "correct": all(r["correct"] for side in sides for r in results[side]),
        }
    env = runs["change", args.seeds[0]][0]["env"]
    record = {
        "parent_commit": parent_commit,
        "change_commit": commit_of(args.change),
        "description": (
            f"end_to_end: medians and quartiles (inclusive method) over {args.pairs} alternating pairs "
            f"of `python3 perfbench/run.py --workload {args.workload} --seed S "
            f"--seconds {args.seconds:g}` per seed, even pairs parent first, odd pairs change first, "
            "seeds interleaved; *_runs list every run in pair order; change_better_pairs counts strict wins (ties count for neither); "
            "claim_rule_met: the change won at least 9 of every 10 pairs and its median beats the parent's by more "
            "than the parent's interquartile range; "
            "each run with PYTHONDONTWRITEBYTECODE=1, no PYTHONPYCACHEPREFIX and no __pycache__ in either "
            "checkout, so every CLI process compiles the package modules it imports."
        ),
        "machine": {key: env.get(key) for key in ("nproc", "python", "numpy", "blas", "threads")},
        "end_to_end": end_to_end,
        "checks": checks,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, met in claims.items():
        print(f"{workload}: claim rule met by {', '.join(met) or 'no metric'}", file=sys.stderr)
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
