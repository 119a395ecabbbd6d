#!/usr/bin/env python3
"""Structure recovery quality as a function of sample size.

Simulates datasets of increasing event counts at the desk-scale benchmark
configuration, learns a graph for each, and prints mean +/- std F1 per size.

    python3 scripts/sample_size_sweep.py --sizes 1000 2000 4000 6000 --runs 5
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from hawkesnet.cli import pipeline
from hawkesnet.kernels import ExponentialKernel
from hawkesnet.metrics import structure_metrics
from hawkesnet.simulate import SimConfig, generate_benchmark


def run_one(size: int, seed: int, args) -> float:
    config = SimConfig(
        node_count=args.nodes,
        type_count=args.types,
        causal_avg_indegree=args.indegree,
        target_event_count=size,
        mu_range=(5e-5, 1e-4),
        alpha_range=(0.03, 0.05),
        kernel=ExponentialKernel(args.delta),
        max_hops=args.k,
        bin_width=args.dt,
        seed=seed,
    )
    data = generate_benchmark(config)
    _, results, _, _ = pipeline(data.dataset(), data.topology, config.kernel, [config.max_hops])
    return structure_metrics(results[config.max_hops].graph, data.causal_graph).f1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1000, 2000, 4000, 6000])
    parser.add_argument("--runs", type=int, default=5, help="seeds per size")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--nodes", type=int, default=10)
    parser.add_argument("--types", type=int, default=5)
    parser.add_argument("--indegree", type=float, default=1.0)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--delta", type=float, default=0.2)
    parser.add_argument("--dt", type=float, default=5.0)
    parser.add_argument("--json", metavar="PATH", help="also dump results as JSON")
    args = parser.parse_args(argv)

    results = {}
    print(f"{'events':>8} {'mean F1':>8} {'std':>6} {'seconds':>8}")
    for size in args.sizes:
        started = time.monotonic()
        scores = [run_one(size, args.seed + r, args) for r in range(args.runs)]
        elapsed = time.monotonic() - started
        results[size] = scores
        print(f"{size:>8} {np.mean(scores):>8.3f} {np.std(scores):>6.3f} "
              f"{elapsed:>8.1f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({str(k): v for k, v in results.items()}, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
