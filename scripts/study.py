#!/usr/bin/env python3
"""The synthetic study: THP against the flat fit, over one axis at a time.

For each axis value, simulates ``--runs`` datasets (seeds ``--seed``,
``--seed``+1, ...) from the axis's base config and learns each at hop orders
K and 0 on one feature build, through the loop ``hawkesnet benchmark`` runs
(``cmd_benchmark.study``). Prints per value the F1 mean ± std of the THP
(hop K) and flat (hop 0) searches, their mean EM fits and the wall seconds;
``--json PATH`` also writes every seed's values.

    python3 scripts/study.py --axis size --runs 5
    python3 scripts/study.py --axis kernel --runs 5

Axes (10 nodes, 5 types, causal in-degree 1, alpha in [0.03, 0.05]):
  size    events per dataset (default 1000 2000 4000 6000); bin width 5,
          mu in [5e-5, 1e-4], generated and fitted with an exponential
          kernel of decay 0.2
  kernel  generating kernel family (default exponential gaussian uniform);
          4,000 events, bin width 2.5, mu in [2e-4, 4e-4]; exponential has
          decay 0.2, Gaussian and uniform have width 4 and a centre drawn per
          seed in [5, 15] from ``default_rng((9000, seed))``; always fitted
          with an exponential kernel of decay 0.2
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from hawkesnet.cmd_benchmark import study
from hawkesnet.kernels import ExponentialKernel, GaussianKernel, UniformKernel
from hawkesnet.simulate import SimConfig

FIT_KERNEL = ExponentialKernel(0.2)
BASE = dict(node_count=10, type_count=5, causal_avg_indegree=1.0, alpha_range=(0.03, 0.05))
SHAPES = {"gaussian": GaussianKernel, "uniform": UniformKernel}


def size_config(events: str, seed: int, k: int) -> SimConfig:
    return SimConfig(**BASE, target_event_count=int(events), mu_range=(5e-5, 1e-4),
                     kernel=FIT_KERNEL, max_hops=k, bin_width=5.0, seed=seed)


def kernel_config(family: str, seed: int, k: int) -> SimConfig:
    if family == "exponential":
        kernel = ExponentialKernel(0.2)
    else:
        kernel = SHAPES[family](np.random.default_rng((9000, seed)).uniform(5.0, 15.0), 4.0)
    return SimConfig(**BASE, target_event_count=4000, mu_range=(2e-4, 4e-4), kernel=kernel,
                     max_hops=k, bin_width=2.5, seed=seed)


AXES = {  # name -> (config of a value and seed, default values, value check)
    "size": (size_config, ["1000", "2000", "4000", "6000"], str.isdigit),
    "kernel": (kernel_config, ["exponential", "gaussian", "uniform"], {"exponential", *SHAPES}.__contains__),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--axis", choices=sorted(AXES), required=True)
    parser.add_argument("--values", nargs="+", help="axis values (default: the axis's own)")
    parser.add_argument("--runs", type=int, default=5, help="seeds per value")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--k", type=int, default=2, help="hop order of the THP fit")
    parser.add_argument("--json", metavar="PATH", help="also write every seed's values as JSON")
    args = parser.parse_args(argv)
    make, defaults, valid = AXES[args.axis]
    values = args.values or defaults
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if not all(map(valid, values)):
        parser.error(f"invalid {args.axis} values {values}")

    per_seed = {}
    print(f"{args.axis:<12} {'THP F1':>13} {'flat F1':>13} {'THP fits':>9} {'flat fits':>9} {'seconds':>8}")
    for value in values:
        configs = (make(value, args.seed + offset, args.k) for offset in range(args.runs))
        runs = [{"seed": run.seed, "thp_f1": run.reports[args.k].f1, "flat_f1": run.reports[0].f1,
                 "thp_fits": run.fits[args.k], "flat_fits": run.fits[0], "seconds": run.seconds}
                for run in study(configs, FIT_KERNEL)]
        per_seed[value] = runs
        column = {key: [run[key] for run in runs] for key in runs[0]}
        print(f"{value:<12} {np.mean(column['thp_f1']):>7.3f}±{np.std(column['thp_f1']):<5.3f} "
              f"{np.mean(column['flat_f1']):>7.3f}±{np.std(column['flat_f1']):<5.3f} "
              f"{np.mean(column['thp_fits']):>9.1f} {np.mean(column['flat_fits']):>9.1f} "
              f"{sum(column['seconds']):>8.1f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"axis": args.axis, "runs": per_seed}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
