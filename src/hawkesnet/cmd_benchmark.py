"""``hawkesnet benchmark``: simulate, learn and evaluate over a batch of seeds."""

from __future__ import annotations

import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import cli
from .cli import DEFAULT_DELTA, add_common, config_section, em_config_of, ensure_out, pick
from .cmd_simulate import add_sim_arguments, generate, sim_config
from .errors import InvalidInputError
from .kernels import ExponentialKernel
from .metrics import alpha_mae, structure_metrics
from .simulate import SimConfig


def add_arguments(parser) -> None:
    add_common(parser, out_required=False)
    parser.add_argument("--runs", type=int, help="number of seeds (default 5)")
    add_sim_arguments(parser, "events per dataset")


class SeedRun(NamedTuple):
    """One simulated dataset learned at hop orders K and 0 and scored."""

    seed: int
    reports: dict  # hop order -> StructureReport against the generating graph
    fits: dict  # hop order -> EM fits the search ran
    alpha_mae: float  # of the fit at hop order K
    seconds: float  # wall time of simulate, learn and score


def study(configs, kernel, em_config=None):
    """Simulate each config and learn it with ``kernel`` at hop orders (K, 0).

    Both searches run through ``cli.pipeline`` on one feature build. Yields
    one :class:`SeedRun` per config as it finishes, so simulator warnings
    and a caller's per-seed lines keep their order.
    """
    for config in configs:
        started = time.monotonic()
        data = generate(config)
        _, results, _, _ = cli.pipeline(data.dataset(), data.topology, kernel,
                                        (config.max_hops, 0), em_config=em_config)
        yield SeedRun(
            config.seed,
            {hops: structure_metrics(result.graph, data.causal_graph) for hops, result in results.items()},
            {hops: result.fit_evaluations for hops, result in results.items()},
            alpha_mae(results[config.max_hops].params, data.params),
            time.monotonic() - started,
        )


def main(args) -> int:
    section = config_section(args.config, "benchmark", ("runs", "em", *SimConfig.__slots__))
    runs = pick(args.runs, section, "runs", 5, int)
    if runs < 1:
        raise InvalidInputError("--runs must be >= 1")
    em_config = em_config_of(section)
    base = sim_config(args, {k: v for k, v in section.items() if k not in ("runs", "em", "seed")})
    base_seed = pick(args.seed, section, "seed", 0, int)
    delta = base.kernel.decay if isinstance(base.kernel, ExponentialKernel) else DEFAULT_DELTA

    configs = (SimConfig.from_dict({**base.to_dict(), "seed": base_seed + offset})
               for offset in range(runs))
    rows = {"full": base.max_hops, "no_topology": 0}  # one search at --k 0, where both are hop 0
    done = []
    for run in study(configs, ExponentialKernel(delta), em_config):
        done.append(run)
        for label, hops in rows.items():
            report = run.reports[hops]
            print(
                f"seed {run.seed} {label}: precision={report.precision:.3f} "
                f"recall={report.recall:.3f} f1={report.f1:.3f}",
                file=sys.stderr,
            )

    print(f"{'configuration':<14} {'precision':>16} {'recall':>16} {'f1':>16} {'alpha_mae':>12}")
    summary = {}
    for label, hops in rows.items():
        stats = {}
        for name in ("precision", "recall", "f1"):
            values = np.array([getattr(run.reports[hops], name) for run in done], dtype=float)
            stats[f"{name}_mean"], stats[f"{name}_std"] = values.mean(), values.std()
        mae = float(np.mean([run.alpha_mae for run in done])) if hops == base.max_hops else None
        columns = " ".join(f"{stats[name + '_mean']:>8.3f}±{stats[name + '_std']:<7.3f}"
                           for name in ("precision", "recall", "f1"))
        print(f"{label:<14} {columns} {'-' if mae is None else f'{mae:.5f}':>12}")
        summary[label] = {**stats, "alpha_mae_mean": mae, "runs": runs}
    if args.out:
        cli.write_json(os.path.join(ensure_out(args.out), "benchmark.json"), {
            "format_version": 1, "seed": base_seed, "config": base.to_dict(), "results": summary})
    return 0
