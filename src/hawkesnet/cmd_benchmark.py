"""``hawkesnet benchmark``: simulate, learn and evaluate over a batch of seeds."""

from __future__ import annotations

import os
import sys

import numpy as np

from . import cli
from .cli import DEFAULT_DELTA, add_common, config_section, em_config_of, ensure_out, pick
from .cmd_simulate import generate, sim_config
from .errors import InvalidInputError
from .kernels import ExponentialKernel
from .metrics import alpha_mae, structure_metrics
from .simulate import SimConfig


def add_arguments(parser) -> None:
    add_common(parser, out_required=False)
    parser.add_argument("--runs", type=int, help="number of seeds (default 5)")
    parser.add_argument("--k", type=int, help="propagation hop order")
    parser.add_argument("--delta", type=float, help="exponential kernel decay rate")
    parser.add_argument("--dt", type=float, help="bin width")
    parser.add_argument("--nodes", type=int, help="node count")
    parser.add_argument("--types", type=int, help="event type count")
    parser.add_argument("--target-events", type=int, help="events per dataset")


def main(args) -> int:
    section = config_section(args.config, "benchmark", ("runs", "em", *SimConfig.__slots__))
    runs = pick(args.runs, section, "runs", 5, int)
    if runs < 1:
        raise InvalidInputError("--runs must be >= 1")
    em_config = em_config_of(section)
    base = sim_config(args, {k: v for k, v in section.items() if k not in ("runs", "em", "seed")})
    base_seed = pick(args.seed, section, "seed", 0, int)
    delta = base.kernel.decay if isinstance(base.kernel, ExponentialKernel) else DEFAULT_DELTA

    rows: dict[str, list] = {"full": [], "no_topology": []}
    for offset in range(runs):
        seed = base_seed + offset
        config = SimConfig.from_dict({**base.to_dict(), "seed": seed})
        data = generate(config)
        _, results, _, _ = cli.pipeline(data.dataset(), data.topology, ExponentialKernel(delta),
                                        (config.max_hops, 0), em_config=em_config)
        for label, hops in (("full", config.max_hops), ("no_topology", 0)):
            result = results[hops]  # one search at --k 0, where both rows are hop 0
            report = structure_metrics(result.graph, data.causal_graph)
            mae = alpha_mae(result.params, data.params) if hops == config.max_hops else None
            rows[label].append((report.precision, report.recall, report.f1, mae))
            print(
                f"seed {seed} {label}: precision={report.precision:.3f} "
                f"recall={report.recall:.3f} f1={report.f1:.3f}",
                file=sys.stderr,
            )

    def stats(values):
        arr = np.array(values, dtype=float)
        return arr.mean(), arr.std()

    print(f"{'configuration':<14} {'precision':>16} {'recall':>16} {'f1':>16} {'alpha_mae':>12}")
    summary = {}
    for label in ("full", "no_topology"):
        triples = rows[label]
        p_m, p_s = stats([r[0] for r in triples])
        r_m, r_s = stats([r[1] for r in triples])
        f_m, f_s = stats([r[2] for r in triples])
        maes = [r[3] for r in triples if r[3] is not None]
        mae_text = f"{np.mean(maes):.5f}" if maes else "-"
        print(
            f"{label:<14} {p_m:>8.3f}±{p_s:<7.3f} {r_m:>8.3f}±{r_s:<7.3f} "
            f"{f_m:>8.3f}±{f_s:<7.3f} {mae_text:>12}"
        )
        summary[label] = {
            "precision_mean": p_m,
            "precision_std": p_s,
            "recall_mean": r_m,
            "recall_std": r_s,
            "f1_mean": f_m,
            "f1_std": f_s,
            "alpha_mae_mean": float(np.mean(maes)) if maes else None,
            "runs": runs,
        }
    if args.out:
        out = ensure_out(args.out)
        cli.write_json(
            os.path.join(out, "benchmark.json"),
            {
                "format_version": 1,
                "seed": base_seed,
                "config": base.to_dict(),
                "results": summary,
            },
        )
    return 0
