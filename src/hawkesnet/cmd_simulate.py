"""``hawkesnet simulate``: generate a benchmark dataset."""

from __future__ import annotations

import os
import sys
import warnings

from . import cli
from .cli import DEFAULT_DELTA, add_common, config_section, ensure_out
from .kernels import ExponentialKernel
from .simulate import SimConfig


def add_arguments(parser) -> None:
    add_common(parser, out_required=True)
    add_sim_arguments(parser, "stop after this many events")


def add_sim_arguments(parser, target_events_help: str) -> None:
    """The flags :func:`sim_config` reads over a config section."""
    parser.add_argument("--k", type=int, help="propagation hop order")
    parser.add_argument("--delta", type=float, help="exponential kernel decay rate")
    parser.add_argument("--dt", type=float, help="bin width")
    parser.add_argument("--nodes", type=int, help="node count")
    parser.add_argument("--types", type=int, help="event type count")
    parser.add_argument("--target-events", type=int, help=target_events_help)


def sim_config(args, section: dict) -> SimConfig:
    data = dict(section)
    overrides = {
        "seed": args.seed,
        "max_hops": args.k,
        "bin_width": args.dt,
        "node_count": args.nodes,
        "type_count": args.types,
        "target_event_count": args.target_events,
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    if args.delta is not None:
        data["kernel"] = {"type": "exponential", "delta": args.delta}
    data.setdefault("kernel", {"type": "exponential", "delta": DEFAULT_DELTA})
    return SimConfig.from_dict(data)


def generate(config: SimConfig):
    """``generate_benchmark(config)``, each warning it raises printed as one line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = cli.generate_benchmark(config)
    for caught_warning in caught:  # without the source path and line Python's format adds
        print(f"warning: {caught_warning.message}", file=sys.stderr)
    return data


def main(args) -> int:
    config = sim_config(args, config_section(args.config, "simulate"))
    data = generate(config)
    out = ensure_out(args.out)
    config_echo = config.to_dict()

    cli.save_events_csv(os.path.join(out, "events.csv"), data.records)
    cli.save_edge_list(os.path.join(out, "topology.txt"), data.topology)
    cli.save_graph_json(
        os.path.join(out, "ground_truth.json"),
        data.causal_graph,
        data.params,
        delta=config.kernel.decay if isinstance(config.kernel, ExponentialKernel) else None,
        bin_width=config.bin_width,
        node_count=config.node_count,
        seed=config.seed,
        config=config_echo,
    )
    cli.write_manifest(
        out,
        "simulate",
        config.seed,
        config_echo,
        ["events.csv", "topology.txt", "ground_truth.json"],
    )
    print(
        f"simulated {data.event_count} events over {data.horizon_bins} bins "
        f"(seed {config.seed}) -> {out}"
    )
    return 0
