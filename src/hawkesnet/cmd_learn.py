"""``hawkesnet learn``, and ``pipeline``: fit a causal graph to event data."""

from __future__ import annotations

import json
import math
import os
import sys
import time

from . import cli
from .cli import DEFAULT_DELTA, add_common, config_section, em_config_of, ensure_out, pick
from .em import EmConfig
from .errors import InvalidInputError
from .fileio import sha256_file
from .kernels import ExponentialKernel
from .topology import build_topology, load_edge_list

DEFAULT_MAX_HOPS = 2
DEFAULT_BIN_WIDTH = 1.0


def add_arguments(parser) -> None:
    add_common(parser, out_required=True,
               seed_help="recorded in the outputs; the fit does not depend on it (default 0)")
    parser.add_argument("--events", metavar="PATH", help="event CSV file")
    parser.add_argument("--topology", metavar="PATH", help="topology edge list file")
    parser.add_argument("--nodes", type=int, help="node count override")
    parser.add_argument("--types", type=int, help="event type count override")
    parser.add_argument("--k", type=int, help="propagation hop order (default 2)")
    parser.add_argument(
        "--k-sweep",
        action="store_true",
        default=None,
        help="try every hop order 0..k and keep the best score",
    )
    parser.add_argument("--delta", type=float, help="exponential kernel decay rate")
    parser.add_argument("--dt", type=float, help="bin width")
    parser.add_argument("--horizon-end", type=float, help="observation window end")
    parser.add_argument(
        "--no-topology",
        action="store_true",
        default=None,
        help="ignore propagation: hop order forced to 0",
    )
    cycles = parser.add_mutually_exclusive_group()
    cycles.add_argument(
        "--allow-cycles",
        dest="allow_cycles",
        action="store_true",
        default=None,
        help="search over cyclic graphs and self-loops (default)",
    )
    cycles.add_argument(
        "--dag-only",
        dest="allow_cycles",
        action="store_false",
        help="restrict the search to acyclic graphs",
    )
    parser.add_argument("--trace", metavar="PATH", help="write a JSONL search trace")


def pipeline(dataset, topology, kernel, hop_orders, *, em_config=None, allow_cycles=True,
             progress=None):
    """Features at the largest of ``hop_orders``, then one ``hill_climb`` per distinct order.

    Each search runs on ``cache.truncated(order)``. Returns the cache, the
    results keyed by hop order (in the order given) and the wall seconds of
    the feature build and of the searches.
    """
    results = dict.fromkeys(hop_orders)
    started = time.monotonic()
    cache = cli.build_features(dataset, topology, kernel, max(results))
    features_s = time.monotonic() - started
    started = time.monotonic()
    for hops in results:
        results[hops] = cli.hill_climb(cache.truncated(hops), em_config=em_config or EmConfig(),
                                       allow_cycles=allow_cycles, progress=progress)
    return cache, results, features_s, time.monotonic() - started


def _learn_inputs(args, section: dict):
    events_path = pick(args.events, section, "events", None, str)
    if events_path is None:
        raise InvalidInputError("learn needs an event file (--events or config)")
    topology_path = pick(args.topology, section, "topology", None, str)
    no_topology = pick(args.no_topology, section, "no_topology", False, bool)
    if topology_path is None and not no_topology:
        raise InvalidInputError("learn needs a topology file unless --no-topology is set")
    return events_path, topology_path, no_topology


def main(args) -> int:
    section = config_section(args.config, "learn", (
        "events", "topology", "no_topology", "k", "k_sweep", "delta", "dt", "allow_cycles",
        "horizon_end", "nodes", "types", "em"))
    events_path, topology_path, no_topology = _learn_inputs(args, section)

    seed = pick(args.seed, section, "seed", 0, int)
    max_hops = pick(args.k, section, "k", DEFAULT_MAX_HOPS, int)
    delta = pick(args.delta, section, "delta", DEFAULT_DELTA, float)
    bin_width = pick(args.dt, section, "dt", DEFAULT_BIN_WIDTH, float)
    allow_cycles = pick(args.allow_cycles, section, "allow_cycles", True, bool)
    k_sweep = pick(args.k_sweep, section, "k_sweep", False, bool)
    horizon_end = pick(args.horizon_end, section, "horizon_end", None, float)
    node_count = pick(args.nodes, section, "nodes", None, int)
    type_count = pick(args.types, section, "types", None, int)
    em_config = em_config_of(section)
    if max_hops < 0:
        raise InvalidInputError("--k must be >= 0")
    if seed < 0:
        raise InvalidInputError("--seed must be >= 0")
    if no_topology:
        max_hops = 0
    kernel = ExponentialKernel(delta)

    started = time.monotonic()
    records = cli.load_events_csv(events_path)
    ingest_elapsed = time.monotonic() - started
    inputs = {"events": f"sha256:{sha256_file(events_path)}"}

    if topology_path is not None:
        topology = load_edge_list(topology_path, node_count=node_count)
        inputs["topology"] = f"sha256:{sha256_file(topology_path)}"
        node_count = topology.node_count
    else:
        if node_count is None:
            node_count = int(records.node.max(initial=0)) + 1
        topology = build_topology(node_count, [])
        node_count = topology.node_count

    if type_count is None:
        type_count = int(records.event_type.max(initial=0)) + 1
    if horizon_end is None:
        # the window ends with the latest event's bin; from 2**53 bins on the
        # next bin boundary can round back onto the latest timestamp, so the
        # window then ends at the next float instead. discretize rejects a
        # width that is not positive, and an infinite or NaN window.
        latest = float(records.timestamp.max(initial=0.0))
        horizon_end = latest
        if bin_width > 0:
            bins = latest / bin_width
            bins = math.floor(bins) if math.isfinite(bins) else bins
            horizon_end = max((bins + 1.0) * bin_width, math.nextafter(latest, math.inf))

    started = time.monotonic()
    dataset = cli.discretize(
        records,
        bin_width,
        float(horizon_end),
        node_count=node_count,
        type_count=type_count,
    )
    ingest_elapsed += time.monotonic() - started

    cache, results, features_elapsed, elapsed = pipeline(
        dataset, topology, kernel,
        range(max_hops + 1) if k_sweep else [max_hops],
        em_config=em_config,
        allow_cycles=allow_cycles,
        progress=lambda line: print(line, file=sys.stderr),
    )
    best_hops = max(results, key=lambda hops: results[hops].score)  # the lowest on a tie
    best = results[best_hops]
    fits, maps, screened, nonconverged, paused, resumed = map(sum, zip(*(
        (r.fit_evaluations, r.em_maps, r.screened_moves, r.nonconverged_fits, r.paused_fits,
         r.resumed_fits)
        for r in results.values())))

    if args.trace:  # first, so a bad path leaves no learned graph behind
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(entry, sort_keys=True) + "\n" for entry in best.trace)
    out = ensure_out(args.out)
    config_echo = {
        "seed": seed,
        "k": best_hops,
        "k_sweep": k_sweep,
        "delta": delta,
        "dt": bin_width,
        "allow_cycles": allow_cycles,
        "no_topology": no_topology,
        "node_count": dataset.node_count,
        "type_count": dataset.type_count,
        "em": em_config._asdict(),
    }
    cli.save_graph_json(
        os.path.join(out, "learned_graph.json"),
        best.graph,
        best.params,
        delta=delta,
        bin_width=bin_width,
        node_count=dataset.node_count,
        score=best.score,
        seed=seed,
        config=config_echo,
    )
    cli.write_json(
        os.path.join(out, "report.json"),
        {
            "format_version": 1,
            "score": best.score,
            "log_lik": best.log_lik,
            "rounds": best.rounds,
            "fit_evaluations": best.fit_evaluations,
            "screened_moves": best.screened_moves,
            "fit_gaps": list(best.fit_gaps),
            "edge_count": best.graph.edge_count,
            "events": dataset.total_events,
            "bins": dataset.bin_count,
            "inputs": inputs,
            "config": config_echo,
        },
    )
    print(f"ingest took {ingest_elapsed:.2f}s events={dataset.total_events}", file=sys.stderr)
    print(f"features took {features_elapsed:.2f}s cells={cache.cell_count} build={cache.build}",
          file=sys.stderr)
    print(f"search took {elapsed:.2f}s fits={fits} maps={maps} screened={screened} "
          f"nonconverged={nonconverged} paused={paused} resumed={resumed}", file=sys.stderr)
    unconverged = ", ".join(str(f.event_type) for f in best.type_fits if not f.converged)
    if unconverged:
        print(f"warning: EM did not converge within {em_config.max_iterations} "
              f"iterations for types {unconverged}", file=sys.stderr)
    print(
        f"learned {best.graph.edge_count} edges in {best.rounds} rounds, "
        f"score {best.score:.6f} -> {out}"
    )
    return 0
