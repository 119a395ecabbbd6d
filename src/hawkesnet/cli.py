"""Command-line interface (simulate, learn, evaluate, benchmark) and its ``pipeline``.

Configuration comes from an optional JSON file (sections named after the
subcommands) with command-line flags taking precedence. Exit codes: 0 on
success, 2 for invalid input or configuration (text that is not UTF-8
included), 3 for degenerate or exploding models, 4 for I/O failures.

Each subcommand imports only the layers it runs. ``evaluate`` loads this
module, ``errors``, ``values``, ``fileio``, ``graph`` and ``metrics``, and
from the standard library ``argparse``, ``json``, ``hashlib`` (which
``fileio`` imports only to hash a file) and ``numbers``: no numpy, and no
``dataclasses`` or ``inspect``, since the package's record types are not
dataclasses. A process enters through ``run``, which ends it once stdout
and stderr are flushed, skipping teardown.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time
import warnings
from typing import TYPE_CHECKING

from .errors import (
    DegenerateModelError,
    InvalidInputError,
    SimulationExplosionError,
    UnsupportedKernelError,
)
from .fileio import (
    load_graph_json,
    read_json,
    save_graph_json,
    sha256_file,
    write_json,
    write_manifest,
)
from .metrics import alpha_mae, structure_metrics
from .values import as_number

if TYPE_CHECKING:
    from .em import EmConfig
    from .simulate import SimConfig

__all__ = ["main", "run", "build_parser", "pipeline"]

DEFAULT_MAX_HOPS = 2
DEFAULT_DELTA = 1.0
DEFAULT_BIN_WIDTH = 1.0


def _deferred(module: str, name: str):
    """``hawkesnet.<module>.<name>``, imported on its first call.

    Each subcommand thus loads only the layers it runs, and the name stays an
    attribute of this module that the commands look up when they call it.
    """

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)

    return call


generate_benchmark = _deferred("simulate", "generate_benchmark")
load_events_csv = _deferred("events", "load_events_csv")
save_events_csv = _deferred("events", "save_events_csv")
discretize = _deferred("events", "discretize")
build_features = _deferred("features", "build_features")
hill_climb = _deferred("search", "hill_climb")
save_edge_list = _deferred("topology", "save_edge_list")


def _load_config(path: str | None) -> dict:
    return {} if path is None else read_json(path)


def _known(section: dict, name: str, keys) -> dict:
    """``section``, unless it holds a key outside ``keys``."""
    unknown = set(section).difference(keys)
    if unknown:
        raise InvalidInputError(f"unknown {name} config keys {sorted(unknown)}")
    return section


def _section(config: dict, name: str, keys=None) -> dict:
    """Section ``name`` with the top-level seed merged in; checked against ``keys`` if given."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise InvalidInputError(f"config section {name!r} must be an object")
    merged = dict(section)
    if "seed" in config and "seed" not in merged:
        merged["seed"] = config["seed"]
    return merged if keys is None else _known(merged, name, {*keys, "seed"})


def _pick(args_value, section: dict, key: str, default, kind):
    """Flag beats config file beats default, read as ``kind``; a null is unset."""
    value = args_value if args_value is not None else section.get(key)
    if value is None:
        value = default
    if value is None:
        return None
    if kind in (int, float):
        return as_number(value, f"config key {key!r}", integer=kind is int)
    if not isinstance(value, kind):  # bool("false") is True
        raise InvalidInputError(f"config key {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _em_config(section: dict) -> EmConfig:
    from .em import EmConfig

    em = section.get("em", {})
    if not isinstance(em, dict):
        raise InvalidInputError("config key 'em' must be an object")
    _known(em, "em", ("max_iterations", "rel_tolerance"))
    return EmConfig(
        max_iterations=_pick(None, em, "max_iterations", 100, int),
        rel_tolerance=_pick(None, em, "rel_tolerance", 1e-6, float),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkesnet",
        description="Simulate, fit, and score networked Hawkes event data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, out_required: bool,
               seed_help: str = "random seed (default 0)") -> None:
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, help=seed_help)
        p.add_argument(
            "--out",
            metavar="DIR",
            required=out_required,
            help="output directory",
        )

    sim = sub.add_parser("simulate", help="generate a benchmark dataset")
    common(sim, out_required=True)
    sim.add_argument("--k", type=int, help="propagation hop order")
    sim.add_argument("--delta", type=float, help="exponential kernel decay rate")
    sim.add_argument("--dt", type=float, help="bin width")
    sim.add_argument("--nodes", type=int, help="node count")
    sim.add_argument("--types", type=int, help="event type count")
    sim.add_argument("--target-events", type=int, help="stop after this many events")

    learn = sub.add_parser("learn", help="fit a causal graph to event data")
    common(learn, out_required=True,
           seed_help="recorded in the outputs; the fit does not depend on it (default 0)")
    learn.add_argument("--events", metavar="PATH", help="event CSV file")
    learn.add_argument("--topology", metavar="PATH", help="topology edge list file")
    learn.add_argument("--nodes", type=int, help="node count override")
    learn.add_argument("--types", type=int, help="event type count override")
    learn.add_argument("--k", type=int, help="propagation hop order (default 2)")
    learn.add_argument(
        "--k-sweep",
        action="store_true",
        default=None,
        help="try every hop order 0..k and keep the best score",
    )
    learn.add_argument("--delta", type=float, help="exponential kernel decay rate")
    learn.add_argument("--dt", type=float, help="bin width")
    learn.add_argument("--horizon-end", type=float, help="observation window end")
    learn.add_argument(
        "--no-topology",
        action="store_true",
        default=None,
        help="ignore propagation: hop order forced to 0",
    )
    cycles = learn.add_mutually_exclusive_group()
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
    learn.add_argument("--trace", metavar="PATH", help="write a JSONL search trace")

    ev = sub.add_parser("evaluate", help="compare a learned graph to a truth graph")
    ev.add_argument("--config", metavar="PATH", help="JSON config file")
    ev.add_argument("--predicted", metavar="PATH", help="learned graph JSON")
    ev.add_argument("--truth", metavar="PATH", help="ground truth graph JSON")
    ev.add_argument("--out", metavar="DIR", help="directory for report.json")

    bench = sub.add_parser(
        "benchmark", help="simulate+learn+evaluate over a batch of seeds"
    )
    common(bench, out_required=False)
    bench.add_argument("--runs", type=int, help="number of seeds (default 5)")
    bench.add_argument("--k", type=int, help="propagation hop order")
    bench.add_argument("--delta", type=float, help="exponential kernel decay rate")
    bench.add_argument("--dt", type=float, help="bin width")
    bench.add_argument("--nodes", type=int, help="node count")
    bench.add_argument("--types", type=int, help="event type count")
    bench.add_argument("--target-events", type=int, help="events per dataset")
    return parser


def _sim_config(args, section: dict) -> SimConfig:
    from .simulate import SimConfig

    data = dict(section)
    overrides = {
        "seed": args.seed,
        "max_hops": args.k,
        "bin_width": args.dt,
        "node_count": args.nodes,
        "type_count": args.types,
        "target_event_count": getattr(args, "target_events", None),
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    if args.delta is not None:
        data["kernel"] = {"type": "exponential", "delta": args.delta}
    data.setdefault("kernel", {"type": "exponential", "delta": DEFAULT_DELTA})
    return SimConfig.from_dict(data)


def _generate(sim_config: SimConfig):
    """``generate_benchmark(sim_config)``, each warning it raises printed as one line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = generate_benchmark(sim_config)
    for caught_warning in caught:  # without the source path and line Python's format adds
        print(f"warning: {caught_warning.message}", file=sys.stderr)
    return data


def cmd_simulate(args) -> int:
    from .kernels import ExponentialKernel

    section = _section(_load_config(args.config), "simulate")
    sim_config = _sim_config(args, section)
    data = _generate(sim_config)
    out = _ensure_out(args.out)
    config_echo = sim_config.to_dict()

    save_events_csv(os.path.join(out, "events.csv"), data.records)
    save_edge_list(os.path.join(out, "topology.txt"), data.topology)
    save_graph_json(
        os.path.join(out, "ground_truth.json"),
        data.causal_graph,
        data.params,
        delta=(
            sim_config.kernel.decay
            if isinstance(sim_config.kernel, ExponentialKernel)
            else None
        ),
        bin_width=sim_config.bin_width,
        node_count=sim_config.node_count,
        seed=sim_config.seed,
        config=config_echo,
    )
    write_manifest(
        out,
        "simulate",
        sim_config.seed,
        config_echo,
        ["events.csv", "topology.txt", "ground_truth.json"],
    )
    print(
        f"simulated {data.event_count} events over {data.horizon_bins} bins "
        f"(seed {sim_config.seed}) -> {out}"
    )
    return 0


def pipeline(dataset, topology, kernel, hop_orders, *, em_config=None, allow_cycles=True,
             progress=None):
    """Features at the largest of ``hop_orders``, then one ``hill_climb`` per distinct order.

    Each search runs on ``cache.truncated(order)``. Returns the cache, the
    results keyed by hop order (in the order given) and the wall seconds of
    the feature build and of the searches.
    """
    from .em import EmConfig

    results = dict.fromkeys(hop_orders)
    started = time.monotonic()
    cache = build_features(dataset, topology, kernel, max(results))
    features_s = time.monotonic() - started
    started = time.monotonic()
    for hops in results:
        results[hops] = hill_climb(cache.truncated(hops), em_config=em_config or EmConfig(),
                                   allow_cycles=allow_cycles, progress=progress)
    return cache, results, features_s, time.monotonic() - started


def _learn_inputs(args, section: dict):
    events_path = _pick(args.events, section, "events", None, str)
    if events_path is None:
        raise InvalidInputError("learn needs an event file (--events or config)")
    topology_path = _pick(args.topology, section, "topology", None, str)
    no_topology = _pick(args.no_topology, section, "no_topology", False, bool)
    if topology_path is None and not no_topology:
        raise InvalidInputError(
            "learn needs a topology file unless --no-topology is set"
        )
    return events_path, topology_path, no_topology


def cmd_learn(args) -> int:
    from .kernels import ExponentialKernel
    from .topology import build_topology, load_edge_list

    section = _section(_load_config(args.config), "learn", (
        "events", "topology", "no_topology", "k", "k_sweep", "delta", "dt", "allow_cycles",
        "horizon_end", "nodes", "types", "em"))
    events_path, topology_path, no_topology = _learn_inputs(args, section)

    seed = _pick(args.seed, section, "seed", 0, int)
    max_hops = _pick(args.k, section, "k", DEFAULT_MAX_HOPS, int)
    delta = _pick(args.delta, section, "delta", DEFAULT_DELTA, float)
    bin_width = _pick(args.dt, section, "dt", DEFAULT_BIN_WIDTH, float)
    allow_cycles = _pick(args.allow_cycles, section, "allow_cycles", True, bool)
    k_sweep = _pick(args.k_sweep, section, "k_sweep", False, bool)
    horizon_end = _pick(args.horizon_end, section, "horizon_end", None, float)
    node_count = _pick(args.nodes, section, "nodes", None, int)
    type_count = _pick(args.types, section, "types", None, int)
    em_config = _em_config(section)
    if max_hops < 0:
        raise InvalidInputError("--k must be >= 0")
    if seed < 0:
        raise InvalidInputError("--seed must be >= 0")
    if no_topology:
        max_hops = 0

    started = time.monotonic()
    records = load_events_csv(events_path)
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
    dataset = discretize(
        records,
        bin_width,
        float(horizon_end),
        node_count=node_count,
        type_count=type_count,
    )
    ingest_elapsed += time.monotonic() - started

    cache, results, features_elapsed, elapsed = pipeline(
        dataset, topology, ExponentialKernel(delta),
        range(max_hops + 1) if k_sweep else [max_hops],
        em_config=em_config,
        allow_cycles=allow_cycles,
        progress=lambda line: print(line, file=sys.stderr),
    )
    best_hops = max(results, key=lambda hops: results[hops].score)  # the lowest on a tie
    best = results[best_hops]
    fits, maps, screened, nonconverged = map(sum, zip(*(
        (r.fit_evaluations, r.em_maps, r.screened_moves, r.nonconverged_fits)
        for r in results.values())))

    if args.trace:  # first, so a bad path leaves no learned graph behind
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(entry, sort_keys=True) + "\n" for entry in best.trace)
    out = _ensure_out(args.out)
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
    save_graph_json(
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
    write_json(
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
    print(f"features took {features_elapsed:.2f}s cells={cache.cell_count}", file=sys.stderr)
    print(f"search took {elapsed:.2f}s fits={fits} maps={maps} screened={screened} "
          f"nonconverged={nonconverged}", file=sys.stderr)
    unconverged = ", ".join(str(f.event_type) for f in best.type_fits if not f.converged)
    if unconverged:
        print(f"warning: EM did not converge within {em_config.max_iterations} "
              f"iterations for types {unconverged}", file=sys.stderr)
    print(
        f"learned {best.graph.edge_count} edges in {best.rounds} rounds, "
        f"score {best.score:.6f} -> {out}"
    )
    return 0


def cmd_evaluate(args) -> int:
    section = _section(_load_config(args.config), "evaluate", ("predicted", "truth"))
    predicted_path = _pick(args.predicted, section, "predicted", None, str)
    truth_path = _pick(args.truth, section, "truth", None, str)
    if predicted_path is None or truth_path is None:
        raise InvalidInputError("evaluate needs --predicted and --truth")
    predicted = load_graph_json(predicted_path)
    truth = load_graph_json(truth_path)
    report = structure_metrics(predicted.graph, truth.graph)
    mae = None
    if (
        predicted.params is not None
        and truth.params is not None
        and predicted.params.max_hops == truth.params.max_hops
        and predicted.params.type_count == truth.params.type_count
    ):
        mae = alpha_mae(predicted.params, truth.params)

    summary = (
        f"precision={report.precision:.4f} recall={report.recall:.4f} "
        f"f1={report.f1:.4f}"
    )
    if mae is not None:
        summary += f" alpha_mae={mae:.6f}"
    print(summary)

    if args.out:
        out = _ensure_out(args.out)
        write_json(
            os.path.join(out, "report.json"),
            {
                "format_version": 1,
                "true_positives": report.true_positives,
                "false_positives": report.false_positives,
                "false_negatives": report.false_negatives,
                "precision": report.precision,
                "recall": report.recall,
                "f1": report.f1,
                "alpha_mae": mae,
                "inputs": {
                    "predicted": f"sha256:{sha256_file(predicted_path)}",
                    "truth": f"sha256:{sha256_file(truth_path)}",
                },
            },
        )
    return 0


def cmd_benchmark(args) -> int:
    import numpy as np

    from .kernels import ExponentialKernel
    from .simulate import SimConfig

    section = _section(_load_config(args.config), "benchmark", ("runs", "em", *SimConfig.__slots__))
    runs = _pick(args.runs, section, "runs", 5, int)
    if runs < 1:
        raise InvalidInputError("--runs must be >= 1")
    em_config = _em_config(section)
    base = _sim_config(args, {k: v for k, v in section.items() if k not in
                              ("runs", "em", "seed")})
    base_seed = _pick(args.seed, section, "seed", 0, int)
    delta = base.kernel.decay if isinstance(base.kernel, ExponentialKernel) else DEFAULT_DELTA

    rows: dict[str, list] = {"full": [], "no_topology": []}
    for offset in range(runs):
        seed = base_seed + offset
        config = SimConfig.from_dict({**base.to_dict(), "seed": seed})
        data = _generate(config)
        _, results, _, _ = pipeline(data.dataset(), data.topology, ExponentialKernel(delta),
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
        out = _ensure_out(args.out)
        write_json(
            os.path.join(out, "benchmark.json"),
            {
                "format_version": 1,
                "seed": base_seed,
                "config": base.to_dict(),
                "results": summary,
            },
        )
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "learn": cmd_learn,
    "evaluate": cmd_evaluate,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InvalidInputError, UnsupportedKernelError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateModelError, SimulationExplosionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def run(argv=None):
    """``main``, then flush stdout and stderr (exit 4 if that fails) and end at once.

    Freeing every module at exit costs tens of ms and saves no output: every
    file is written inside a ``with`` block and nothing registers ``atexit``.
    """
    code = main(argv)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = 4
    os._exit(code)


if __name__ == "__main__":
    run()
