"""``hawkesnet evaluate``: compare a learned graph to a truth graph."""

from __future__ import annotations

import os

from . import cli
from .cli import config_section, ensure_out, pick
from .errors import InvalidInputError
from .fileio import load_graph_json, sha256_file
from .metrics import alpha_mae, structure_metrics


def add_arguments(parser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--predicted", metavar="PATH", help="learned graph JSON")
    parser.add_argument("--truth", metavar="PATH", help="ground truth graph JSON")
    parser.add_argument("--out", metavar="DIR", help="directory for report.json")


def main(args) -> int:
    section = config_section(args.config, "evaluate", ("predicted", "truth"))
    predicted_path = pick(args.predicted, section, "predicted", None, str)
    truth_path = pick(args.truth, section, "truth", None, str)
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
        out = ensure_out(args.out)
        cli.write_json(
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
