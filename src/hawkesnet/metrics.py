"""Structure-recovery and parameter-recovery metrics."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidInputError
from .graph import CausalGraph, ThpParams

__all__ = ["StructureReport", "structure_metrics", "alpha_mae"]


class StructureReport(NamedTuple):
    """Directed-edge precision/recall/F1 plus raw counts."""

    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float


def _edge_set(graph) -> set:
    edges = graph.edges if isinstance(graph, CausalGraph) else graph
    return {(int(a), int(b)) for a, b in edges}


def structure_metrics(predicted, truth) -> StructureReport:
    """Compare directed edge sets.

    Edges count only when direction matches. Empty prediction against a
    nonempty truth scores 0 precision; two empty sets count as an exact
    recovery (P = R = F1 = 1).
    """
    pred = _edge_set(predicted)
    true = _edge_set(truth)
    tp = len(pred & true)
    fp = len(pred - true)
    fn = len(true - pred)
    if pred:
        precision = tp / len(pred)
    else:
        precision = 1.0 if not true else 0.0
    if true:
        recall = tp / len(true)
    else:
        recall = 1.0 if not pred else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return StructureReport(
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def alpha_mae(estimated: ThpParams, truth: ThpParams) -> float:
    """Mean absolute error of the excitation weights.

    Sums ``|alpha_est - alpha_true|`` over every ordered type pair and hop
    (absent edges contribute their counterpart's magnitude) and divides by
    ``max_hops * type_count**2``. Note the normalizer uses ``max_hops``
    although the hop sum has ``max_hops + 1`` terms; at ``max_hops = 0`` the
    divisor falls back to ``type_count**2``. The sum runs over the edges of
    either graph and is correctly rounded, so edge order does not matter.
    """
    if estimated.type_count != truth.type_count:
        raise InvalidInputError(
            f"type counts differ: {estimated.type_count} vs {truth.type_count}"
        )
    if estimated.max_hops != truth.max_hops:
        raise InvalidInputError(
            f"max_hops differ: {estimated.max_hops} vs {truth.max_hops}"
        )
    absent = (0.0,) * (truth.max_hops + 1)
    diff = math.fsum(
        abs(a - b)
        for edge in estimated.alpha.keys() | truth.alpha.keys()
        for a, b in zip(estimated.alpha.get(edge, absent), truth.alpha.get(edge, absent))
    )
    hops_factor = truth.max_hops if truth.max_hops > 0 else 1
    return diff / (hops_factor * truth.type_count**2)
