"""Structure-recovery and parameter-recovery metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .likelihood import CausalGraph, ThpParams

__all__ = ["StructureReport", "structure_metrics", "alpha_mae"]


@dataclass(frozen=True)
class StructureReport:
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
    divisor falls back to ``type_count**2``.
    """
    if estimated.type_count != truth.type_count:
        raise InvalidInputError(
            f"type counts differ: {estimated.type_count} vs {truth.type_count}"
        )
    if estimated.max_hops != truth.max_hops:
        raise InvalidInputError(
            f"max_hops differ: {estimated.max_hops} vs {truth.max_hops}"
        )
    diff = np.abs(estimated.alpha_tensor() - truth.alpha_tensor()).sum()
    hops_factor = truth.max_hops if truth.max_hops > 0 else 1
    return float(diff / (hops_factor * truth.type_count**2))
