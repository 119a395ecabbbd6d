"""Edge precision/recall/F1 and excitation-weight error."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hawkesnet.errors import InvalidInputError
from hawkesnet.graph import CausalGraph, ThpParams
from hawkesnet.metrics import alpha_mae, structure_metrics

from .helpers import alpha_tensor


def test_partial_recovery_worked_example():
    report = structure_metrics({(0, 1)}, {(0, 1), (1, 2)})
    assert report.precision == 1.0
    assert report.recall == 0.5
    assert report.f1 == pytest.approx(2 / 3, rel=1e-12)
    assert (report.true_positives, report.false_positives, report.false_negatives) == (
        1, 0, 1,
    )


def test_direction_matters():
    report = structure_metrics({(1, 0)}, {(0, 1)})
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0


def test_empty_cases():
    empty_pred = structure_metrics(set(), {(0, 1)})
    assert (empty_pred.precision, empty_pred.recall, empty_pred.f1) == (0.0, 0.0, 0.0)
    empty_truth = structure_metrics({(0, 1)}, set())
    assert (empty_truth.precision, empty_truth.recall, empty_truth.f1) == (0.0, 0.0, 0.0)
    both = structure_metrics(set(), set())
    assert (both.precision, both.recall, both.f1) == (1.0, 1.0, 1.0)


def test_exact_recovery():
    edges = {(0, 1), (2, 2), (1, 0)}
    report = structure_metrics(edges, set(edges))
    assert report.f1 == 1.0


def test_accepts_graphs_and_edge_iterables():
    g1 = CausalGraph(3, [(0, 1), (1, 2)])
    report = structure_metrics(g1, [(0, 1)])
    assert report.precision == 0.5
    assert report.recall == 1.0
    mixed = structure_metrics([(0, 1), (1, 2)], g1)
    assert mixed.f1 == 1.0


edge_sets = st.sets(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12
)


@given(edge_sets, edge_sets)
def test_metrics_bounds_and_counts(pred, true):
    report = structure_metrics(pred, true)
    assert 0.0 <= report.precision <= 1.0
    assert 0.0 <= report.recall <= 1.0
    assert 0.0 <= report.f1 <= 1.0
    assert report.true_positives == len(pred & true)
    assert report.true_positives + report.false_positives == len(pred)
    assert report.true_positives + report.false_negatives == len(true)
    if report.precision + report.recall > 0:
        expected = (
            2 * report.precision * report.recall / (report.precision + report.recall)
        )
        assert report.f1 == pytest.approx(expected, rel=1e-12)
    # symmetry: swapping prediction and truth swaps precision and recall
    swapped = structure_metrics(true, pred)
    assert swapped.precision == report.recall
    assert swapped.recall == report.precision


def test_alpha_mae_single_discrepancy():
    truth = ThpParams(
        mu=np.zeros(2), alpha={(0, 1): np.array([0.05, 0.03])}, max_hops=1
    )
    est = ThpParams(
        mu=np.zeros(2), alpha={(0, 1): np.array([0.06, 0.03])}, max_hops=1
    )
    assert alpha_mae(est, truth) == pytest.approx(0.01 / 4, rel=1e-12)


def test_alpha_mae_counts_missing_and_spurious_edges():
    truth = ThpParams(
        mu=np.zeros(2), alpha={(0, 1): np.array([0.05, 0.05])}, max_hops=1
    )
    est = ThpParams(
        mu=np.zeros(2), alpha={(1, 0): np.array([0.02, 0.0])}, max_hops=1
    )
    # |0-0.05|*2 (missing) + |0.02-0| (spurious) over 1*4
    assert alpha_mae(est, truth) == pytest.approx(0.12 / 4, rel=1e-12)


def test_alpha_mae_zero_hop_normalizer():
    truth = ThpParams(mu=np.zeros(3), alpha={(0, 1): np.array([0.3])}, max_hops=0)
    est = ThpParams(mu=np.zeros(3), alpha={}, max_hops=0)
    assert alpha_mae(est, truth) == pytest.approx(0.3 / 9, rel=1e-12)


def test_alpha_mae_identical_params_is_zero():
    params = ThpParams(
        mu=np.zeros(2), alpha={(0, 0): np.array([0.1, 0.2, 0.3])}, max_hops=2
    )
    assert alpha_mae(params, params) == 0.0


@pytest.mark.parametrize("seed", range(25))
def test_alpha_mae_matches_the_dense_formula_in_any_edge_order(seed):
    rng = np.random.default_rng(seed)
    types, hops = int(rng.integers(1, 6)), int(rng.integers(0, 3))

    def draw():
        edges = [(c, v) for c in range(types) for v in range(types) if rng.random() < 0.6]
        return {edge: rng.uniform(0.0, 0.2, size=hops + 1) for edge in edges}

    est_alpha, true_alpha = draw(), draw()
    est, truth = (ThpParams(np.zeros(types), alpha, hops) for alpha in (est_alpha, true_alpha))
    # the dense formula alpha_mae implemented before it summed over edges
    want = np.abs(alpha_tensor(est) - alpha_tensor(truth)).sum() / (max(hops, 1) * types**2)
    assert alpha_mae(est, truth) == pytest.approx(want, rel=1e-15, abs=0.0)

    def shuffled(alpha):
        edges = list(alpha)
        return ThpParams(np.zeros(types), {edges[i]: alpha[edges[i]]
                                           for i in rng.permutation(len(edges))}, hops)

    assert alpha_mae(shuffled(est_alpha), shuffled(true_alpha)) == alpha_mae(est, truth)


def test_alpha_mae_dimension_mismatch():
    a = ThpParams(mu=np.zeros(2), alpha={}, max_hops=1)
    b = ThpParams(mu=np.zeros(3), alpha={}, max_hops=1)
    c = ThpParams(mu=np.zeros(2), alpha={}, max_hops=2)
    with pytest.raises(InvalidInputError):
        alpha_mae(a, b)
    with pytest.raises(InvalidInputError):
        alpha_mae(a, c)
