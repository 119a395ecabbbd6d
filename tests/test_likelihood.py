"""Intensity, Poisson log-likelihood, analytic gradient, and BIC."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesnet.errors import DegenerateModelError, InvalidInputError
from hawkesnet.events import discretize
from hawkesnet.features import build_features
from hawkesnet.kernels import ExponentialKernel
from hawkesnet.likelihood import (
    CausalGraph,
    ThpParams,
    analytic_gradient,
    bic_penalty,
    bic_score,
    intensities_for_type,
    intensity,
    log_likelihood,
    per_type_log_likelihood,
)
from hawkesnet.topology import build_topology

from .helpers import dense_to_dataset, random_instance, rows_to_table
from .oracles import oracle_intensity, oracle_log_likelihood

RNG = np.random.default_rng


def _two_node_setup():
    topo = build_topology(2, [(0, 1)], max_hops=1)
    records = rows_to_table([(0, 0, 0.5), (1, 1, 1.5)])
    ds = discretize(records, 1.0, 2.0, node_count=2, type_count=2)
    cache = build_features(ds, topo, ExponentialKernel(0.11), 1)
    graph = CausalGraph(2, [(0, 1)])
    params = ThpParams(
        mu=np.array([1e-4, 1e-4]),
        alpha={(0, 1): np.array([0.0, 0.05])},
        max_hops=1,
    )
    return ds, cache, graph, params


def test_intensity_worked_example():
    ds, cache, graph, params = _two_node_setup()
    lam = intensity(params, graph, cache, node=1, event_type=1, time_bin=1)
    assert lam == pytest.approx(0.04489171, abs=1e-6)
    assert lam == pytest.approx(1e-4 + 0.05 * math.exp(-0.11), rel=1e-12)
    # type 0 has no parents: base rate everywhere, cached cell or not
    assert intensity(params, graph, cache, 0, 0, 1) == pytest.approx(1e-4)


def test_intensities_for_type_vectorizes_single_cells():
    ds, cache, graph, params = _two_node_setup()
    lam, counts = intensities_for_type(params, graph, cache, 1)
    assert lam.shape == counts.shape == (1,)
    assert lam[0] == pytest.approx(
        intensity(params, graph, cache, 1, 1, 1), rel=1e-15
    )
    np.testing.assert_array_equal(counts, [1.0])


def test_uncached_cell_with_parents_raises():
    ds, cache, graph, params = _two_node_setup()
    with pytest.raises(InvalidInputError):
        intensity(params, graph, cache, node=0, event_type=1, time_bin=1)


def test_alpha_zero_reduces_to_background():
    rng = RNG(11)
    inst = random_instance(rng, max_nodes=3, max_types=3, max_bins=10, min_events=3)
    zeros = {e: np.zeros(inst.max_hops + 1) for e in inst.graph.edges}
    params = ThpParams(mu=inst.params.mu, alpha=zeros, max_hops=inst.max_hops)
    for v in range(inst.graph.type_count):
        lam, _ = intensities_for_type(params, inst.graph, inst.cache, v)
        np.testing.assert_allclose(lam, inst.params.mu[v], rtol=1e-15)
    base = CausalGraph(inst.graph.type_count)
    bare = ThpParams(mu=inst.params.mu, alpha={}, max_hops=inst.max_hops)
    assert log_likelihood(params, inst.graph, inst.cache, inst.dataset) == \
        pytest.approx(
            log_likelihood(bare, base, inst.cache, inst.dataset), rel=1e-12
        )


def test_empty_dataset_closed_form():
    ds = discretize(rows_to_table([]), 1.0, 50.0, node_count=3, type_count=2)
    topo = build_topology(3, [(0, 1)], max_hops=1)
    cache = build_features(ds, topo, ExponentialKernel(1.0), 1)
    graph = CausalGraph(2, [(0, 1)])
    params = ThpParams(
        mu=np.array([0.3, 0.7]),
        alpha={(0, 1): np.array([0.1, 0.1])},
        max_hops=1,
    )
    expected = -1.0 * 3 * 50 * (0.3 + 0.7)
    assert log_likelihood(params, graph, cache, ds) == pytest.approx(
        expected, rel=1e-12
    )


def test_pure_poisson_closed_form():
    # no edges: each cell is Poisson(mu*dt), likelihood has a textbook form
    rng = RNG(5)
    dense = rng.poisson(0.6, size=(1, 1, 40))
    dt = 0.5
    ds = dense_to_dataset(dense, dt)
    topo = build_topology(1, [], max_hops=0)
    cache = build_features(ds, topo, ExponentialKernel(1.0), 0)
    graph = CausalGraph(1)
    mu = 1.2
    params = ThpParams(mu=np.array([mu]), alpha={}, max_hops=0)
    expected = -mu * dt * 40 + dense.sum() * math.log(mu)
    assert log_likelihood(params, graph, cache, ds) == pytest.approx(
        expected, rel=1e-12
    )


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10_000))
def test_log_likelihood_matches_loop_oracle(seed):
    rng = RNG(seed)
    inst = random_instance(rng, max_nodes=4, max_types=3, max_bins=15, min_events=2)
    got = log_likelihood(inst.params, inst.graph, inst.cache, inst.dataset)
    want = oracle_log_likelihood(
        inst.dense,
        inst.topology.propagation,
        sorted(inst.graph.edges),
        inst.params.mu,
        inst.params.alpha,
        inst.max_hops,
        inst.bin_width,
        inst.decay,
    )
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_intensity_matches_loop_oracle(seed):
    rng = RNG(seed)
    inst = random_instance(rng, max_nodes=4, max_types=2, max_bins=10, min_events=2)
    cache = inst.cache
    for i in range(cache.cell_count):
        node, t = int(cache.cell_nodes[i]), int(cache.cell_bins[i])
        for v in range(inst.graph.type_count):
            got = intensity(inst.params, inst.graph, cache, node, v, t)
            want = oracle_intensity(
                inst.dense,
                inst.topology.propagation,
                sorted(inst.graph.edges),
                inst.params.mu,
                inst.params.alpha,
                inst.max_hops,
                inst.bin_width,
                inst.decay,
                node,
                v,
                t,
            )
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_per_type_contributions_sum_to_total():
    rng = RNG(21)
    inst = random_instance(rng, max_nodes=4, max_types=3, max_bins=20, min_events=4)
    total = log_likelihood(inst.params, inst.graph, inst.cache, inst.dataset)
    parts = sum(
        per_type_log_likelihood(inst.params, inst.graph, inst.cache, v)
        for v in range(inst.graph.type_count)
    )
    assert total == pytest.approx(parts, rel=1e-12)


def test_zero_intensity_on_occupied_cell_is_neg_inf():
    dense = np.zeros((1, 1, 3), dtype=int)
    dense[0, 0, 1] = 2
    ds = dense_to_dataset(dense, 1.0)
    topo = build_topology(1, [], max_hops=0)
    cache = build_features(ds, topo, ExponentialKernel(1.0), 0)
    graph = CausalGraph(1)
    params = ThpParams(mu=np.array([0.0]), alpha={}, max_hops=0)
    assert log_likelihood(params, graph, cache, ds) == float("-inf")
    assert per_type_log_likelihood(params, graph, cache, 0) == float("-inf")


def test_edge_with_zero_alpha_equals_no_edge():
    rng = RNG(31)
    inst = random_instance(
        rng, max_nodes=3, max_types=3, max_bins=15, min_events=3, edge_prob=0.0
    )
    types = inst.graph.type_count
    if types < 2:
        types = 2
    dense = rng.poisson(0.4, size=(2, types, 12))
    ds = dense_to_dataset(dense, 1.0)
    topo = build_topology(2, [(0, 1)], max_hops=1)
    cache = build_features(ds, topo, ExponentialKernel(0.5), 1)
    with_edge = CausalGraph(types, [(0, 1)])
    without = CausalGraph(types)
    mu = rng.uniform(0.2, 0.6, size=types)
    p_with = ThpParams(mu=mu, alpha={(0, 1): np.zeros(2)}, max_hops=1)
    p_without = ThpParams(mu=mu, alpha={}, max_hops=1)
    assert log_likelihood(p_with, with_edge, cache, ds) == pytest.approx(
        log_likelihood(p_without, without, cache, ds), rel=1e-12
    )


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_concavity_along_segments(seed):
    # the log-likelihood is concave in (mu, alpha); midpoints dominate
    rng = RNG(seed)
    inst = random_instance(rng, max_nodes=3, max_types=2, max_bins=12, min_events=3)

    def draw():
        mu = rng.uniform(0.05, 0.8, size=inst.graph.type_count)
        alpha = {
            e: rng.uniform(0.01, 0.3, size=inst.max_hops + 1)
            for e in inst.graph.edges
        }
        return ThpParams(mu=mu, alpha=alpha, max_hops=inst.max_hops)

    a, b = draw(), draw()
    mid = ThpParams(
        mu=(a.mu + b.mu) / 2,
        alpha={e: (a.alpha[e] + b.alpha[e]) / 2 for e in inst.graph.edges},
        max_hops=inst.max_hops,
    )
    la = log_likelihood(a, inst.graph, inst.cache, inst.dataset)
    lb = log_likelihood(b, inst.graph, inst.cache, inst.dataset)
    lm = log_likelihood(mid, inst.graph, inst.cache, inst.dataset)
    assert lm >= (la + lb) / 2 - 1e-9 * (1 + abs(la) + abs(lb))


def _finite_difference(params, graph, cache, dataset, rel_step=1e-6):
    grad_mu = np.zeros_like(params.mu)
    for v in range(params.type_count):
        h = rel_step * max(params.mu[v], 1e-3)
        up = params.mu.copy()
        up[v] += h
        down = params.mu.copy()
        down[v] -= h
        lu = log_likelihood(
            ThpParams(up, params.alpha, params.max_hops), graph, cache, dataset
        )
        ld = log_likelihood(
            ThpParams(down, params.alpha, params.max_hops), graph, cache, dataset
        )
        grad_mu[v] = (lu - ld) / (2 * h)
    grad_alpha = {}
    for edge in params.alpha:
        vec = np.zeros(params.max_hops + 1)
        for k in range(params.max_hops + 1):
            h = rel_step * max(params.alpha[edge][k], 1e-3)
            up = {e: a.copy() for e, a in params.alpha.items()}
            up[edge][k] += h
            down = {e: a.copy() for e, a in params.alpha.items()}
            down[edge][k] -= h
            lu = log_likelihood(
                ThpParams(params.mu, up, params.max_hops), graph, cache, dataset
            )
            ld = log_likelihood(
                ThpParams(params.mu, down, params.max_hops), graph, cache, dataset
            )
            vec[k] = (lu - ld) / (2 * h)
        grad_alpha[edge] = vec
    return grad_mu, grad_alpha


def test_gradient_matches_finite_differences():
    for seed in (0, 1, 2):
        rng = RNG(seed)
        inst = random_instance(
            rng, max_nodes=3, max_types=3, max_bins=15, min_events=4
        )
        gm, ga = analytic_gradient(inst.params, inst.graph, inst.cache)
        fm, fa = _finite_difference(
            inst.params, inst.graph, inst.cache, inst.dataset
        )
        scale = np.maximum(1.0, np.maximum(np.abs(gm), np.abs(fm)))
        np.testing.assert_array_less(np.abs(gm - fm) / scale, 1e-5)
        for edge in inst.graph.edges:
            s = np.maximum(1.0, np.maximum(np.abs(ga[edge]), np.abs(fa[edge])))
            np.testing.assert_array_less(np.abs(ga[edge] - fa[edge]) / s, 1e-5)


def test_gradient_rejects_degenerate_params():
    dense = np.zeros((1, 1, 3), dtype=int)
    dense[0, 0, 1] = 1
    ds = dense_to_dataset(dense, 1.0)
    topo = build_topology(1, [], max_hops=0)
    cache = build_features(ds, topo, ExponentialKernel(1.0), 0)
    params = ThpParams(mu=np.array([0.0]), alpha={}, max_hops=0)
    with pytest.raises(DegenerateModelError):
        analytic_gradient(params, CausalGraph(1), cache)


def test_bic_penalty_worked_examples():
    empty = CausalGraph(20)
    assert bic_penalty(empty, 2, 20_000) == pytest.approx(
        20 * math.log(20_000) / 2, rel=1e-12
    )
    assert bic_penalty(empty, 2, 20_000) == pytest.approx(99.0348755, abs=1e-6)
    one_edge = CausalGraph(20, [(0, 1)])
    delta = bic_penalty(one_edge, 2, 20_000) - bic_penalty(empty, 2, 20_000)
    assert delta == pytest.approx(2 * math.log(20_000) / 2, rel=1e-12)
    assert delta == pytest.approx(9.9034876, abs=1e-6)


def test_bic_penalty_conventions():
    g = CausalGraph(3, [(0, 1), (1, 2)])
    # no events: no penalty
    assert bic_penalty(g, 2, 0) == 0.0
    # the hop-count convention is overridable
    strict = bic_penalty(g, 2, 1000, alpha_per_edge=3)
    assert strict == pytest.approx((3 + 3 * 2) * math.log(1000) / 2, rel=1e-12)
    # at max_hops=0 the default penalty ignores edges entirely
    assert bic_penalty(g, 0, 1000) == bic_penalty(CausalGraph(3), 0, 1000)
    with pytest.raises(InvalidInputError):
        bic_penalty(g, 2, -1)


def test_bic_score_is_penalized_likelihood():
    g = CausalGraph(4, [(0, 1)])
    assert bic_score(-120.0, g, 2, 500) == pytest.approx(
        -120.0 - bic_penalty(g, 2, 500), rel=1e-15
    )


def test_causal_graph_operations():
    g = CausalGraph(3, [(0, 1), (2, 2)])
    assert g.edge_count == 2
    assert g.parents(1) == (0,)
    assert g.parents(2) == (2,)
    assert g.parents(0) == ()
    assert g.with_edge((1, 2)).edges == frozenset({(0, 1), (2, 2), (1, 2)})
    assert g.without_edge((2, 2)).edges == frozenset({(0, 1)})
    assert g.with_reversed((0, 1)).edges == frozenset({(1, 0), (2, 2)})
    with pytest.raises(InvalidInputError):
        g.with_reversed((1, 0))
    with pytest.raises(InvalidInputError):
        CausalGraph(2, [(0, 5)])
    with pytest.raises(InvalidInputError):
        CausalGraph(0)


def test_cycle_detection():
    assert not CausalGraph(3, [(0, 1), (1, 2)]).has_cycle()
    assert CausalGraph(3, [(0, 1), (1, 0)]).has_cycle()
    assert CausalGraph(3, [(1, 1)]).has_cycle()
    assert CausalGraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)]).has_cycle()
    assert not CausalGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).has_cycle()
    assert not CausalGraph(1).has_cycle()


def test_params_validation():
    with pytest.raises(InvalidInputError):
        ThpParams(mu=np.array([-0.1]), alpha={}, max_hops=0)
    with pytest.raises(InvalidInputError):
        ThpParams(mu=np.array([[0.1]]), alpha={}, max_hops=0)
    with pytest.raises(InvalidInputError):
        ThpParams(mu=np.array([0.1]), alpha={(0, 0): np.array([0.1, 0.2])}, max_hops=0)
    with pytest.raises(InvalidInputError):
        ThpParams(
            mu=np.array([0.1]), alpha={(0, 0): np.array([-0.5])}, max_hops=0
        )
    params = ThpParams(
        mu=np.array([0.1, 0.2]), alpha={(0, 1): np.array([0.3])}, max_hops=0
    )
    with pytest.raises(InvalidInputError):
        params.validate_for(CausalGraph(2))
    with pytest.raises(InvalidInputError):
        params.validate_for(CausalGraph(3, [(0, 1)]))
    tensor = params.alpha_tensor()
    assert tensor.shape == (2, 2, 1)
    assert tensor[0, 1, 0] == 0.3
    assert tensor.sum() == pytest.approx(0.3)


def test_mismatched_cache_dimensions_raise():
    ds, cache, graph, params = _two_node_setup()
    wrong_hops = ThpParams(
        mu=params.mu, alpha={(0, 1): np.array([0.0, 0.05, 0.0])}, max_hops=2
    )
    with pytest.raises(InvalidInputError):
        log_likelihood(wrong_hops, graph, cache, ds)
    other_ds = discretize(rows_to_table([]), 1.0, 5.0, node_count=2, type_count=2)
    with pytest.raises(InvalidInputError):
        log_likelihood(params, graph, cache, other_ds)
