"""Intensity, Poisson log-likelihood, the gradient the EM map implies, and BIC.

Every likelihood here is the production per-type path: ``type_batch`` and
``batch_log_likelihood``, through the helpers in :mod:`tests.helpers`.
"""

from __future__ import annotations

import math
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesnet import likelihood
from hawkesnet.em import EmConfig, fit_type
from hawkesnet.errors import InvalidInputError
from hawkesnet.events import discretize
from hawkesnet.features import build_features
from hawkesnet.graph import CausalGraph, ThpParams
from hawkesnet.kernels import ExponentialKernel
from hawkesnet.likelihood import (
    batch_log_likelihood,
    bic_penalty,
    type_batch,
)
from hawkesnet.topology import build_topology

from .helpers import (
    alpha_tensor,
    dense_to_dataset,
    em_gradient,
    finite_difference,
    fit,
    log_likelihood,
    param_arrays,
    random_instance,
    rows_to_table,
    type_cell_coords,
    type_intensities,
    type_point,
    with_edge,
    with_reversed,
    without_edge,
)
from .oracles import has_cycle, oracle_intensity, oracle_log_likelihood

RNG = np.random.default_rng


def _two_node_setup():
    topo = build_topology(2, [(0, 1)])
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
    # type 1's one event sits at node 1, bin 1
    (lam,) = type_intensities(params, graph, cache, 1)
    assert lam == pytest.approx(0.04489171, abs=1e-6)
    assert lam == pytest.approx(1e-4 + 0.05 * math.exp(-0.11), rel=1e-12)
    # type 0 has no parents: the base rate
    np.testing.assert_array_equal(type_intensities(params, graph, cache, 0), [1e-4])


def test_intensities_for_type_vectorizes_single_cells():
    inst = random_instance(RNG(41), max_nodes=4, max_types=3, max_bins=12, min_events=5)
    cache, params = inst.cache, inst.params
    hops = cache.max_hops + 1
    for v in range(inst.graph.type_count):
        lam = type_intensities(params, inst.graph, cache, v)
        assert lam.shape == cache.type_counts[v].shape
        for i, got in enumerate(lam):
            want = params.mu[v] + sum(
                params.alpha[(c, v)] @ cache.type_values[v][c * hops : (c + 1) * hops, i]
                for c in inst.graph.parents(v)
            )
            assert got == pytest.approx(want, rel=1e-12)


def test_alpha_zero_reduces_to_background():
    rng = RNG(11)
    inst = random_instance(rng, max_nodes=3, max_types=3, max_bins=10, min_events=3)
    zeros = {e: np.zeros(inst.max_hops + 1) for e in inst.graph.edges}
    params = ThpParams(mu=inst.params.mu, alpha=zeros, max_hops=inst.max_hops)
    for v in range(inst.graph.type_count):
        lam = type_intensities(params, inst.graph, inst.cache, v)
        np.testing.assert_allclose(lam, inst.params.mu[v], rtol=1e-15)
    base = CausalGraph(inst.graph.type_count)
    bare = ThpParams(mu=inst.params.mu, alpha={}, max_hops=inst.max_hops)
    assert log_likelihood(params, inst.graph, inst.cache) == pytest.approx(
        log_likelihood(bare, base, inst.cache), rel=1e-12
    )


def test_empty_dataset_closed_form():
    ds = discretize(rows_to_table([]), 1.0, 50.0, node_count=3, type_count=2)
    topo = build_topology(3, [(0, 1)])
    cache = build_features(ds, topo, ExponentialKernel(1.0), 1)
    graph = CausalGraph(2, [(0, 1)])
    params = ThpParams(
        mu=np.array([0.3, 0.7]),
        alpha={(0, 1): np.array([0.1, 0.1])},
        max_hops=1,
    )
    expected = -1.0 * 3 * 50 * (0.3 + 0.7)
    assert log_likelihood(params, graph, cache) == pytest.approx(
        expected, rel=1e-12
    )


def test_pure_poisson_closed_form():
    # no edges: each cell is Poisson(mu*dt), likelihood has a textbook form
    rng = RNG(5)
    dense = rng.poisson(0.6, size=(1, 1, 40))
    dt = 0.5
    ds = dense_to_dataset(dense, dt)
    topo = build_topology(1, [])
    cache = build_features(ds, topo, ExponentialKernel(1.0), 0)
    graph = CausalGraph(1)
    mu = 1.2
    params = ThpParams(mu=np.array([mu]), alpha={}, max_hops=0)
    expected = -mu * dt * 40 + dense.sum() * math.log(mu)
    assert log_likelihood(params, graph, cache) == pytest.approx(
        expected, rel=1e-12
    )


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10_000))
def test_log_likelihood_matches_loop_oracle(seed):
    rng = RNG(seed)
    inst = random_instance(rng, max_nodes=4, max_types=3, max_bins=15, min_events=2)
    got = log_likelihood(inst.params, inst.graph, inst.cache)
    want = oracle_log_likelihood(
        inst.dense,
        inst.topology.hop_matrices(1)[1],
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
    for v in range(inst.graph.type_count):
        lam = type_intensities(inst.params, inst.graph, cache, v)
        for got, node, t in zip(lam, *type_cell_coords(inst.dataset, v), strict=True):
            want = oracle_intensity(
                inst.dense,
                inst.topology.hop_matrices(1)[1],
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
    # a fit's per-type shares are the production shares at its parameters
    rng = RNG(21)
    inst = random_instance(rng, max_nodes=4, max_types=3, max_bins=20, min_events=4)
    result = fit(inst.graph, inst.cache, EmConfig(max_iterations=20))
    shares = []
    for type_fit in result.type_fits:
        batch, mu, alpha = type_point(result.params, inst.graph, inst.cache, type_fit.event_type)
        shares.append(float(batch_log_likelihood(mu, alpha, batch, [0])[1][0]))
        assert shares[-1] == type_fit.log_lik
    assert log_likelihood(result.params, inst.graph, inst.cache) == sum(shares)
    assert result.log_lik == pytest.approx(sum(shares), rel=1e-12)


def test_zero_intensity_on_occupied_cell_is_neg_inf():
    dense = np.zeros((1, 1, 3), dtype=int)
    dense[0, 0, 1] = 2
    ds = dense_to_dataset(dense, 1.0)
    topo = build_topology(1, [])
    cache = build_features(ds, topo, ExponentialKernel(1.0), 0)
    graph = CausalGraph(1)
    params = ThpParams(mu=np.array([0.0]), alpha={}, max_hops=0)
    assert log_likelihood(params, graph, cache) == float("-inf")
    batch, mu, alpha = type_point(params, graph, cache, 0)
    with np.errstate(divide="ignore"):
        lam, share, _ = batch_log_likelihood(mu, alpha, batch, [0])
    np.testing.assert_array_equal(lam[0], [0.0])
    assert share[0] == float("-inf")


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
    topo = build_topology(2, [(0, 1)])
    cache = build_features(ds, topo, ExponentialKernel(0.5), 1)
    edged = CausalGraph(types, [(0, 1)])
    without = CausalGraph(types)
    mu = rng.uniform(0.2, 0.6, size=types)
    p_with = ThpParams(mu=mu, alpha={(0, 1): np.zeros(2)}, max_hops=1)
    p_without = ThpParams(mu=mu, alpha={}, max_hops=1)
    assert log_likelihood(p_with, edged, cache) == pytest.approx(
        log_likelihood(p_without, without, cache), rel=1e-12
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
    (mu_a, alpha_a), (mu_b, alpha_b) = param_arrays(a), param_arrays(b)
    mid = ThpParams(
        mu=(mu_a + mu_b) / 2,
        alpha={e: (alpha_a[e] + alpha_b[e]) / 2 for e in inst.graph.edges},
        max_hops=inst.max_hops,
    )
    la = log_likelihood(a, inst.graph, inst.cache)
    lb = log_likelihood(b, inst.graph, inst.cache)
    lm = log_likelihood(mid, inst.graph, inst.cache)
    assert lm >= (la + lb) / 2 - 1e-9 * (1 + abs(la) + abs(lb))


def test_gradient_matches_finite_differences():
    for seed in (0, 1, 2):
        rng = RNG(seed)
        inst = random_instance(
            rng, max_nodes=3, max_types=3, max_bins=15, min_events=4
        )
        gm, ga = em_gradient(inst.params, inst.graph, inst.cache)
        fm, fa = finite_difference(inst.params, inst.graph, inst.cache)
        scale = np.maximum(1.0, np.maximum(np.abs(gm), np.abs(fm)))
        np.testing.assert_array_less(np.abs(gm - fm) / scale, 1e-5)
        for edge in inst.graph.edges:
            s = np.maximum(1.0, np.maximum(np.abs(ga[edge]), np.abs(fa[edge])))
            np.testing.assert_array_less(np.abs(ga[edge] - fa[edge]) / s, 1e-5)


def test_bic_penalty_worked_examples():
    # 20 types, max_hops = 2 alpha values charged per edge, 20,000 events
    assert bic_penalty(20, 0, 2, 20_000) == pytest.approx(
        20 * math.log(20_000) / 2, rel=1e-12
    )
    assert bic_penalty(20, 0, 2, 20_000) == pytest.approx(99.0348755, abs=1e-6)
    delta = bic_penalty(20, 1, 2, 20_000) - bic_penalty(20, 0, 2, 20_000)
    assert delta == pytest.approx(2 * math.log(20_000) / 2, rel=1e-12)
    assert delta == pytest.approx(9.9034876, abs=1e-6)


def test_bic_penalty_conventions():
    # 3 types, 2 edges
    # no events: no penalty
    assert bic_penalty(3, 2, 2, 0) == 0.0
    # the per-edge count is a parameter: max_hops + 1 charges every alpha value
    strict = bic_penalty(3, 2, 3, 1000)
    assert strict == pytest.approx((3 + 3 * 2) * math.log(1000) / 2, rel=1e-12)
    # at max_hops = 0 the conventional count ignores edges entirely
    assert bic_penalty(3, 2, 0, 1000) == bic_penalty(3, 0, 0, 1000)
    with pytest.raises(InvalidInputError):
        bic_penalty(3, 2, 2, -1)


def test_causal_graph_operations():
    g = CausalGraph(3, [(0, 1), (2, 2)])
    assert g.edge_count == 2
    assert g.parents(1) == (0,)
    assert g.parents(2) == (2,)
    assert g.parents(0) == ()
    assert with_edge(g, (1, 2)).edges == frozenset({(0, 1), (2, 2), (1, 2)})
    assert without_edge(g, (2, 2)).edges == frozenset({(0, 1)})
    assert with_reversed(g, (0, 1)).edges == frozenset({(1, 0), (2, 2)})
    with pytest.raises(InvalidInputError):
        with_reversed(g, (1, 0))
    with pytest.raises(InvalidInputError):
        CausalGraph(2, [(0, 5)])
    with pytest.raises(InvalidInputError):
        CausalGraph(0)


def test_cycle_detection():
    assert not has_cycle(CausalGraph(3, [(0, 1), (1, 2)]))
    assert has_cycle(CausalGraph(3, [(0, 1), (1, 0)]))
    assert has_cycle(CausalGraph(3, [(1, 1)]))
    assert has_cycle(CausalGraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)]))
    assert not has_cycle(CausalGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    assert not has_cycle(CausalGraph(1))


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
    tensor = alpha_tensor(params)
    assert tensor.shape == (2, 2, 1)
    assert tensor[0, 1, 0] == 0.3
    assert tensor.sum() == pytest.approx(0.3)


def test_mismatched_cache_dimensions_raise():
    # a graph over other types than the cache's, or a type id outside them
    ds, cache, graph, params = _two_node_setup()
    with pytest.raises(InvalidInputError):
        fit(CausalGraph(3, [(0, 1)]), cache)
    with pytest.raises(InvalidInputError):
        fit(CausalGraph(1), cache)
    for bad in (-1, cache.type_count):
        with pytest.raises(InvalidInputError):
            fit_type(0, [bad], cache)
        with pytest.raises(InvalidInputError):
            fit_type(bad, [0], cache)
        with pytest.raises(InvalidInputError):
            type_batch(cache, 1, [(0,), (bad,)])


def test_every_public_name_has_a_caller_in_the_package():
    # a public name only tests call is a second path for the oracles to
    # certify instead of the code that runs; names in docstrings and
    # comments do not count
    package = Path(likelihood.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "likelihood.py":
            with path.open("rb") as source:
                used.update(tok.string for tok in tokenize.tokenize(source.readline)
                            if tok.type == tokenize.NAME)
    assert [name for name in likelihood.__all__ if name not in used] == []
