"""Simulator: random instances, Poisson statistics, agreement in distribution
with the dense per-bin oracle, long horizons, explosion guard."""

from __future__ import annotations

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from hawkesnet.errors import (
    InvalidInputError,
    SimulationExplosionError,
    UnderGenerationWarning,
)
from hawkesnet.events import discretize
from hawkesnet.graph import CausalGraph, ThpParams
from hawkesnet.kernels import ExponentialKernel, GaussianKernel, UniformKernel, evaluate
import hawkesnet.simulate as simulate_module
from hawkesnet.simulate import (
    BenchmarkData,
    SimConfig,
    _window_weights,
    draw_params,
    generate_benchmark,
    random_causal_graph,
    random_topology,
    simulate,
)
from hawkesnet.topology import build_topology

from .helpers import alpha_tensor, dataset_to_dense, param_arrays
from .oracles import has_cycle, oracle_sweep

RNG = np.random.default_rng


def test_random_topology_shape_and_determinism():
    a = random_topology(12, 2.0, seed=5)
    b = random_topology(12, 2.0, seed=5)
    assert a.edges == b.edges
    assert a.node_count == 12
    assert a == b
    c = random_topology(12, 2.0, seed=6)
    assert a.edges != c.edges


def test_random_topology_degree_statistics():
    degrees = []
    for seed in range(300):
        topo = random_topology(20, 3.0, seed=seed)
        degrees.append(2 * len(topo.edges) / 20)
    # mean degree 3.0, standard error ~0.03
    assert abs(np.mean(degrees) - 3.0) < 0.15


def test_random_topology_clamps_to_complete():
    topo = random_topology(6, 100.0, seed=0)
    assert len(topo.edges) == 15
    single = random_topology(1, 5.0, seed=0)
    assert single.edges == frozenset()


def test_random_causal_graph_is_dag():
    for seed in range(200):
        g = random_causal_graph(8, 1.5, seed=seed)
        assert not has_cycle(g)
        assert all(a != b for a, b in g.edges)


def test_random_causal_graph_indegree_statistics():
    counts = [len(random_causal_graph(20, 1.5, seed=s).edges) for s in range(300)]
    # expected edges = avg_indegree * type_count = 30, se ~0.29
    assert abs(np.mean(counts) - 30.0) < 1.3


def test_random_causal_graph_clamps():
    g = random_causal_graph(3, 100.0, seed=1)
    assert len(g.edges) == 3  # complete DAG on 3 nodes
    assert random_causal_graph(1, 1.5, seed=0).edges == frozenset()


def test_draw_params_ranges_and_keys():
    g = random_causal_graph(6, 1.5, seed=3)
    params = draw_params(g, 2, (1e-4, 2e-4), (0.03, 0.05), seed=4)
    params.validate_for(g)
    mu, alpha = param_arrays(params)
    assert mu.shape == (6,)
    assert np.all((mu >= 1e-4) & (mu <= 2e-4))
    for arr in alpha.values():
        assert arr.shape == (3,)
        assert np.all((arr >= 0.03) & (arr <= 0.05))


def test_window_weights_match_kernel_on_lag_grid():
    for kernel, dt in (
        (ExponentialKernel(0.7), 0.5),
        (GaussianKernel(10.0, 4.0), 1.0),
        (UniformKernel(2.0, 1.0), 0.5),
    ):
        weights = _window_weights(kernel, dt)
        lags = dt * np.arange(1, weights.shape[0] + 1)
        np.testing.assert_allclose(weights, evaluate(kernel, lags), atol=1e-15)
        # nothing meaningful beyond the trimmed horizon
        if weights.shape[0] > 1:
            assert weights[-1] > 0 or weights.shape[0] == 1
        tail = evaluate(kernel, dt * (weights.shape[0] + 1))
        assert tail <= 1e-15 or tail > 0  # exponential tails just get tiny
    uniform = _window_weights(UniformKernel(2.0, 1.0), 0.5)
    np.testing.assert_allclose(uniform, [0.0, 0.0, 0.0, 0.0, 1.0], atol=1e-15)


def _fixed_point_setup():
    topo = build_topology(3, [(0, 1), (1, 2)])
    graph = CausalGraph(2, [(0, 0), (0, 1)])
    params = ThpParams(
        mu=np.array([0.10, 0.05]),
        alpha={
            (0, 0): np.array([0.10, 0.05]),
            (0, 1): np.array([0.20, 0.10]),
        },
        max_hops=1,
    )
    return topo, graph, params


def test_poisson_sweep_matches_stationary_rates():
    # expected per-bin counts solve x = mu*dt + c * W x with c = r/(1-r)
    topo, graph, params = _fixed_point_setup()
    decay, dt, bins = 0.5, 1.0, 20_000
    kernel = ExponentialKernel(decay)
    powers = topo.hop_matrices(1)
    tensor = alpha_tensor(params)
    n_nodes, n_types = 3, 2
    operator = np.einsum("sdk,knm->dmsn", tensor, powers).reshape(
        n_types * n_nodes, n_types * n_nodes
    ) * dt
    mu_dt = np.repeat(params.mu, n_nodes) * dt
    r = math.exp(-decay * dt)
    c = r / (1.0 - r)
    expected = np.linalg.solve(np.eye(6) - c * operator, mu_dt)

    records = simulate(graph, topo, params, kernel, dt, 123, max_bins=bins)[0]
    ds = discretize(
        records, dt, bins * dt, node_count=n_nodes, type_count=n_types
    )
    dense = dataset_to_dense(ds)  # (nodes, types, bins)
    empirical = dense.mean(axis=2).T.reshape(-1)  # flatten as (type, node)
    np.testing.assert_allclose(empirical, expected, rtol=0.12)
    assert abs(dense.sum() - expected.sum() * bins) / (expected.sum() * bins) < 0.05


def test_pure_background_is_poisson():
    graph = CausalGraph(2)
    topo = build_topology(4, [(0, 1), (2, 3)])
    mu = np.array([0.02, 0.04])
    params = ThpParams(mu=mu, alpha={}, max_hops=0)
    bins = 30_000
    records = simulate(graph, topo, params, ExponentialKernel(1.0), 1.0, 9, max_bins=bins)[0]
    expected = mu.sum() * 4 * bins
    assert abs(len(records) - expected) <= 3.0 * math.sqrt(expected)


def test_simulation_is_deterministic():
    topo, graph, params = _fixed_point_setup()
    kernel = ExponentialKernel(0.5)
    a = simulate(graph, topo, params, kernel, 1.0, 42, max_bins=500)[0]
    b = simulate(graph, topo, params, kernel, 1.0, 42, max_bins=500)[0]
    assert np.array_equal(a, b)
    c = simulate(graph, topo, params, kernel, 1.0, 43, max_bins=500)[0]
    assert not np.array_equal(a, c)


def test_timestamps_sit_at_bin_centers():
    topo, graph, params = _fixed_point_setup()
    dt = 0.25
    records = simulate(graph, topo, params, ExponentialKernel(0.5), dt, 7, max_bins=400)[0]
    assert len(records)
    stamps = np.array([r.timestamp for r in records])
    assert np.all(stamps < 400 * dt)
    frac = (stamps / dt) % 1.0
    np.testing.assert_allclose(frac, 0.5, atol=1e-9)
    # emitted bin by bin: nondecreasing in time
    assert np.all(np.diff(stamps) >= 0)


def test_explosion_guard_trips():
    topo = build_topology(2, [(0, 1)])
    graph = CausalGraph(1, [(0, 0)])
    params = ThpParams(
        mu=np.array([1.0]), alpha={(0, 0): np.array([3.0])}, max_hops=0
    )
    with pytest.raises(SimulationExplosionError) as exc:
        simulate(
            graph, topo, params, ExponentialKernel(1.0), 1.0, 0, max_bins=1000, explosion_guard=100.0
        )
    assert exc.value.guard == 100.0
    assert exc.value.expected_count > 100.0
    assert 0 < exc.value.bin_index < 1000


def test_zero_rates_produce_no_events():
    topo = build_topology(2, [])
    graph = CausalGraph(1)
    params = ThpParams(mu=np.array([0.0]), alpha={}, max_hops=0)
    assert len(simulate(graph, topo, params, ExponentialKernel(1.0), 1.0, 0, max_bins=100)[0]) == 0
    assert len(simulate(graph, topo, params, ExponentialKernel(1.0), 1.0, 0, max_bins=0)[0]) == 0


@pytest.mark.parametrize("stop_at_count", [None, 5])
def test_simulate_validates_inputs(stop_at_count):
    topo, graph, params = _fixed_point_setup()
    bad = ThpParams(mu=np.array([0.1, 0.1]), alpha={}, max_hops=1)
    kernel = ExponentialKernel(1.0)
    for args, options in (
        ((bad, kernel, 1.0), {}),
        ((params, kernel, -1.0), {}),
        ((params, kernel, 1.0), {"max_bins": -1}),
        ((params, kernel, 1.0), {"explosion_guard": 0.0}),
        # one event's ~1e19 expected children, which numpy's Poisson draw refuses
        ((params, ExponentialKernel(1e-20), 1.0), {}),
    ):
        with pytest.raises(InvalidInputError):
            simulate(graph, topo, *args, 0, **{"max_bins": 10, "stop_at_count": stop_at_count, **options})


def test_uniform_kernel_ring_buffer_path():
    # same-shape run through the windowed path; alpha=0 degenerates to Poisson
    topo = build_topology(2, [(0, 1)])
    graph = CausalGraph(1, [(0, 0)])
    params = ThpParams(
        mu=np.array([0.05]), alpha={(0, 0): np.array([0.0, 0.0])}, max_hops=1
    )
    dt, bins = 0.5, 20_000
    kernel = UniformKernel(2.0, 1.0)  # weight lands on the lag-2.5 bin only
    records = simulate(graph, topo, params, kernel, dt, 3, max_bins=bins)[0]
    expected = 0.05 * 2 * dt * bins
    assert abs(len(records) - expected) <= 3.0 * math.sqrt(expected)
    # with excitation on, the rate amplifies well above background
    excited = ThpParams(
        mu=np.array([0.05]), alpha={(0, 0): np.array([0.6, 0.2])}, max_hops=1
    )
    more = simulate(graph, topo, excited, kernel, dt, 3, max_bins=bins)[0]
    assert len(more) > len(records) * 1.3


def test_gaussian_kernel_sweep_runs():
    topo = build_topology(3, [(0, 1), (1, 2)])
    graph = CausalGraph(2, [(0, 1)])
    params = ThpParams(
        mu=np.array([0.02, 0.01]),
        alpha={(0, 1): np.array([0.2, 0.2])},
        max_hops=1,
    )
    records = simulate(graph, topo, params, GaussianKernel(10.0, 4.0), 1.0, 11, max_bins=5000)[0]
    assert len(records)
    a = simulate(graph, topo, params, GaussianKernel(10.0, 4.0), 1.0, 11, max_bins=5000)[0]
    assert np.array_equal(a, records)


def test_generate_benchmark_reaches_target():
    config = SimConfig(
        node_count=8,
        avg_topology_degree=1.5,
        type_count=4,
        causal_avg_indegree=1.0,
        target_event_count=2000,
        mu_range=(5e-4, 1e-3),
        alpha_range=(0.03, 0.05),
        kernel=ExponentialKernel(0.5),
        max_hops=1,
        bin_width=1.0,
        seed=10,
    )
    data = generate_benchmark(config)
    assert isinstance(data, BenchmarkData)
    assert data.event_count >= 2000
    assert data.topology.node_count == 8
    assert data.causal_graph.type_count == 4
    data.params.validate_for(data.causal_graph)
    last_stamp = max(r.timestamp for r in data.records)
    assert last_stamp <= data.horizon_bins * config.bin_width
    again = generate_benchmark(config)
    assert np.array_equal(again.records, data.records)
    assert again.causal_graph.edges == data.causal_graph.edges
    other = generate_benchmark(SimConfig(**{**config.to_dict(), "seed": 11} | {"kernel": config.kernel}))
    assert not np.array_equal(other.records, data.records)


def test_generate_benchmark_bin_cap_warns():
    config = SimConfig(
        node_count=2,
        avg_topology_degree=1.0,
        type_count=2,
        causal_avg_indegree=0.0,
        target_event_count=10_000,
        mu_range=(1e-3, 1e-3),
        alpha_range=(0.0, 0.0),
        kernel=ExponentialKernel(1.0),
        max_hops=0,
        bin_width=1.0,
        seed=0,
        max_bins=500,
    )
    with pytest.warns(UnderGenerationWarning):
        data = generate_benchmark(config)
    assert data.horizon_bins == 500
    assert data.event_count < 10_000


def test_sim_config_round_trip_and_validation():
    config = SimConfig(seed=3, kernel=GaussianKernel(9.0, 2.0))
    rebuilt = SimConfig.from_dict(config.to_dict())
    assert rebuilt == config
    with pytest.raises(InvalidInputError):
        SimConfig.from_dict({"bogus": 1})
    with pytest.raises(InvalidInputError):
        SimConfig(node_count=0)
    with pytest.raises(InvalidInputError):
        SimConfig(mu_range=(2.0, 1.0))
    with pytest.raises(InvalidInputError):
        SimConfig(bin_width=0.0)
    # 1/expm1(delta * dt) overflows, or delta * dt underflows to 0
    for delta, dt in ((1e-310, 1.0), (1e-300, 1e-30)):
        with pytest.raises(InvalidInputError, match="infinite"):
            SimConfig(kernel=ExponentialKernel(delta), bin_width=dt)
    with pytest.raises(InvalidInputError):
        SimConfig(seed=-1)
    with pytest.raises(InvalidInputError):
        SimConfig(max_bins=0)


# Agreement in distribution with the dense per-bin sweep. Both sides run
# RUNS independent simulations of one small excited instance; totals,
# per-type totals and the number of event pairs 1..LAGS bins apart (which
# sees where the kernel puts its excitation) are compared with two-sample KS
# tests, and the pooled per-cell occupancy {0, 1, >= 2} with a chi-squared
# contingency test.
RUNS = 150
LEVEL = 1e-3
LAGS = 8


def _excited_setup():
    topo = build_topology(3, [(0, 1), (1, 2)])
    graph = CausalGraph(2, [(0, 0), (0, 1), (1, 0)])
    params = ThpParams(
        mu=np.array([0.04, 0.02]),
        alpha={
            (0, 0): np.array([0.15, 0.05]),
            (0, 1): np.array([0.20, 0.10]),
            (1, 0): np.array([0.10, 0.05]),
        },
        max_hops=1,
    )
    return topo, graph, params


def _cell_counts(records, n_types, n_nodes, bins, dt):
    counts = np.zeros((n_types, n_nodes, bins), dtype=int)
    for rec in records:
        counts[rec.event_type, rec.node, int(rec.timestamp // dt)] += 1
    return counts


def _run_both(kernel, dt, bins, stop_at_count=None):
    topo, graph, params = _excited_setup()
    sides = []
    for draw in (simulate, oracle_sweep):
        runs = []
        for i in range(RUNS):
            runs.append(
                draw(
                    graph, topo, params, kernel, dt, RNG((2024, i, draw is oracle_sweep)),
                    max_bins=bins, stop_at_count=stop_at_count, explosion_guard=1e6,
                )
            )
        sides.append(runs)
    return sides


def _assert_same_distribution(kernel, dt, bins):
    n_types, n_nodes = 2, 3
    summaries = []
    for runs in _run_both(kernel, dt, bins):
        counts = np.stack(
            [_cell_counts(records, n_types, n_nodes, bins, dt) for records, _ in runs]
        )
        flat = counts.ravel()
        per_bin = counts.sum(axis=(1, 2))
        summaries.append(
            {
                "total": counts.sum(axis=(1, 2, 3)),
                "per_type": counts.sum(axis=(2, 3)),
                "pairs": np.stack(
                    [(per_bin[:, :-lag] * per_bin[:, lag:]).sum(axis=1) for lag in range(1, LAGS + 1)],
                    axis=1,
                ),
                "occupancy": [(flat == 0).sum(), (flat == 1).sum(), (flat >= 2).sum()],
            }
        )
    new, dense = summaries
    assert new["total"].mean() > 50  # the instance is not trivially empty
    assert stats.ks_2samp(new["total"], dense["total"]).pvalue > LEVEL
    for v in range(n_types):
        assert stats.ks_2samp(new["per_type"][:, v], dense["per_type"][:, v]).pvalue > LEVEL
    for lag in range(LAGS):
        assert stats.ks_2samp(new["pairs"][:, lag], dense["pairs"][:, lag]).pvalue > LEVEL
    table = np.array([new["occupancy"], dense["occupancy"]])
    assert table[:, 2].min() > 20  # the >= 2 category is populated
    assert stats.chi2_contingency(table).pvalue > LEVEL


def test_exponential_matches_dense_oracle_in_distribution():
    _assert_same_distribution(ExponentialKernel(0.5), 1.0, 600)


def test_gaussian_matches_dense_oracle_in_distribution():
    _assert_same_distribution(GaussianKernel(3.0, 1.0), 1.0, 600)


def test_uniform_matches_dense_oracle_in_distribution():
    _assert_same_distribution(UniformKernel(1.5, 2.0), 0.5, 1200)


def test_stop_at_count_horizon_matches_dense_oracle():
    new, dense = _run_both(ExponentialKernel(0.5), 1.0, 5000, stop_at_count=40)
    for runs in (new, dense):
        assert all(len(records) >= 40 for records, _ in runs)
    bins_new = [bins for _, bins in new]
    bins_dense = [bins for _, bins in dense]
    assert stats.ks_2samp(bins_new, bins_dense).pvalue > LEVEL
    last_new = [records[-1].timestamp for records, _ in new]
    # the run stops right after the bin that reaches the target
    np.testing.assert_allclose(np.array(last_new) + 0.5, bins_new)


@pytest.mark.parametrize("decay, alpha", [(1e-6, 4e-7), (50.0, 0.5), (710.0, 0.5)])
def test_long_horizon_is_numerically_safe(decay, alpha):
    # 1e7 bins: r = exp(-decay) is within 1e-6 of 1, or r^j underflows to 0,
    # or past 709.78 expm1(decay) overflows and the kernel's mass is exp(-decay)
    topo = build_topology(2, [(0, 1)])
    graph = CausalGraph(2, [(0, 0), (0, 1)])
    params = ThpParams(
        mu=np.array([1e-5, 1e-5]),
        alpha={
            (0, 0): np.array([alpha, alpha / 2]),
            (0, 1): np.array([alpha, alpha / 2]),
        },
        max_hops=1,
    )
    bins = 10_000_000
    started = time.perf_counter()
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        records = simulate(graph, topo, params, ExponentialKernel(decay), 1.0, 5, max_bins=bins)[0]
    elapsed = time.perf_counter() - started
    stamps = np.array([r.timestamp for r in records])
    assert np.isfinite(stamps).all()
    assert stamps.min() > 0 and stamps.max() < bins
    background = 2 * 2 * 1e-5 * bins
    # excitation only adds to the Poisson(400) background
    assert len(records) >= background - 5 * math.sqrt(background)
    if decay >= 50.0:  # r <= e^-50: excitation is negligible
        assert len(records) <= background + 5 * math.sqrt(background)
    assert elapsed < 10.0


@pytest.mark.parametrize(
    "kernel, lag",
    [(ExponentialKernel(1.0), 1), (UniformKernel(0.5, 1.0), 1), (UniformKernel(4.5, 1.0), 5)],
)
def test_explosion_guard_reports_first_breaching_bin(kernel, lag):
    # mu*dt = 50, so bin 0 is empty with probability e^-50; each of its
    # events adds 10 * kernel(lag) to the expected count `lag` bins later
    topo = build_topology(1, [])
    graph = CausalGraph(1, [(0, 0)])
    params = ThpParams(mu=np.array([50.0]), alpha={(0, 0): np.array([10.0])}, max_hops=0)
    step = 10.0 * evaluate(kernel, float(lag))
    for guard, expected in ((50.0 + 0.5 * step, lag), (40.0, 0)):
        for draw in (simulate, oracle_sweep):
            with pytest.raises(SimulationExplosionError) as exc:
                draw(
                    graph, topo, params, kernel, 1.0, RNG(0),
                    max_bins=100, stop_at_count=None, explosion_guard=guard,
                )
            assert exc.value.bin_index == expected
            assert exc.value.expected_count > guard


def test_stop_at_count_extends_short_horizons_like_the_dense_oracle(monkeypatch):
    # a budget of one event holds each block to ceil(1 / 0.18) = 6 bins at a
    # background of 0.18 events per bin, so a run of more than 12 bins has
    # extended its horizon at least twice, carrying children past each old end
    monkeypatch.setattr(simulate_module, "_BUDGET", 1)
    new, dense = _run_both(ExponentialKernel(0.5), 1.0, 5000, stop_at_count=40)
    assert min(bins for _, bins in new) > 12
    for runs in (new, dense):
        assert all(len(records) >= 40 for records, _ in runs)
    for stat in (lambda run: run[1], lambda run: len(run[0])):  # bins run, event totals
        assert stats.ks_2samp([stat(r) for r in new], [stat(r) for r in dense]).pvalue > LEVEL


def test_blocks_cut_by_the_budget_match_dense_oracle_in_distribution(monkeypatch):
    # a budget of 4 children ends nearly every block early, after its first
    # generations, and draws children four at a time
    monkeypatch.setattr(simulate_module, "_BUDGET", 4)
    _assert_same_distribution(ExponentialKernel(0.5), 1.0, 600)


@given(
    seed=st.integers(0, 2**32 - 1),
    dt=st.sampled_from([0.1, 0.3, 1.0, 7.3]),
    kernel=st.sampled_from([ExponentialKernel(0.5), GaussianKernel(3.0, 1.0), UniformKernel(1.5, 2.0)]),
    bins=st.integers(1, 400),
)
def test_rows_come_out_sorted_at_bin_centers_and_rebin_to_the_drawn_counts(seed, dt, kernel, bins):
    topo, graph, params = _excited_setup()
    joins = []

    def recording(*parts):
        joins.append(join(*parts))
        return joins[-1]

    join = simulate_module._join
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate_module, "_join", recording)
        records, _ = simulate(
            graph, topo, params, kernel, dt, RNG(seed),
            max_bins=bins, stop_at_count=None, explosion_guard=1e6,
        )
    keys, counts = joins[-1]  # the drawn (bin * cells + node * T + type, count) rows
    cells = 3 * 2
    order = np.lexsort((records.event_type, records.node, records.timestamp))
    assert np.array_equal(order, np.arange(len(records)))
    bin_of = np.repeat(keys // cells, counts)
    np.testing.assert_array_equal(records.timestamp, (bin_of + 0.5) * dt)
    ds = discretize(records, dt, bins * dt, node_count=3, type_count=2)
    drawn = np.zeros((3, 2, bins), dtype=int)
    np.add.at(drawn, ((keys % cells) // 2, keys % 2, keys // cells), counts)
    rebinned = np.zeros_like(drawn)
    rebinned[ds.nodes, ds.types, ds.bins] = ds.counts
    assert np.array_equal(rebinned, drawn)


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_topology_simulates_in_little_memory():
    # 400 nodes, 20 types: a dense (T*N)^2 one-event spread matrix alone takes 512 MB
    topo = random_topology(400, 1.5, seed=1)
    graph = random_causal_graph(20, 1.5, seed=2)
    params = draw_params(graph, 2, (5e-4, 1e-3), (0.03, 0.05), seed=3)
    drawn = []
    peak = _peak_bytes(
        lambda: drawn.append(simulate(graph, topo, params, ExponentialKernel(1.0), 1.0, 4, max_bins=300)[0])
    )
    assert len(drawn[0]) > 1000
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "config",
    [
        # the CLI's exit-3 config: one causal edge with ~6 children per event
        SimConfig(
            node_count=2, type_count=2, target_event_count=100_000, mu_range=(2.0, 2.0),
            alpha_range=(10.0, 10.0), causal_avg_indegree=1.0, avg_topology_degree=1.0,
            kernel=ExponentialKernel(1.0), max_hops=0, bin_width=1.0, seed=0, explosion_guard=5.0,
        ),
        # a self-excited type (1.75 children per event) run up to the default guard
        SimConfig(
            node_count=2, type_count=1, target_event_count=10**9, mu_range=(1.0, 1.0),
            alpha_range=(3.0, 3.0), avg_topology_degree=1.0, kernel=ExponentialKernel(1.0),
            max_hops=0, bin_width=1.0, seed=0,
        ),
    ],
)
def test_supercritical_configs_raise_in_little_memory(config, monkeypatch):
    if config.type_count == 1:  # random_causal_graph draws no self-loops
        monkeypatch.setattr(
            simulate_module, "random_causal_graph", lambda *args: CausalGraph(1, [(0, 0)])
        )

    def run():
        with pytest.raises(SimulationExplosionError):
            generate_benchmark(config)

    assert _peak_bytes(run) < 64 * 2**20
