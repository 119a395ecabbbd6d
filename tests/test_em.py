"""EM fitting: the production map, closed-form updates, SQUAREM convergence."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hawkesnet.em as em_mod
from hawkesnet.em import (
    EmConfig,
    _em_iteration,
    assemble_params,
    fit,
    fit_batch,
    fit_type,
    type_seed,
)
from hawkesnet.errors import InvalidInputError
from hawkesnet.events import discretize
from hawkesnet.features import build_features
from hawkesnet.kernels import ExponentialKernel
from hawkesnet.likelihood import CausalGraph, ThpParams, type_batch
from hawkesnet.simulate import SimConfig, generate_benchmark
from hawkesnet.topology import build_topology

from .helpers import (
    dense_to_dataset,
    em_iteration,
    log_likelihood,
    random_instance,
    rows_to_table,
    type_point,
)
from .oracles import oracle_m_step, oracle_plain_em

RNG = np.random.default_rng


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=10_000))
def test_responsibilities_sum_to_one(seed):
    rng = RNG(seed)
    inst = random_instance(rng, max_nodes=4, max_types=3, max_bins=15, min_events=3)
    _, expected = em_iteration(inst.params, inst.graph, inst.cache)
    # every event is fully attributed, so summed over cells the update's
    # expected event count of each type equals its observed count
    events = [inst.cache.type_counts[v].sum() for v in range(inst.graph.type_count)]
    np.testing.assert_allclose(expected, events, rtol=1e-10, atol=0.0)


def test_e_step_rejects_zero_intensity():
    dense = np.zeros((1, 1, 4), dtype=int)
    dense[0, 0, 2] = 1
    ds = dense_to_dataset(dense, 1.0)
    topo = build_topology(1, [], max_hops=0)
    cache = build_features(ds, topo, ExponentialKernel(1.0), 0)
    params = ThpParams(mu=np.array([0.0]), alpha={}, max_hops=0)
    batch, mu, alpha = type_point(params, CausalGraph(1), cache, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lik, _, _ = _em_iteration(mu, alpha, batch, [0])
    assert log_lik[0] == float("-inf")


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_one_em_step_matches_loop_oracle(seed):
    rng = RNG(seed)
    inst = random_instance(rng, max_nodes=3, max_types=3, max_bins=12, min_events=3)
    updated, _ = em_iteration(inst.params, inst.graph, inst.cache)
    want_mu, want_alpha = oracle_m_step(
        inst.dense,
        inst.topology.propagation,
        sorted(inst.graph.edges),
        inst.params.mu,
        inst.params.alpha,
        inst.max_hops,
        inst.bin_width,
        inst.decay,
    )
    np.testing.assert_allclose(updated.mu, want_mu, rtol=1e-10, atol=1e-10)
    for edge in inst.graph.edges:
        np.testing.assert_allclose(
            updated.alpha[edge], want_alpha[edge], rtol=1e-10, atol=1e-10
        )


def test_em_step_never_decreases_likelihood():
    for seed in range(8):
        rng = RNG(seed)
        inst = random_instance(
            rng, max_nodes=4, max_types=3, max_bins=15, min_events=4
        )
        params = inst.params
        before = log_likelihood(params, inst.graph, inst.cache)
        for _ in range(4):
            params, _ = em_iteration(params, inst.graph, inst.cache)
            after = log_likelihood(params, inst.graph, inst.cache)
            assert after >= before - 1e-9 * (1.0 + abs(before))
            before = after


def test_fit_trajectory_is_nondecreasing():
    for seed in range(5):
        rng = RNG(100 + seed)
        inst = random_instance(
            rng, max_nodes=4, max_types=3, max_bins=20, min_events=5
        )
        result = fit(inst.graph, inst.cache, EmConfig(), seed=seed)
        traj = np.asarray(result.trajectory)
        assert np.all(np.diff(traj) >= -1e-9 * (1.0 + np.abs(traj[:-1])))
        assert result.log_lik == pytest.approx(traj[-1], rel=1e-12)
        assert result.log_lik == pytest.approx(
            log_likelihood(result.params, inst.graph, inst.cache),
            rel=1e-9,
        )


def test_fit_reaches_a_fixed_point():
    rng = RNG(77)
    inst = random_instance(rng, max_nodes=4, max_types=2, max_bins=25, min_events=8)
    config = EmConfig(max_iterations=5000, rel_tolerance=1e-13)
    result = fit(inst.graph, inst.cache, config, seed=3)
    assert result.converged
    # one more EM cycle barely moves the parameters
    params = result.params
    again, _ = em_iteration(params, inst.graph, inst.cache)
    np.testing.assert_allclose(again.mu, params.mu, rtol=1e-4, atol=1e-12)
    for edge in inst.graph.edges:
        np.testing.assert_allclose(
            again.alpha[edge], params.alpha[edge], rtol=1e-3, atol=1e-10
        )
    # stationarity: active coordinates have (near) zero scaled gradient, which
    # the map gives as mu * dL/dmu = dt * grid_cells * (mu' - mu) and
    # alpha * dL/dalpha = dt * totals * (alpha' - alpha)
    cache = inst.cache
    scale = 1.0 + abs(result.log_lik)
    charge = cache.bin_width * cache.node_count * cache.bin_count
    for v in range(params.type_count):
        assert abs(charge * (again.mu[v] - params.mu[v])) <= 1e-4 * scale
    for (c, v), vec in params.alpha.items():
        scaled = cache.bin_width * cache.totals[c] * (again.alpha[(c, v)] - vec)
        assert np.all(np.abs(scaled) <= 1e-4 * scale)


def test_fit_type_zero_events_short_circuits():
    dense = np.zeros((2, 2, 5), dtype=int)
    dense[0, 0, 1] = 2  # type 0 has events, type 1 none
    ds = dense_to_dataset(dense, 1.0)
    topo = build_topology(2, [(0, 1)], max_hops=1)
    cache = build_features(ds, topo, ExponentialKernel(0.5), 1)
    result = fit_type(1, (0,), cache)
    assert result.mu == 0.0
    np.testing.assert_array_equal(result.alpha, np.zeros((1, 2)))
    assert result.log_lik == 0.0
    assert result.converged
    assert result.iterations == 0


def test_fit_type_dead_channel_alpha_stays_zero():
    # parent type never fires: its excitation totals vanish, alpha must be 0
    dense = np.zeros((2, 2, 6), dtype=int)
    dense[0, 1, 2] = 1
    dense[1, 1, 4] = 2
    ds = dense_to_dataset(dense, 1.0)
    topo = build_topology(2, [(0, 1)], max_hops=1)
    cache = build_features(ds, topo, ExponentialKernel(0.5), 1)
    result = fit_type(1, (0,), cache, EmConfig(), seed=5)
    np.testing.assert_array_equal(result.alpha, np.zeros((1, 2)))
    assert result.mu > 0


def test_fit_determinism_and_seed_sensitivity():
    rng = RNG(9)
    inst = random_instance(rng, max_nodes=4, max_types=3, max_bins=20, min_events=6)
    config = EmConfig(max_iterations=40)
    a = fit(inst.graph, inst.cache, config, seed=1)
    b = fit(inst.graph, inst.cache, config, seed=1)
    np.testing.assert_array_equal(a.params.mu, b.params.mu)
    for edge in inst.graph.edges:
        np.testing.assert_array_equal(a.params.alpha[edge], b.params.alpha[edge])
    assert a.trajectory == b.trajectory
    c = fit(inst.graph, inst.cache, config, seed=2)
    # different seed, different initialization; trajectories differ
    assert a.trajectory != c.trajectory


def test_type_seed_depends_on_parent_set():
    s1 = type_seed(0, 1, (0, 2))
    s2 = type_seed(0, 1, (0, 2))
    s3 = type_seed(0, 1, (0,))
    s4 = type_seed(0, 2, (0, 2))
    s5 = type_seed(1, 1, (0, 2))
    assert s1.entropy == s2.entropy
    assert len({s1.entropy, s3.entropy, s4.entropy, s5.entropy}) == 4
    rng1 = np.random.default_rng(s1)
    rng2 = np.random.default_rng(type_seed(0, 1, (0, 2)))
    assert rng1.uniform() == rng2.uniform()


def test_restarts_pick_best_final_likelihood():
    rng = RNG(13)
    inst = random_instance(rng, max_nodes=4, max_types=2, max_bins=20, min_events=6)
    v = 0
    parents = inst.graph.parents(v)
    config_many = EmConfig(max_iterations=3, restarts=6)
    best = fit_type(v, parents, inst.cache, config_many, seed=7)
    # every single-restart run is reachable; none may beat the reported best
    root = np.random.SeedSequence(7)
    singles = []
    for child in root.spawn(6):
        single = fit_type(
            v, parents, inst.cache,
            EmConfig(max_iterations=3, restarts=1), seed=child,
        )
        singles.append(single.log_lik)
    assert best.log_lik == pytest.approx(max(singles), rel=1e-12)


def test_fit_empty_dataset():
    ds = discretize(rows_to_table([]), 1.0, 10.0, node_count=2, type_count=2)
    topo = build_topology(2, [(0, 1)], max_hops=1)
    cache = build_features(ds, topo, ExponentialKernel(1.0), 1)
    result = fit(CausalGraph(2, [(0, 1)]), cache)
    np.testing.assert_array_equal(result.params.mu, [0.0, 0.0])
    np.testing.assert_array_equal(result.params.alpha[(0, 1)], [0.0, 0.0])
    assert result.log_lik == 0.0
    assert result.converged


def test_assemble_params_orders_types():
    rng = RNG(17)
    inst = random_instance(rng, max_nodes=3, max_types=3, max_bins=10, min_events=3)
    fits = [
        fit_type(v, inst.graph.parents(v), inst.cache, seed=v)
        for v in range(inst.graph.type_count)
    ]
    params = assemble_params(reversed(fits), inst.max_hops)
    for v, f in enumerate(fits):
        assert params.mu[v] == f.mu
    params.validate_for(inst.graph)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        EmConfig(max_iterations=0)
    with pytest.raises(InvalidInputError):
        EmConfig(rel_tolerance=-1e-6)
    with pytest.raises(InvalidInputError):
        EmConfig(restarts=0)


def test_convergence_flag_and_iteration_cap():
    rng = RNG(23)
    inst = random_instance(rng, max_nodes=4, max_types=2, max_bins=20, min_events=6)
    capped = fit(inst.graph, inst.cache, EmConfig(max_iterations=2))
    assert not capped.converged
    assert capped.iterations <= 3  # 2 scored iterates plus the final rescore
    relaxed = fit(
        inst.graph, inst.cache,
        EmConfig(max_iterations=500, rel_tolerance=1e-4),
    )
    assert relaxed.converged


@pytest.fixture(scope="module")
def dense():
    """A ``dense-learn``-shaped instance: 10 nodes, 5 types, nearly every bin
    occupied (mu in [0.05, 0.1], delta 0.2, K=2), about 2,200 bins.

    Returns the feature cache and, per type, the true parent set and the
    true parents plus the lowest-numbered wrong parent.
    """
    config = SimConfig(
        node_count=10, type_count=5, causal_avg_indegree=1.5, mu_range=(0.05, 0.1),
        kernel=ExponentialKernel(0.2), target_event_count=15_000, seed=0,
    )
    data = generate_benchmark(config)
    cache = build_features(data.dataset(), data.topology, ExponentialKernel(0.2), 2)
    parent_sets = []
    for v in range(5):
        truth = data.causal_graph.parents(v)
        wrong = min(c for c in range(5) if c not in truth)
        parent_sets.append((v, truth, tuple(sorted(truth + (wrong,)))))
    return cache, parent_sets


def test_accelerated_fit_ends_at_a_fixed_point(dense):
    cache, parent_sets = dense
    tol = 1e-12
    for v, truth, _ in parent_sets:
        result = fit_type(v, truth, cache, EmConfig(max_iterations=10_000, rel_tolerance=tol),
                          type_seed(0, v, truth))
        assert result.converged
        data = type_batch(cache, v, [truth])
        log_lik, mu, alpha = _em_iteration(np.array([result.mu]), result.alpha.reshape(1, -1),
                                           data, [0])
        assert log_lik[0] == result.log_lik
        again, _, _ = _em_iteration(mu, alpha, data, [0])
        assert abs(again[0] - log_lik[0]) <= tol * (abs(log_lik[0]) + 1.0)


@pytest.mark.parametrize("cap", [2, 3, 5, 10, 20, 100])
def test_accelerated_fit_never_below_plain_em(dense, cap):
    cache, parent_sets = dense
    config = EmConfig(max_iterations=cap)
    for v, truth, padded in parent_sets:
        for parents in (truth, padded):
            fast = fit_type(v, parents, cache, config, type_seed(0, v, parents))
            plain = oracle_plain_em(v, parents, cache, config, type_seed(0, v, parents))
            assert fast.log_lik >= plain.log_lik - 1e-9 * (abs(plain.log_lik) + 1.0)
            assert fast.iterations <= cap + 1


def test_default_fits_of_true_parents_converge(dense):
    cache, parent_sets = dense
    for v, truth, _ in parent_sets:
        result = fit_type(v, truth, cache, EmConfig(), type_seed(0, v, truth))
        assert result.converged
        assert result.iterations < EmConfig().max_iterations


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 7, 100])
def test_max_iterations_caps_em_maps(dense, monkeypatch, cap):
    cache, parent_sets = dense
    calls = []
    original = em_mod._em_iteration

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(em_mod, "_em_iteration", counting)
    v, _, padded = parent_sets[1]
    result = fit_type(v, padded, cache, EmConfig(max_iterations=cap), type_seed(0, v, padded))
    assert len(calls) <= cap
    # iterations counts maps, plus the rescore of a fit the cap stopped
    assert result.iterations == len(calls) + (not result.converged)
    traj = np.asarray(result.trajectory)
    assert np.all(np.diff(traj) >= -1e-9 * (1.0 + np.abs(traj[:-1])))
    assert result.log_lik == traj[-1]


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_rejected_jumps_fall_back_to_plain_em(dense, monkeypatch, bad):
    # a jump to zero rates is degenerate, one to nan or inf is non-finite:
    # every cycle falls back to x2, so the fit is plain EM minus one map in three
    cache, parent_sets = dense
    monkeypatch.setattr(
        em_mod, "_extrapolate", lambda p0, p1, p2, step_max: ((bad, np.full_like(p0[1], bad)), 2.0)
    )
    v, truth, _ = parent_sets[1]
    config = EmConfig(max_iterations=30)
    result = fit_type(v, truth, cache, config, type_seed(0, v, truth))
    traj = np.asarray(result.trajectory)
    assert np.isfinite(traj).all()
    assert np.all(np.diff(traj) >= -1e-9 * (1.0 + np.abs(traj[:-1])))
    assert result.mu > 0 and np.isfinite(result.alpha).all()
    plain = oracle_plain_em(v, truth, cache, EmConfig(max_iterations=20), type_seed(0, v, truth))
    assert result.log_lik >= plain.log_lik - 1e-9 * (abs(plain.log_lik) + 1.0)


def _assert_same_fit(a, b):
    """Every field of two fits equal, floats bit for bit."""
    assert (a.event_type, a.parents, a.mu, a.log_lik) == (b.event_type, b.parents, b.mu, b.log_lik)
    assert a.alpha.shape == b.alpha.shape and np.array_equal(a.alpha, b.alpha)
    assert (a.trajectory, a.iterations, a.converged) == (b.trajectory, b.iterations, b.converged)


def test_fitting_twice_with_one_seed_object_gives_equal_fits():
    # the restarts' seeds derive from the seed without advancing it
    inst = random_instance(RNG(13), max_nodes=4, max_types=2, max_bins=20, min_events=6)
    seed = type_seed(0, 0, (0, 1))
    config = EmConfig(max_iterations=3, restarts=2)
    first = fit_type(0, (0, 1), inst.cache, config, seed)
    _assert_same_fit(first, fit_type(0, (0, 1), inst.cache, config, seed))
    assert seed.n_children_spawned == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_fits_equal_lone_fits(data):
    """A fit does not depend on its batch: size, order, position, restarts."""
    inst = random_instance(RNG(data.draw(st.integers(0, 10_000))), max_nodes=4, max_types=4,
                           max_bins=30, min_events=3)
    types = inst.graph.type_count
    v = data.draw(st.integers(0, types - 1))
    cache = inst.cache
    if data.draw(st.booleans(), label="type without events"):
        dense = inst.dense.copy()
        dense[:, v, :] = 0
        cache = build_features(dense_to_dataset(dense, inst.bin_width), inst.topology,
                               inst.kernel, inst.max_hops)
    sets = list(itertools.combinations(range(types), data.draw(st.integers(0, types))))
    chosen = data.draw(st.lists(st.sampled_from(sets), min_size=1, max_size=6))
    seeds = data.draw(st.lists(st.integers(0, 2**32), min_size=len(chosen),
                               max_size=len(chosen)))
    config = EmConfig(max_iterations=data.draw(st.integers(1, 40)),
                      restarts=data.draw(st.integers(1, 3)))
    with pytest.MonkeyPatch.context() as patch:
        if data.draw(st.booleans(), label="jumps that leave the domain"):
            # some jumps, picked by the path alone, land on negative rates:
            # they score -inf mid-batch and fall back to x2
            original = em_mod._extrapolate

            def leaving(p0, p1, p2, step_max):
                jump, step = original(p0, p1, p2, step_max)
                if step > 1.0 and int(p1[0] * 1e12) % 2:
                    jump = (-jump[0] - 1.0, jump[1])
                return jump, step

            patch.setattr(em_mod, "_extrapolate", leaving)
        batched = fit_batch(v, chosen, cache, config, seeds)
        for parents, seed, fit_ in zip(chosen, seeds, batched):
            _assert_same_fit(fit_, fit_type(v, parents, cache, config, seed))


def test_batch_blocks_are_aligned_copies_of_type_data(dense):
    cache, _ = dense
    sets = [(0, 4), (2, 3), (1, 2)]
    batch = type_batch(cache, 1, sets, points=5)
    cells = cache.type_cells[1]
    for block, totals, parents in zip(batch.flat, batch.totals, sets):
        assert block.ctypes.data % 64 == 0
        # cell i's row holds the (parent, hop) features of the type's i-th cell
        want = np.moveaxis(cache.values[:, :, cells][list(parents)], 2, 0)
        np.testing.assert_array_equal(block, want.reshape(cells.shape[0], -1))
        np.testing.assert_array_equal(totals, cache.totals[list(parents)].reshape(-1))
    assert batch.cell_rows.shape[0] == batch.width_rows.shape[0] == 5
    for rows in (batch.cell_rows, batch.width_rows):
        assert all(row.ctypes.data % 64 == 0 for row in rows)
    with pytest.raises(InvalidInputError):
        fit_batch(1, [(0,), (0, 2)], cache)
