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
    PausedFit,
    TypeFit,
    _em_iteration,
    assemble_params,
    duality_gap,
    fit_batch,
    fit_type,
)
from hawkesnet.errors import InvalidInputError
from hawkesnet.events import discretize
from hawkesnet.features import build_features
from hawkesnet.graph import CausalGraph, ThpParams
from hawkesnet.kernels import ExponentialKernel
from hawkesnet.likelihood import batch_log_likelihood, type_batch
from hawkesnet.simulate import SimConfig, generate_benchmark
from hawkesnet.topology import build_topology

from .helpers import (
    assert_same_fit,
    dense_to_dataset,
    em_iteration,
    fit,
    log_likelihood,
    param_arrays,
    random_instance,
    rows_to_table,
    type_point,
)
from .oracles import oracle_extrapolate, oracle_m_step, oracle_plain_em, oracle_squarem

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
    topo = build_topology(1, [])
    cache = build_features(ds, topo, ExponentialKernel(1.0), 0)
    params = ThpParams(mu=np.array([0.0]), alpha={}, max_hops=0)
    batch, mu, alpha = type_point(params, CausalGraph(1), cache, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lik, _, _, _ = _em_iteration(mu, alpha, batch, [0])
    assert log_lik[0] == float("-inf")


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_one_em_step_matches_loop_oracle(seed):
    rng = RNG(seed)
    inst = random_instance(rng, max_nodes=3, max_types=3, max_bins=12, min_events=3)
    updated, _ = em_iteration(inst.params, inst.graph, inst.cache)
    want_mu, want_alpha = oracle_m_step(
        inst.dense,
        inst.topology.hop_matrices(1)[1],
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
        result = fit(inst.graph, inst.cache, EmConfig())
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
    result = fit(inst.graph, inst.cache, config)
    assert result.converged
    # one more EM cycle barely moves the parameters
    params = result.params
    again, _ = em_iteration(params, inst.graph, inst.cache)
    (mu, alpha), (mu_again, alpha_again) = param_arrays(params), param_arrays(again)
    np.testing.assert_allclose(mu_again, mu, rtol=1e-4, atol=1e-12)
    for edge in inst.graph.edges:
        np.testing.assert_allclose(
            alpha_again[edge], alpha[edge], rtol=1e-3, atol=1e-10
        )
    # stationarity: active coordinates have (near) zero scaled gradient, which
    # the map gives as mu * dL/dmu = dt * grid_cells * (mu' - mu) and
    # alpha * dL/dalpha = dt * totals * (alpha' - alpha)
    cache = inst.cache
    scale = 1.0 + abs(result.log_lik)
    charge = cache.bin_width * cache.node_count * cache.bin_count
    for v in range(params.type_count):
        assert abs(charge * (mu_again[v] - mu[v])) <= 1e-4 * scale
    for (c, v), vec in alpha.items():
        scaled = cache.bin_width * cache.totals[c] * (alpha_again[(c, v)] - vec)
        assert np.all(np.abs(scaled) <= 1e-4 * scale)


def test_fit_type_zero_events_short_circuits():
    dense = np.zeros((2, 2, 5), dtype=int)
    dense[0, 0, 1] = 2  # type 0 has events, type 1 none
    ds = dense_to_dataset(dense, 1.0)
    topo = build_topology(2, [(0, 1)])
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
    topo = build_topology(2, [(0, 1)])
    cache = build_features(ds, topo, ExponentialKernel(0.5), 1)
    result = fit_type(1, (0,), cache, EmConfig())
    np.testing.assert_array_equal(result.alpha, np.zeros((1, 2)))
    assert result.mu > 0


def test_fit_determinism():
    rng = RNG(9)
    inst = random_instance(rng, max_nodes=4, max_types=3, max_bins=20, min_events=6)
    config = EmConfig(max_iterations=40)
    a = fit(inst.graph, inst.cache, config)
    b = fit(inst.graph, inst.cache, config)
    np.testing.assert_array_equal(a.params.mu, b.params.mu)
    for edge in inst.graph.edges:
        np.testing.assert_array_equal(a.params.alpha[edge], b.params.alpha[edge])
    assert a.trajectory == b.trajectory


def test_fit_starts_at_the_empirical_rate():
    # mu = N / (grid_cells * dt), alpha = 0.05 on channels with positive totals
    dense = np.zeros((2, 3, 8), dtype=int)
    dense[0, 0, 1] = dense[1, 1, 3] = dense[0, 1, 5] = dense[1, 1, 6] = 1
    ds = dense_to_dataset(dense, 2.0)
    cache = build_features(ds, build_topology(2, [(0, 1)]), ExponentialKernel(0.5), 1)
    v, parents = 1, (0, 2)  # type 2 never fires: its channels start at 0
    result = fit_type(v, parents, cache, EmConfig(max_iterations=1))
    rate = cache.type_counts[v].sum() / (cache.node_count * cache.bin_count * cache.bin_width)
    alpha = np.where(cache.totals[list(parents)].reshape(1, -1) > 0, 0.05, 0.0)
    assert alpha[0].tolist() == [0.05, 0.05, 0.0, 0.0]
    _, start, _ = batch_log_likelihood(np.array([rate]), alpha, type_batch(cache, v, [parents]), [0])
    assert result.trajectory[0] == start[0]


def test_fit_empty_dataset():
    ds = discretize(rows_to_table([]), 1.0, 10.0, node_count=2, type_count=2)
    topo = build_topology(2, [(0, 1)])
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
        fit_type(v, inst.graph.parents(v), inst.cache)
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
        result = fit_type(v, truth, cache, EmConfig(max_iterations=10_000, rel_tolerance=tol))
        assert result.converged
        data = type_batch(cache, v, [truth])
        log_lik, mu, alpha, _ = _em_iteration(np.array([result.mu]), result.alpha.reshape(1, -1),
                                           data, [0])
        assert log_lik[0] == result.log_lik
        again, _, _, _ = _em_iteration(mu, alpha, data, [0])
        assert abs(again[0] - log_lik[0]) <= tol * (abs(log_lik[0]) + 1.0)


@pytest.mark.parametrize("cap", [2, 3, 5, 10, 20, 100])
def test_accelerated_fit_never_below_plain_em(dense, cap):
    cache, parent_sets = dense
    config = EmConfig(max_iterations=cap)
    for v, truth, padded in parent_sets:
        for parents in (truth, padded):
            fast = fit_type(v, parents, cache, config)
            plain = oracle_plain_em(v, parents, cache, config)
            assert fast.log_lik >= plain.log_lik - 1e-9 * (abs(plain.log_lik) + 1.0)
            assert fast.iterations <= cap + 1


def test_default_fits_of_true_parents_converge(dense):
    cache, parent_sets = dense
    for v, truth, _ in parent_sets:
        result = fit_type(v, truth, cache, EmConfig())
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
    result = fit_type(v, padded, cache, EmConfig(max_iterations=cap))
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
    result = fit_type(v, truth, cache, config)
    traj = np.asarray(result.trajectory)
    assert np.isfinite(traj).all()
    assert np.all(np.diff(traj) >= -1e-9 * (1.0 + np.abs(traj[:-1])))
    assert result.mu > 0 and np.isfinite(result.alpha).all()
    plain = oracle_plain_em(v, truth, cache, EmConfig(max_iterations=20))
    assert result.log_lik >= plain.log_lik - 1e-9 * (abs(plain.log_lik) + 1.0)


def test_duality_gap_bounds_the_distance_to_the_optimum(dense):
    # a long plain EM run stands in for the optimum: the gap at each point
    # of a shorter run caps what that point leaves, and vanishes at the end
    cache, parent_sets = dense
    exact = EmConfig(max_iterations=20_000, rel_tolerance=0.0)
    checked = 0
    for v, truth, padded in parent_sets:
        if not truth:
            continue
        best = oracle_plain_em(v, truth, cache, exact)
        for cap in (1, 3, 10, 30, 100):
            capped = EmConfig(max_iterations=cap, rel_tolerance=0.0)
            point = oracle_plain_em(v, truth, cache, capped)
            gap, _ = duality_gap(point, cache)
            assert gap >= 0.0
            assert gap >= best.log_lik - point.log_lik, (v, cap)
        assert duality_gap(best, cache)[0] <= 1e-3
        # with a new parent's channels at 0 the fit keeps its share, so the
        # new-parent bound caps the optimum of the enlarged set
        (wrong,) = set(padded) - set(truth)
        start = fit_type(v, truth, cache)
        gap, bound = duality_gap(start, cache)
        assert bound.shape == (cache.type_count,) and (bound >= gap - 1e-9).all()
        enlarged = oracle_plain_em(v, padded, cache, exact)
        assert enlarged.log_lik <= start.log_lik + bound[wrong] + 1e-9 * (abs(start.log_lik) + 1.0)
        checked += 1
    assert checked >= 2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_fits_equal_lone_fits(dense, data):
    """A fit does not depend on its batch: size, order, position."""
    if data.draw(st.booleans(), label="dense-learn-shaped instance"):
        # thousands of cells per type, no count a multiple of 8, so every
        # row of a block ends in padding before the next row starts
        cache = dense[0]
        types = cache.type_count
        v = data.draw(st.integers(0, types - 1))
    else:
        inst = random_instance(RNG(data.draw(st.integers(0, 10_000))), max_nodes=4, max_types=4,
                               max_bins=30, min_events=3)
        types = inst.graph.type_count
        v = data.draw(st.integers(0, types - 1))
        cache = inst.cache
        if data.draw(st.booleans(), label="type without events"):
            counts = inst.dense.copy()
            counts[:, v, :] = 0
            cache = build_features(dense_to_dataset(counts, inst.bin_width), inst.topology,
                                   inst.kernel, inst.max_hops)
    sets = list(itertools.combinations(range(types), data.draw(st.integers(0, types))))
    chosen = data.draw(st.lists(st.sampled_from(sets), min_size=1, max_size=6))
    config = EmConfig(max_iterations=data.draw(st.integers(1, 40)))
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
        batched = fit_batch(v, chosen, cache, config)
        for parents, fit_ in zip(chosen, batched):
            assert_same_fit(fit_, fit_type(v, parents, cache, config))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_paused_fits_resume_bit_for_bit(dense, data):
    """A fit stopped between any two maps and resumed, as often as the
    floors say, ends as the fit run straight through, bit for bit."""
    if data.draw(st.booleans(), label="dense-learn-shaped instance"):
        cache = dense[0]
    else:
        cache = random_instance(RNG(data.draw(st.integers(0, 10_000))), max_nodes=4, max_types=4,
                                max_bins=30, min_events=3).cache
    types = cache.type_count
    v = data.draw(st.integers(0, types - 1))
    sets = list(itertools.combinations(range(types), data.draw(st.integers(0, types))))
    chosen = data.draw(st.lists(st.sampled_from(sets), min_size=1, max_size=4))
    config = EmConfig(max_iterations=data.draw(st.integers(1, 40)))
    want = fit_batch(v, chosen, cache, config)
    got, entries = {}, dict(enumerate(chosen))
    while entries:
        # inf stops a fit after its next map, -inf runs it to the end
        floors = [data.draw(st.sampled_from([np.inf, -np.inf, want[j].log_lik + 1.0,
                                             want[j].log_lik - 1.0])) for j in entries]
        for j, fit_ in zip(list(entries), fit_batch(v, list(entries.values()), cache, config,
                                                    lambda shares, floors=floors: floors)):
            if isinstance(fit_, PausedFit):
                # the bound caps the share the finished fit reaches
                assert fit_.maps < config.max_iterations and fit_.bound >= want[j].log_lik
                entries[j] = fit_
            else:
                got[j] = fit_
                del entries[j]
    for j, fit_ in got.items():
        assert_same_fit(fit_, want[j])


@pytest.mark.parametrize("cap", [3, 4, 100])
def test_a_fit_paused_after_every_map_ends_as_one_run_straight_through(dense, cap):
    cache, parent_sets = dense
    config = EmConfig(max_iterations=cap)
    phases, capped = set(), 0
    for v, *sets in parent_sets:
        for parents in sets:
            entry, maps = parents, 0
            while not isinstance(entry, TypeFit):
                entry = fit_batch(v, [entry], cache, config, lambda shares: [np.inf])[0]
                maps += 1
                if isinstance(entry, PausedFit):
                    phases.add(entry.state.phase)
                    assert entry.maps == maps
            assert_same_fit(entry, fit_type(v, parents, cache, config))
            capped += not entry.converged
    if cap == 100:  # stops fall on every phase of the cycle: x, x1 and a jump mapped next
        assert phases == {0, 1, 2}
    else:  # and on the last map before the cap
        assert capped > 0


def test_batch_blocks_are_aligned_rows_equal_to_the_type_data(dense):
    cache, _ = dense
    sets = [(0, 4), (2, 3), (1, 2), (0, 3)]
    batch = type_batch(cache, 1, sets)
    hops = cache.max_hops + 1
    values = cache.type_values[1]
    assert len(batch.flat) == 4
    for block, totals, parents in zip(batch.flat, batch.totals, sets):
        assert block.shape == (2 * hops, values.shape[1])
        assert all(row.ctypes.data % 64 == 0 for row in block) and block.strides[0] % 64 == 0
        # consecutive parents are read in place, any other set is a copy
        assert np.shares_memory(block, values) == (parents[1] == parents[0] + 1)
        # row (i, k) holds the hop-k features of parent i at the type's cells
        want = np.concatenate([values[c * hops : (c + 1) * hops] for c in parents])
        np.testing.assert_array_equal(block, want)
        np.testing.assert_array_equal(totals, cache.totals[list(parents)].reshape(-1))
    assert batch.cell_rows.shape[0] == batch.width_rows.shape[0] == 4
    for rows in (batch.cell_rows, batch.width_rows):
        assert all(row.ctypes.data % 64 == 0 for row in rows)
    with pytest.raises(InvalidInputError):
        fit_batch(1, [(0,), (0, 2)], cache)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fit_batch_equals_oracle_squarem(dense, data):
    """The batch's rows take the generator route's path: point, trajectory,
    convergence and evaluations, bit for bit, at any batch size and position."""
    if data.draw(st.booleans(), label="dense-learn-shaped instance"):
        cache = dense[0]
    else:
        cache = random_instance(RNG(data.draw(st.integers(0, 10_000))), max_nodes=4, max_types=4,
                                max_bins=30, min_events=3).cache
    types = cache.type_count
    v = data.draw(st.integers(0, types - 1))
    sets = list(itertools.combinations(range(types), data.draw(st.integers(0, types))))
    chosen = data.draw(st.lists(st.sampled_from(sets), min_size=1, max_size=8))
    config = EmConfig(max_iterations=data.draw(st.integers(1, 40)))
    with pytest.MonkeyPatch.context() as patch:
        if data.draw(st.booleans(), label="jumps that leave the domain"):
            original = em_mod._extrapolate

            def leaving(p0, p1, p2, step_max):
                jump, step = original(p0, p1, p2, step_max)
                if step > 1.0 and int(p1[0] * 1e12) % 2:
                    jump = (-jump[0] - 1.0, jump[1])
                return jump, step

            patch.setattr(em_mod, "_extrapolate", leaving)
        for fit_, want in zip(fit_batch(v, chosen, cache, config), oracle_squarem(v, chosen, cache, config)):
            assert_same_fit(fit_, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 4.0, 16.0, 256.0]),
       st.sampled_from(["plain", "huge", "nan", "flat"]))
def test_extrapolate_matches_numpy_arithmetic(width, seed, step_max, kind):
    rng = RNG(seed)
    points = [(float(rng.uniform(0, 2)), rng.uniform(0, 1, width) * rng.integers(0, 2, width))
              for _ in range(3)]
    if kind == "huge":  # the jump overflows
        points[2] = (1e300, np.full(width, -1e300))
    elif kind == "nan":
        points[1] = (float("nan"), points[1][1])
    elif kind == "flat":  # v = 0: a unit step
        points[2] = (2 * points[1][0] - points[0][0], 2 * points[1][1] - points[0][1])
    with np.errstate(all="ignore"):
        (mu, alpha), step = em_mod._extrapolate(*points, step_max)
        (want_mu, want_alpha), want_step = oracle_extrapolate(*points, step_max)
    assert np.array_equal([step, mu], [want_step, want_mu], equal_nan=True)
    assert np.array(alpha, dtype=float).tobytes() == np.asarray(want_alpha, dtype=float).tobytes()
