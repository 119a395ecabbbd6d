"""Production acceptance gate.

Each test is one release criterion and prints a single PASS/FAIL line with
the measured quantity next to its threshold. Criteria 5, 6, and 7 share the
five desk-scale datasets built by the ``desk_runs`` fixture.
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np
import pytest
from scipy import stats

from hawkesnet.cli import main as cli_main
from hawkesnet.em import EmConfig, fit
from hawkesnet.features import build_features
from hawkesnet.kernels import ExponentialKernel, GaussianKernel, UniformKernel
from hawkesnet.likelihood import CausalGraph, ThpParams, bic_penalty
from hawkesnet.metrics import alpha_mae, structure_metrics
from hawkesnet.search import SearchState, hill_climb
from hawkesnet.simulate import SimConfig, generate_benchmark, simulate
from hawkesnet.topology import build_topology

from .helpers import em_gradient, em_iteration, finite_difference, log_likelihood, random_instance
from .oracles import oracle_log_likelihood, oracle_m_step

RNG = np.random.default_rng


def _verdict(name: str, passed: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def _desk_config(seed: int, **overrides) -> SimConfig:
    base = dict(
        node_count=10,
        avg_topology_degree=1.5,
        type_count=5,
        causal_avg_indegree=1.0,
        target_event_count=6000,
        mu_range=(5e-5, 1e-4),
        alpha_range=(0.03, 0.05),
        kernel=ExponentialKernel(0.2),
        max_hops=2,
        bin_width=5.0,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def _learn_run(config: SimConfig, fit_kernel: ExponentialKernel):
    """Simulate one dataset, learn with and without propagation, fit truth."""
    data = generate_benchmark(config)
    cache = build_features(data.dataset(), data.topology, fit_kernel, config.max_hops)
    full = hill_climb(cache, em_config=EmConfig(), seed=config.seed)
    flat = hill_climb(cache.truncated(0), em_config=EmConfig(), seed=config.seed)
    return data, cache, full, flat


@pytest.fixture(scope="module")
def desk_runs():
    """Five shared desk-scale datasets: 10 nodes, 5 types, ~6000 events."""
    fit_kernel = ExponentialKernel(0.2)
    runs = []
    started = time.monotonic()
    recovery_seconds = 0.0
    for seed in range(5):
        t0 = time.monotonic()
        config = _desk_config(seed)
        data, cache, full, flat = _learn_run(config, fit_kernel)
        recovery_seconds += time.monotonic() - t0
        truth_fit = fit(data.causal_graph, cache, EmConfig(), seed)
        runs.append(
            {
                "seed": seed,
                "f1": structure_metrics(full.graph, data.causal_graph).f1,
                "f1_flat": structure_metrics(flat.graph, data.causal_graph).f1,
                "alpha_mae": alpha_mae(truth_fit.params, data.params),
                "events": data.event_count,
            }
        )
    return {
        "runs": runs,
        "recovery_seconds": recovery_seconds,
        "total_seconds": time.monotonic() - started,
    }


def test_criterion_01_likelihood_matches_bruteforce():
    started = time.monotonic()
    worst = 0.0
    count = 0
    rng = RNG(101)
    while count < 20:
        inst = random_instance(rng, min_events=2)
        # the production per-type shares, summed over types
        got = log_likelihood(inst.params, inst.graph, inst.cache)
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
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
        count += 1
    elapsed = time.monotonic() - started
    _verdict(
        "criterion 1 (likelihood oracle)",
        worst <= 1e-9 and elapsed < 10.0,
        f"{count} instances, max rel err {worst:.3e} <= 1e-9, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_em_contract():
    rng = RNG(202)
    worst_sum = 0.0
    worst_step = 0.0
    monotone = True
    for _ in range(12):
        inst = random_instance(rng, min_events=3)

        # one iteration of the loop fit_type runs, from the instance's params
        updated, expected = em_iteration(inst.params, inst.graph, inst.cache)
        # responsibilities sum to 1 per event, so the update expects exactly
        # the observed number of events of each type
        for v in range(inst.graph.type_count):
            events = inst.cache.type_counts[v].sum()
            if events:
                worst_sum = max(worst_sum, abs(expected[v] - events) / events)

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
        worst_step = max(worst_step, float(np.abs(updated.mu - want_mu).max()))
        for edge in inst.graph.edges:
            worst_step = max(
                worst_step,
                float(np.abs(updated.alpha[edge] - want_alpha[edge]).max()),
            )

        result = fit(inst.graph, inst.cache, EmConfig(), seed=0)
        traj = np.asarray(result.trajectory)
        if traj.size > 1:
            drops = np.diff(traj) < -1e-9 * (1.0 + np.abs(traj[:-1]))
            monotone = monotone and not drops.any()
    _verdict(
        "criterion 2 (EM contract)",
        monotone and worst_sum <= 1e-10 and worst_step <= 1e-10,
        "monotone trajectories, "
        f"max |expected events / events - 1| {worst_sum:.2e} <= 1e-10, "
        f"max one-step dev {worst_step:.2e} <= 1e-10",
    )


def test_criterion_03_gradients_match_finite_differences():
    rng = RNG(303)
    worst = 0.0
    for _ in range(10):
        inst = random_instance(rng, min_events=3)
        # the gradient the production EM map implies, against central
        # differences of the production likelihood
        gm, ga = em_gradient(inst.params, inst.graph, inst.cache)
        fm, fa = finite_difference(inst.params, inst.graph, inst.cache, rel_step=1e-6)
        scale = np.maximum(1.0, np.maximum(np.abs(gm), np.abs(fm)))
        worst = max(worst, float((np.abs(gm - fm) / scale).max()))
        for edge in inst.graph.edges:
            scale = np.maximum(
                1.0, np.maximum(np.abs(ga[edge]), np.abs(fa[edge]))
            )
            worst = max(
                worst, float((np.abs(ga[edge] - fa[edge]) / scale).max())
            )
    _verdict(
        "criterion 3 (gradient check)",
        worst <= 1e-5,
        f"10 instances, max rel dev {worst:.3e} <= 1e-5",
    )


def test_criterion_04_hill_climb_matches_exhaustive():
    started = time.monotonic()
    config = SimConfig(
        node_count=4,
        avg_topology_degree=1.5,
        type_count=3,
        causal_avg_indegree=1.0,
        target_event_count=1500,
        mu_range=(5e-4, 1e-3),
        alpha_range=(0.03, 0.05),
        kernel=ExponentialKernel(0.2),
        max_hops=1,
        bin_width=1.0,
        seed=11,
    )
    data = generate_benchmark(config)
    cache = build_features(data.dataset(), data.topology, config.kernel, config.max_hops)
    greedy = hill_climb(cache, em_config=EmConfig(), seed=0)

    state = SearchState.empty(cache, EmConfig(), seed=0)
    pairs = list(itertools.product(range(3), repeat=2))
    best = -np.inf
    for mask in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        graph = CausalGraph(3, edges)
        log_lik = sum(
            state.fit_for(v, graph.parents(v), cache).log_lik
            for v in range(3)
        )
        penalty = bic_penalty(3, graph.edge_count, cache.max_hops, cache.total_events)
        best = max(best, log_lik - penalty)
    elapsed = time.monotonic() - started
    _verdict(
        "criterion 4 (exhaustive agreement)",
        abs(best - greedy.score) <= 1e-6 and elapsed < 120.0,
        f"512 graphs, greedy {greedy.score:.6f} vs best {best:.6f}, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_05_structure_recovery(desk_runs):
    f1s = [run["f1"] for run in desk_runs["runs"]]
    mean_f1 = float(np.mean(f1s))
    elapsed = desk_runs["recovery_seconds"]
    _verdict(
        "criterion 5 (structure recovery)",
        mean_f1 >= 0.8 and elapsed < 600.0,
        f"mean F1 {mean_f1:.3f} >= 0.8 over 5 seeds "
        f"({[f'{x:.2f}' for x in f1s]}), {elapsed:.0f}s < 600s",
    )


def test_criterion_06_propagation_beats_flat_ablation(desk_runs):
    f1s = [run["f1"] for run in desk_runs["runs"]]
    flats = [run["f1_flat"] for run in desk_runs["runs"]]
    wins = sum(a > b for a, b in zip(f1s, flats))
    _verdict(
        "criterion 6 (ablation direction)",
        np.mean(f1s) >= np.mean(flats) and wins >= 3,
        f"mean F1 {np.mean(f1s):.3f} vs flat {np.mean(flats):.3f}, "
        f"strictly better on {wins}/5 seeds (need >= 3)",
    )


def test_criterion_07_parameter_recovery(desk_runs):
    maes = [run["alpha_mae"] for run in desk_runs["runs"]]
    _verdict(
        "criterion 7 (parameter recovery)",
        max(maes) <= 0.02,
        f"alpha MAE per seed {[f'{m:.4f}' for m in maes]}, max <= 0.02",
    )


def test_criterion_08_simulator_poisson_statistics():
    # Background-only process: per-type totals over 5 seeds are Poisson.
    node_count, type_count, horizon = 10, 20, 10_000
    graph = CausalGraph(type_count, [])
    params = ThpParams(
        mu=np.full(type_count, 1e-4), alpha={}, max_hops=2
    )
    topology = build_topology(node_count, [], max_hops=2)
    kernel = ExponentialKernel(1.0)
    totals = np.zeros(type_count)
    for seed in range(5):
        for record in simulate(
            graph, topology, params, kernel, 1.0, horizon, (81, seed)
        ):
            totals[record.event_type] += 1
    mean = 5 * 1e-4 * node_count * horizon
    z = (totals - mean) / np.sqrt(mean)
    z_max = float(np.abs(z).max())

    # Per-cell occupancy: chi-squared over categories {0, 1, >= 2}.
    lam = 0.05
    cells_graph = CausalGraph(type_count, [])
    cells_params = ThpParams(mu=np.full(type_count, lam), alpha={}, max_hops=0)
    cells_topology = build_topology(node_count, [], max_hops=0)
    bins = 1000
    p0 = np.exp(-lam)
    expected = np.array([p0, lam * p0, 1.0 - p0 - lam * p0])
    critical = stats.chi2.isf(0.001, 2)
    chi_max = 0.0
    for seed in range(5):
        counts = np.zeros((type_count, node_count, bins), dtype=int)
        for record in simulate(
            cells_graph, cells_topology, cells_params, kernel, 1.0, bins, (82, seed)
        ):
            counts[record.event_type, record.node, int(record.timestamp)] += 1
        flat = counts.ravel()
        observed = np.array(
            [(flat == 0).sum(), (flat == 1).sum(), (flat >= 2).sum()],
            dtype=float,
        )
        chi2 = float(((observed - flat.size * expected) ** 2 / (flat.size * expected)).sum())
        chi_max = max(chi_max, chi2)
    _verdict(
        "criterion 8 (simulator statistics)",
        z_max <= 3.0 and chi_max < critical,
        f"per-type |z| max {z_max:.2f} <= 3, "
        f"chi2 max {chi_max:.2f} < {critical:.2f} (0.1% level, df=2)",
    )


def test_criterion_09_kernel_robustness_direction():
    fit_kernel = ExponentialKernel(0.2)
    means = {}
    for family in ("gaussian", "uniform"):
        f1s, flats = [], []
        for seed in range(5):
            center = RNG((9000, seed)).uniform(5.0, 15.0)
            kernel = (
                GaussianKernel(center, 4.0)
                if family == "gaussian"
                else UniformKernel(center, 4.0)
            )
            config = _desk_config(
                seed,
                kernel=kernel,
                target_event_count=4000,
                mu_range=(2e-4, 4e-4),
                bin_width=2.5,
            )
            data, cache, full, flat = _learn_run(config, fit_kernel)
            f1s.append(structure_metrics(full.graph, data.causal_graph).f1)
            flats.append(structure_metrics(flat.graph, data.causal_graph).f1)
        means[family] = (float(np.mean(f1s)), float(np.mean(flats)))
    _verdict(
        "criterion 9 (kernel robustness)",
        all(full >= flat for full, flat in means.values()),
        "exponential fit on mismatched generators: "
        + ", ".join(
            f"{family} F1 {full:.3f} >= flat {flat:.3f}"
            for family, (full, flat) in means.items()
        ),
    )


def test_criterion_10_pipeline_byte_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "seed": 7,
                "simulate": {
                    "node_count": 4,
                    "type_count": 2,
                    "target_event_count": 400,
                    "mu_range": [0.005, 0.01],
                    "alpha_range": [0.03, 0.05],
                    "causal_avg_indegree": 1.0,
                    "kernel": {"type": "exponential", "delta": 0.2},
                    "max_hops": 1,
                    "bin_width": 1.0,
                },
            }
        )
    )
    trees = []
    for run in ("one", "two"):
        root = tmp_path / run
        sim, fitdir, evaldir = root / "sim", root / "fit", root / "eval"
        assert cli_main(
            ["simulate", "--config", str(config_path), "--out", str(sim)]
        ) == 0
        assert cli_main(
            [
                "learn",
                "--events", str(sim / "events.csv"),
                "--topology", str(sim / "topology.txt"),
                "--k", "1",
                "--delta", "0.2",
                "--seed", "7",
                "--out", str(fitdir),
            ]
        ) == 0
        assert cli_main(
            [
                "evaluate",
                "--predicted", str(fitdir / "learned_graph.json"),
                "--truth", str(sim / "ground_truth.json"),
                "--out", str(evaldir),
            ]
        ) == 0
        trees.append(root)

    produced = sorted(
        p.relative_to(trees[0]) for p in trees[0].rglob("*") if p.is_file()
    )
    mismatched = [
        str(rel)
        for rel in produced
        if (trees[0] / rel).read_bytes() != (trees[1] / rel).read_bytes()
    ]
    _verdict(
        "criterion 10 (determinism)",
        len(produced) >= 7 and not mismatched,
        f"{len(produced)} files byte-identical across two runs"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
