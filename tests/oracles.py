"""Independent loop-based reference implementations.

Everything in here is a direct transcription of the model definitions,
written with explicit Python loops over dense arrays. No code is shared
with the package internals (``oracle_sweep`` takes only the package's types
and its kernel lag grid), so agreement between the two routes is meaningful
evidence rather than a tautology. ``oracle_blockwise_features`` is the
exception in style: the earlier dense-sweep feature builder, vectorized with
:func:`scipy.signal.lfilter` so that long horizons stay cheap to check.
``oracle_plain_em`` is the other exception: the plain EM loop around the
package's own EM map, the reference the accelerated ``fit_type`` must never
score below.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import lfilter

from hawkesnet.em import EmConfig, TypeFit, _em_iteration
from hawkesnet.errors import (
    DegenerateModelError,
    InvalidInputError,
    SimulationExplosionError,
    UnsupportedKernelError,
)
from hawkesnet.events import DiscreteDataset, event_table
from hawkesnet.features import FeatureCache
from hawkesnet.kernels import DecayKernel, ExponentialKernel
from hawkesnet.likelihood import CausalGraph, ThpParams, batch_log_likelihood, type_batch
from hawkesnet.simulate import _window_weights
from hawkesnet.topology import TopologyGraph


def oracle_normalized_adjacency(adjacency) -> np.ndarray:
    adj = np.asarray(adjacency, dtype=float)
    n = adj.shape[0]
    degree = [sum(adj[i][j] for j in range(n)) for i in range(n)]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if adj[i][j] != 0.0 and degree[i] > 0 and degree[j] > 0:
                out[i][j] = adj[i][j] / math.sqrt(degree[i] * degree[j])
    return out


def oracle_powers(propagation: np.ndarray, max_hops: int) -> list[np.ndarray]:
    """Hop matrices computed through numpy's dense matrix_power."""
    return [
        np.linalg.matrix_power(propagation, k) for k in range(max_hops + 1)
    ]


def oracle_kernel(kind: str, t: float, **kw) -> float:
    if t <= 0.0:
        return 0.0
    if kind == "exponential":
        return math.exp(-kw["decay"] * t)
    if kind == "gaussian":
        mean, std = kw["mean"], kw["std"]
        return math.exp(-((t - mean) ** 2) / (2.0 * std**2)) / (
            std * math.sqrt(2.0 * math.pi)
        )
    if kind == "uniform":
        start, scale = kw["start"], kw["scale"]
        return 1.0 / scale if start < t < start + scale else 0.0
    raise ValueError(kind)


def oracle_summary(
    dense: np.ndarray, src: int, node: int, time_bin: int, bin_width: float, decay: float
) -> float:
    """Decayed count history: sum over strictly earlier bins."""
    total = 0.0
    for past in range(time_bin):
        lag = (time_bin - past) * bin_width
        total += math.exp(-decay * lag) * dense[node, src, past]
    return total


def oracle_all_summaries(
    dense: np.ndarray, bin_width: float, decay: float
) -> np.ndarray:
    nodes, types, bins = dense.shape
    out = np.zeros((types, nodes, bins))
    for src in range(types):
        for node in range(nodes):
            for t in range(bins):
                out[src, node, t] = oracle_summary(
                    dense, src, node, t, bin_width, decay
                )
    return out


def oracle_features(
    dense: np.ndarray,
    propagation: np.ndarray,
    max_hops: int,
    bin_width: float,
    decay: float,
):
    """Dense hop-spread features plus their grand totals.

    Returns (values, totals) with values indexed [src, hop, node, bin].
    """
    nodes, types, bins = dense.shape
    powers = oracle_powers(propagation, max_hops)
    summaries = oracle_all_summaries(dense, bin_width, decay)
    values = np.zeros((types, max_hops + 1, nodes, bins))
    for src in range(types):
        for k in range(max_hops + 1):
            for node in range(nodes):
                for t in range(bins):
                    acc = 0.0
                    for other in range(nodes):
                        acc += powers[k][other, node] * summaries[src, other, t]
                    values[src, k, node, t] = acc
    totals = values.sum(axis=(2, 3))
    return values, totals


def oracle_blockwise_features(
    dataset: DiscreteDataset,
    topology: TopologyGraph,
    kernel: DecayKernel,
    max_hops: int,
    *,
    block_bins: int = 1 << 17,
) -> FeatureCache:
    """The previous production feature builder, kept as a reference.

    Sweeps every bin: the decay recursion runs blockwise through
    :func:`scipy.signal.lfilter`, carrying filter state across blocks of
    ``block_bins`` bins, and each block is propagated with one matrix product
    per hop. Its cost scales with ``node_count * bin_count``.
    """
    if not isinstance(kernel, ExponentialKernel):
        raise UnsupportedKernelError(
            f"feature cache requires an exponential kernel, got {type(kernel).__name__}"
        )
    if max_hops < 0:
        raise InvalidInputError("max_hops must be >= 0")
    if dataset.node_count != topology.node_count:
        raise InvalidInputError(
            f"dataset has {dataset.node_count} nodes, topology {topology.node_count}"
        )
    if block_bins < 1:
        raise InvalidInputError("block_bins must be >= 1")

    n_nodes = dataset.node_count
    n_types = dataset.type_count
    n_bins = dataset.bin_count
    dt = dataset.bin_width
    powers = topology.hop_matrices(max_hops)
    # row_mass[k][n'] = sum_n P^k[n', n]; contracts the totals to one dot product
    row_mass = powers.sum(axis=2)

    cell_keys = np.unique(dataset.bins * n_nodes + dataset.nodes)
    cell_bins = cell_keys // n_nodes
    cell_nodes = cell_keys % n_nodes
    n_cells = cell_keys.shape[0]

    type_cells = []
    type_counts = []
    for v in range(n_types):
        rows = dataset.type_rows(v)
        keys = dataset.bins[rows] * n_nodes + dataset.nodes[rows]
        type_cells.append(np.searchsorted(cell_keys, keys).astype(np.int64))
        type_counts.append(dataset.counts[rows].astype(float))

    decay_step = math.exp(-kernel.decay * dt)
    filt_b = np.array([0.0, decay_step])
    filt_a = np.array([1.0, -decay_step])

    values = np.zeros((n_types, max_hops + 1, n_cells))
    totals = np.zeros((n_types, max_hops + 1))

    for src in range(n_types):
        rows = dataset.type_rows(src)
        src_bins = dataset.bins[rows]
        src_nodes = dataset.nodes[rows]
        src_counts = dataset.counts[rows].astype(float)
        state = np.zeros((n_nodes, 1))
        summary_sum = np.zeros(n_nodes)
        for b0 in range(0, n_bins, block_bins):
            b1 = min(b0 + block_bins, n_bins)
            block = np.zeros((n_nodes, b1 - b0))
            lo = int(np.searchsorted(src_bins, b0))
            hi = int(np.searchsorted(src_bins, b1))
            if hi > lo:
                np.add.at(
                    block,
                    (src_nodes[lo:hi], src_bins[lo:hi] - b0),
                    src_counts[lo:hi],
                )
            summary, state = lfilter(filt_b, filt_a, block, axis=1, zi=state)
            summary_sum += summary.sum(axis=1)
            c0 = int(np.searchsorted(cell_bins, b0))
            c1 = int(np.searchsorted(cell_bins, b1))
            if c1 > c0:
                cn = cell_nodes[c0:c1]
                cb = cell_bins[c0:c1] - b0
                for k in range(max_hops + 1):
                    propagated = powers[k] @ summary
                    values[src, k, c0:c1] = propagated[cn, cb]
        totals[src] = row_mass @ summary_sum

    return FeatureCache(
        node_count=n_nodes,
        type_count=n_types,
        bin_count=n_bins,
        bin_width=dt,
        max_hops=max_hops,
        total_events=dataset.total_events,
        cell_nodes=cell_nodes,
        cell_bins=cell_bins,
        values=values,
        totals=totals,
        type_cells=tuple(type_cells),
        type_counts=tuple(type_counts),
    )


def oracle_intensity(
    dense: np.ndarray,
    propagation: np.ndarray,
    edges,
    mu: np.ndarray,
    alpha: dict,
    max_hops: int,
    bin_width: float,
    decay: float,
    node: int,
    event_type: int,
    time_bin: int,
) -> float:
    powers = oracle_powers(propagation, max_hops)
    lam = float(mu[event_type])
    for (src, dst) in edges:
        if dst != event_type:
            continue
        for k in range(max_hops + 1):
            for other in range(dense.shape[0]):
                lam += (
                    alpha[(src, dst)][k]
                    * powers[k][other, node]
                    * oracle_summary(dense, src, other, time_bin, bin_width, decay)
                )
    return lam


def oracle_log_likelihood(
    dense: np.ndarray,
    propagation: np.ndarray,
    edges,
    mu: np.ndarray,
    alpha: dict,
    max_hops: int,
    bin_width: float,
    decay: float,
) -> float:
    """Discretized Poisson log likelihood, constant term dropped."""
    nodes, types, bins = dense.shape
    values, _ = oracle_features(dense, propagation, max_hops, bin_width, decay)
    total = 0.0
    for v in range(types):
        parents = sorted(src for (src, dst) in edges if dst == v)
        for node in range(nodes):
            for t in range(bins):
                lam = float(mu[v])
                for src in parents:
                    for k in range(max_hops + 1):
                        lam += alpha[(src, v)][k] * values[src, k, node, t]
                total -= lam * bin_width
                count = dense[node, v, t]
                if count > 0:
                    if lam <= 0.0:
                        return float("-inf")
                    total += count * math.log(lam)
    return total


def oracle_e_step(
    dense: np.ndarray,
    propagation: np.ndarray,
    edges,
    mu: np.ndarray,
    alpha: dict,
    max_hops: int,
    bin_width: float,
    decay: float,
):
    """Per-source responsibilities, materialized then aggregated.

    Returns (background, excitation) where background[v][node, t] is the
    share credited to the base rate and excitation[v][(src, k)][node, t]
    the share credited to each parent/hop channel, at occupied cells only.
    Unoccupied cells hold zero.
    """
    nodes, types, bins = dense.shape
    powers = oracle_powers(propagation, max_hops)
    background = [np.zeros((nodes, bins)) for _ in range(types)]
    excitation = [
        {
            (src, k): np.zeros((nodes, bins))
            for (src, dst) in edges
            if dst == v
            for k in range(max_hops + 1)
        }
        for v in range(types)
    ]
    for v in range(types):
        parents = sorted(src for (src, dst) in edges if dst == v)
        for node in range(nodes):
            for t in range(bins):
                if dense[node, v, t] == 0:
                    continue
                lam = oracle_intensity(
                    dense, propagation, edges, mu, alpha,
                    max_hops, bin_width, decay, node, v, t,
                )
                background[v][node, t] = mu[v] / lam
                for src in parents:
                    for k in range(max_hops + 1):
                        # per-source contributions summed over (origin, past)
                        share = 0.0
                        for other in range(nodes):
                            for past in range(t):
                                lag = (t - past) * bin_width
                                share += (
                                    alpha[(src, v)][k]
                                    * powers[k][other, node]
                                    * math.exp(-decay * lag)
                                    * dense[other, src, past]
                                )
                        excitation[v][(src, k)][node, t] = share / lam
    return background, excitation


def oracle_m_step(
    dense: np.ndarray,
    propagation: np.ndarray,
    edges,
    mu: np.ndarray,
    alpha: dict,
    max_hops: int,
    bin_width: float,
    decay: float,
):
    """One multiplicative update computed from the materialized E step."""
    nodes, types, bins = dense.shape
    background, excitation = oracle_e_step(
        dense, propagation, edges, mu, alpha, max_hops, bin_width, decay
    )
    _, totals = oracle_features(dense, propagation, max_hops, bin_width, decay)
    new_mu = np.zeros(types)
    for v in range(types):
        acc = 0.0
        for node in range(nodes):
            for t in range(bins):
                acc += background[v][node, t] * dense[node, v, t]
        new_mu[v] = acc / (nodes * bins * bin_width)
    new_alpha = {}
    for (src, dst) in edges:
        vec = np.zeros(max_hops + 1)
        for k in range(max_hops + 1):
            num = 0.0
            for node in range(nodes):
                for t in range(bins):
                    num += excitation[dst][(src, k)][node, t] * dense[node, dst, t]
            denom = totals[src, k] * bin_width
            vec[k] = num / denom if denom > 0 else 0.0
        new_alpha[(src, dst)] = vec
    return new_mu, new_alpha


def oracle_sweep(
    causal_graph: CausalGraph,
    topology: TopologyGraph,
    params: ThpParams,
    kernel: DecayKernel,
    bin_width: float,
    rng: np.random.Generator,
    *,
    max_bins: int,
    stop_at_count: int | None,
    explosion_guard: float,
) -> tuple[np.recarray, int]:
    """Dense per-bin sweep: every cell of every bin drawn in turn.

    The reference for the event-driven loop ``hawkesnet.simulate._event_loop``,
    with the same signature and return value. It shares only the kernel's lag
    grid (``_window_weights``) with the package.
    """
    n_nodes = topology.node_count
    n_types = causal_graph.type_count
    dt = bin_width
    powers = topology.hop_matrices(params.max_hops)
    tensor = params.alpha_tensor()  # (src, dst, k)
    # operator[dst*N+m, src*N+n] = sum_k alpha[src,dst,k] * P^k[n,m]
    operator = (
        np.einsum("sdk,knm->dmsn", tensor, powers).reshape(
            n_types * n_nodes, n_types * n_nodes
        )
        * dt
    )
    mu_dt = np.repeat(params.mu, n_nodes) * dt
    size = n_types * n_nodes

    exponential = isinstance(kernel, ExponentialKernel)
    if exponential:
        decay_step = math.exp(-kernel.decay * dt)
        state = np.zeros(size)
    else:
        weights = _window_weights(kernel, dt)
        window = weights.shape[0]
        buffer = np.zeros((window, size))

    events: list[tuple] = []  # (node, event_type, timestamp), one per event
    total = 0
    bins_run = 0
    for t in range(max_bins):
        if exponential:
            lam_dt = mu_dt + operator @ state
        else:
            depth = min(window, t)
            if depth:
                rows = (t - 1 - np.arange(depth)) % window
                summary = weights[:depth] @ buffer[rows]
                lam_dt = mu_dt + operator @ summary
            else:
                lam_dt = mu_dt.copy()
        peak = lam_dt.max() if size else 0.0
        if peak > explosion_guard:
            raise SimulationExplosionError(t, float(peak), explosion_guard)
        draws = rng.poisson(lam_dt)
        bins_run = t + 1
        if draws.any():
            stamp = (t + 0.5) * dt
            flat = np.flatnonzero(draws)
            # emit in (node, type) order within the bin
            flat = flat[np.lexsort((flat // n_nodes, flat % n_nodes))]
            for f in flat.tolist():
                count = int(draws[f])
                events.extend([(int(f % n_nodes), int(f // n_nodes), stamp)] * count)
                total += count
        if exponential:
            state = decay_step * (state + draws)
        else:
            buffer[t % window] = draws
        if stop_at_count is not None and total >= stop_at_count:
            break
    nodes, types, stamps = zip(*events) if events else ((), (), ())
    return event_table(nodes, types, stamps), bins_run


def oracle_plain_em(
    event_type: int,
    parents,
    cache: FeatureCache,
    config: EmConfig = EmConfig(),
    seed=0,
) -> TypeFit:
    """``fit_type`` without acceleration: ``_em_iteration`` looped until two
    consecutive log-likelihoods agree to ``rel_tolerance`` or the map cap.

    Same initialization draws as ``fit_type``; ``iterations`` counts the
    likelihood evaluations (maps plus the final rescore of a capped fit).
    """
    parents = tuple(sorted(int(p) for p in parents))
    data = type_batch(cache, event_type, [parents])
    if data.counts.shape[0] == 0:
        zeros = np.zeros((len(parents), cache.max_hops + 1))
        return TypeFit(event_type, parents, 0.0, zeros, 0.0, (0.0,), 0, True)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    empirical_rate = data.counts.sum() / (data.grid_cells * data.bin_width)
    best = None
    for child in root.spawn(config.restarts):
        rng = np.random.default_rng(child)
        mu = np.array([rng.uniform(0.5, 1.5) * empirical_rate])
        alpha = rng.uniform(0.0, 0.1, size=data.totals.shape[1])
        alpha[data.totals[0] <= 0] = 0.0
        alpha = alpha[None, :]
        trajectory = []
        for _ in range(config.max_iterations):
            with np.errstate(divide="ignore", invalid="ignore"):
                current, next_mu, next_alpha = _em_iteration(mu, alpha, data, [0])
            current = float(current[0])
            if current == float("-inf"):
                raise DegenerateModelError(
                    f"zero intensity at an occupied cell of type {event_type}"
                )
            converged = bool(trajectory) and abs(current - trajectory[-1]) <= (
                config.rel_tolerance * (abs(trajectory[-1]) + 1.0)
            )
            trajectory.append(current)
            if converged:
                break
            mu, alpha = next_mu, next_alpha
        else:
            trajectory.append(float(batch_log_likelihood(mu, alpha, data, [0])[1][0]))
        if best is None or trajectory[-1] > best[0]:
            best = (trajectory[-1], mu[0], alpha[0], trajectory, converged)
    final_ll, mu, alpha, trajectory, converged = best
    return TypeFit(
        event_type=event_type,
        parents=parents,
        mu=float(mu),
        alpha=alpha.reshape(len(parents), cache.max_hops + 1),
        log_lik=final_ll,
        trajectory=tuple(trajectory),
        iterations=len(trajectory),
        converged=converged,
    )
