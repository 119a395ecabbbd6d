"""Independent loop-based reference implementations.

Everything in here is a direct transcription of the model definitions,
written with explicit Python loops over dense arrays. No code is shared
with the package internals (``oracle_sweep`` takes only the package's types
and its kernel lag grid), so agreement between the two routes is meaningful
evidence rather than a tautology. ``oracle_blockwise_features`` is the
exception in style: the earlier dense-sweep feature builder, vectorized with
:func:`scipy.signal.lfilter` so that long horizons stay cheap to check.
``oracle_plain_em`` is another: the plain EM loop around the package's own
EM map, the reference the accelerated ``fit_type`` must never score below.
The last ones keep earlier designs of the package as references for the
ones that replaced them, bit for bit: ``oracle_squarem`` runs SQUAREM as
one generator per fit around the package's map and jump, where ``fit_batch``
advances a batch's fits as rows; ``oracle_extrapolate`` is that jump in
numpy arithmetic; ``oracle_hill_climb`` lists, screens and scores every
legal move each round (``Move``, ``vicinity_moves``, ``apply_move``), where
``hill_climb`` keeps each move's gain across rounds;
``oracle_chunked_features`` scatters each chunk's features through a
destination index, where ``build_features`` stages them and copies out runs
of columns; and ``oracle_load_events_csv`` filters every line before it
parses, where ``load_events_csv`` parses the file directly.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

import hawkesnet.em as em_mod
import hawkesnet.features as features_mod
from hawkesnet.em import EmConfig, TypeFit, _em_iteration
from hawkesnet.errors import (
    DegenerateModelError,
    InvalidInputError,
    SimulationExplosionError,
    UnsupportedKernelError,
)
from hawkesnet.events import EVENT_DTYPE, EVENTS_HEADER, DiscreteDataset, event_table
from hawkesnet.features import FeatureCache
from hawkesnet.graph import CausalGraph, ThpParams
from hawkesnet.kernels import DecayKernel, ExponentialKernel
from hawkesnet.likelihood import batch_log_likelihood, bic_penalty, type_batch
from hawkesnet.simulate import _window_weights
from hawkesnet.topology import TopologyGraph

from .helpers import alpha_tensor, with_edge, with_reversed, without_edge


def has_cycle(graph: CausalGraph) -> bool:
    """True if the directed graph contains a cycle (self-loops count).

    Kahn's peeling: an acyclic graph loses every type by repeatedly removing
    the types that no remaining edge enters.
    """
    edges, left = set(graph.edges), set(range(graph.type_count))
    while True:
        sources = left - {v for _, v in edges}
        if not sources:
            return bool(left)
        left -= sources
        edges = {(c, v) for c, v in edges if c in left}


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
        type_values=tuple(
            values.reshape(n_types * (max_hops + 1), n_cells).take(cells, axis=1)
            for cells in type_cells
        ),
        totals=totals,
        type_counts=tuple(type_counts),
    )


def oracle_chunked_features(
    dataset: DiscreteDataset,
    topology: TopologyGraph,
    kernel: DecayKernel,
    max_hops: int,
) -> FeatureCache:
    """The previous production feature builder, kept as a reference.

    The same chunks, cumulative sums and ``einsum`` as ``build_features``
    (its ``_MAX_SPAN_EXPONENT`` and ``_CHUNK_ELEMENTS`` are read at each
    call), but each chunk's features go straight into the type blocks through
    a ``(channels, rows)`` destination index built per chunk.
    """
    if not isinstance(kernel, ExponentialKernel):
        raise UnsupportedKernelError(
            f"feature cache requires an exponential kernel, got {type(kernel).__name__}"
        )
    n_nodes = dataset.node_count
    n_types = dataset.type_count
    n_bins = dataset.bin_count
    dt = dataset.bin_width
    rate = kernel.decay * dt
    powers = topology.hop_matrices(max_hops)

    cell_keys = dataset.bins * n_nodes + dataset.nodes
    cell_keys.sort()
    cell_keys = cell_keys[np.diff(cell_keys, prepend=-1) != 0]
    cell_bins = cell_keys // n_nodes
    cell_nodes = cell_keys % n_nodes
    n_cells = cell_keys.shape[0]

    counts = dataset.counts.astype(float)
    type_starts = np.searchsorted(dataset.types, np.arange(n_types + 1))
    type_sizes = np.diff(type_starts)
    state_cols = dataset.types * n_nodes + dataset.nodes
    width = n_types * n_nodes

    tail = (
        math.exp(-rate)
        * -np.expm1(-rate * (n_bins - 1 - dataset.bins))
        / -math.expm1(-rate)
    )
    # one sum per hop over each type's rows, as build_features forms them:
    # the features are compared bit for bit, totals included
    tail_mass = counts * tail
    totals = np.zeros((n_types, max_hops + 1))
    for k, power in enumerate(powers):
        masses = np.append(tail_mass * power.sum(axis=1)[dataset.nodes], 0.0)
        totals[:, k] = np.add.reduceat(masses, type_starts[:-1])
    totals[type_sizes == 0] = 0.0

    # channel r at the cell of row j of type v sits at
    # j + (channels - 1) * type_starts[v] + r * type_sizes[v]
    channels = n_types * (max_hops + 1)
    buffer = np.empty(channels * dataset.types.shape[0])
    row_cells = np.searchsorted(cell_keys, dataset.bins * n_nodes + dataset.nodes)
    by_cell = np.argsort(row_cells, kind="stable")
    row_cells = row_cells[by_cell]
    channel_steps = np.arange(channels)[:, None]
    occ_bins, cell_occ = np.unique(cell_bins, return_inverse=True)
    n_occ = occ_bins.shape[0]
    order = np.argsort(dataset.bins, kind="stable")
    event_occ = np.searchsorted(occ_bins, dataset.bins[order])
    event_cols = state_cols[order]
    event_counts = counts[order]
    hop_cols = [p.T for p in powers]
    span_bins = features_mod._MAX_SPAN_EXPONENT / rate
    chunk_cells = max(1, features_mod._CHUNK_ELEMENTS // width)

    carry = np.zeros(width)
    s = c0 = e0 = r0 = 0
    while s < n_occ:
        e = int(np.searchsorted(occ_bins, occ_bins[s] + span_bins, side="right"))
        if c0 + chunk_cells < n_cells:
            e = min(e, int(cell_occ[c0 + chunk_cells]))
        e = max(e, s + 1)
        c1 = int(np.searchsorted(cell_occ, e))
        e1 = int(np.searchsorted(event_occ, e))

        offset = rate * (occ_bins[s:e] - occ_bins[s])
        rows = event_occ[e0:e1] - s
        rescaled = np.zeros((e - s, width))
        rescaled[rows, event_cols[e0:e1]] = event_counts[e0:e1] * np.exp(offset[rows])
        np.cumsum(rescaled, axis=0, out=rescaled)
        state = np.empty_like(rescaled)
        state[0] = carry
        np.add(rescaled[:-1], carry, out=state[1:])
        decay_back = np.exp(-offset)
        state *= decay_back[:, None]
        if e < n_occ:
            after_last = (carry + rescaled[-1]) * decay_back[-1]
            carry = after_last * math.exp(-rate * (occ_bins[e] - occ_bins[e - 1]))

        at_cells = state.reshape(e - s, n_types, n_nodes)[cell_occ[c0:c1] - s]
        nodes = cell_nodes[c0:c1]
        values = np.empty((n_types, max_hops + 1, c1 - c0))
        for k in range(max_hops + 1):
            values[:, k] = np.einsum("ctn,cn->tc", at_cells, hop_cols[k][nodes])
        r1 = int(np.searchsorted(row_cells, c1))
        hits = by_cell[r0:r1]
        owners = dataset.types[hits]
        at = hits + (channels - 1) * type_starts[owners] + channel_steps * type_sizes[owners]
        buffer[at] = values.reshape(channels, c1 - c0)[:, row_cells[r0:r1] - c0]
        s, c0, e0, r0 = e, c1, e1, r1

    return FeatureCache(
        node_count=n_nodes,
        type_count=n_types,
        bin_count=n_bins,
        bin_width=dt,
        max_hops=max_hops,
        total_events=dataset.total_events,
        cell_nodes=cell_nodes,
        cell_bins=cell_bins,
        type_values=tuple(
            buffer[channels * lo : channels * hi].reshape(channels, hi - lo)
            for lo, hi in zip(type_starts[:-1], type_starts[1:])
        ),
        totals=totals,
        type_counts=tuple(counts[lo:hi].copy() for lo, hi in zip(type_starts[:-1], type_starts[1:])),
    )


def oracle_load_events_csv(path: str) -> np.recarray:
    """The previous production event CSV reader, kept as a reference.

    Every line that holds only whitespace is dropped before ``np.loadtxt``
    sees it, and the first line left is the header.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = (line for line in fh if line.strip())
        header = next(lines, None)
        if header is None:
            return event_table([], [], [])
        names = next(csv.reader([header]))
        if tuple(name.strip() for name in names) != EVENTS_HEADER:
            raise InvalidInputError(
                f"{path}: expected header {','.join(EVENTS_HEADER)!r}, got {header.rstrip()!r}"
            )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header, no rows
                table = np.loadtxt(lines, dtype=EVENT_DTYPE, delimiter=",",
                                   comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: malformed event rows ({exc})") from exc
    if not np.isfinite(table["timestamp"]).all():
        raise InvalidInputError(f"{path}: non-finite timestamp")
    return table.view(np.recarray)


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

    The reference for the event-driven loop ``hawkesnet.simulate.simulate``:
    called the same way (with a Generator as the seed) and with the same return
    value. It shares only the kernel's lag grid (``_window_weights``) with the
    package.
    """
    n_nodes = topology.node_count
    n_types = causal_graph.type_count
    dt = bin_width
    powers = topology.hop_matrices(params.max_hops)
    tensor = alpha_tensor(params)  # (src, dst, k)
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
) -> TypeFit:
    """``fit_type`` without acceleration: ``_em_iteration`` looped until two
    consecutive log-likelihoods agree to ``rel_tolerance`` or the map cap.

    Same start as ``fit_type``: ``mu`` the empirical rate, ``alpha`` 0.05 on
    every channel with a positive feature total; ``iterations`` counts the
    likelihood evaluations (maps plus the final rescore of a capped fit).
    """
    parents = tuple(sorted(int(p) for p in parents))
    data = type_batch(cache, event_type, [parents])
    if data.counts.shape[0] == 0:
        zeros = np.zeros((len(parents), cache.max_hops + 1))
        return TypeFit(event_type, parents, 0.0, zeros, 0.0, (0.0,), 0, True)
    mu = np.array([data.counts.sum() / (data.grid_cells * data.bin_width)])
    alpha = np.where(data.totals > 0, 0.05, 0.0)
    trajectory = []
    for _ in range(config.max_iterations):
        with np.errstate(divide="ignore", invalid="ignore"):
            current, next_mu, next_alpha, _ = _em_iteration(mu, alpha, data, [0])
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
    return TypeFit(
        event_type=event_type,
        parents=parents,
        mu=float(mu[0]),
        alpha=np.asarray(alpha[0], dtype=float).reshape(len(parents), cache.max_hops + 1),
        log_lik=trajectory[-1],
        trajectory=tuple(trajectory),
        iterations=len(trajectory),
        converged=converged,
    )


def oracle_extrapolate(p0: tuple, p1: tuple, p2: tuple, step_max: float) -> tuple:
    """The SqS3 jump of ``hawkesnet.em._extrapolate``, in numpy array arithmetic.

    ``p = (mu, alpha)``; ``step = |r| / |v|`` clamped to ``[1, step_max]``,
    the jump ``p0 + 2 step r + step^2 v`` projected onto ``mu, alpha >= 0``,
    and ``p2`` itself for a unit step. Returns ``(jump, step)``.
    """
    (mu0, alpha0), (mu1, alpha1), (mu2, alpha2) = p0, p1, p2
    alpha0, alpha1, alpha2 = (np.asarray(a, dtype=float) for a in (alpha0, alpha1, alpha2))
    r_mu, r = mu1 - mu0, alpha1 - alpha0
    v_mu, v = mu2 - mu1 - r_mu, alpha2 - alpha1 - r
    v_norm = math.hypot(v_mu, *v.tolist())
    step = min(max(math.hypot(r_mu, *r.tolist()) / v_norm, 1.0), step_max) if v_norm > 0.0 else 1.0
    if step == 1.0:
        return p2, step
    mu = max(mu0 + 2.0 * step * r_mu + step * step * v_mu, 0.0)
    alpha = alpha0 + (2.0 * step) * r + (step * step) * v
    return (mu, np.maximum(alpha, 0.0, out=alpha)), step


def _squarem_path(x: tuple, config: EmConfig, event_type: int):
    """SQUAREM from the point ``x = (mu, alpha)``, one EM map at a time.

    A generator: it yields each point it needs mapped and is sent back
    ``(log_lik of the point, F(point))``. It returns ``(final point,
    trajectory, converged, maps)``; when the map cap ends the fit the
    caller appends the rescore of the final point.
    """

    def scored(mapped):
        if mapped[0] == float("-inf"):
            raise DegenerateModelError(f"zero intensity at an occupied cell of type {event_type}")
        return mapped

    def small(gain, log_lik):
        return abs(gain) <= config.rel_tolerance * (abs(log_lik) + 1.0)

    log_lik, x1 = scored((yield x))
    maps = 1
    trajectory = [log_lik]
    newest = x1  # the latest unscored point on the monotone path
    step_max = 1.0
    while maps < config.max_iterations:
        ll1, x2 = scored((yield x1))
        maps += 1
        newest = x2
        jump, step = em_mod._extrapolate(x, x1, x2, step_max)
        if small(step * (ll1 - log_lik), log_lik):
            trajectory.append(ll1)
            return x1, trajectory, True, maps
        if maps == config.max_iterations:
            break
        accepted = False
        if step > 1.0 and maps + 1 < config.max_iterations:
            maps += 1
            ll_jump, after_jump = yield jump
            accepted = math.isfinite(ll_jump) and ll_jump >= ll1
        if step == step_max:
            grow = accepted or step == 1.0
            step_max = step_max * 4.0 if grow else max(1.0, step_max / 4.0)
        if accepted:
            x, log_lik, x1 = jump, ll_jump, after_jump
        else:
            x = x2
            log_lik, x1 = scored((yield x))
            maps += 1
        newest = x1
        converged = not accepted and small(log_lik - trajectory[-1], trajectory[-1])
        trajectory.append(log_lik)
        if converged:
            return x, trajectory, True, maps
    return newest, trajectory, False, maps


def oracle_squarem(event_type: int, parent_sets, cache: FeatureCache, config: EmConfig = EmConfig()) -> list:
    """``fit_batch`` as one generator per fit (:func:`_squarem_path`).

    Every pass gathers the point each running generator yields, maps them in
    one ``_em_iteration`` call and sends each its result back. The jump is
    ``hawkesnet.em._extrapolate``, looked up at each step, so a test that
    patches it patches both routes.
    """
    parent_sets = [tuple(sorted(int(p) for p in parents)) for parents in parent_sets]
    hops = cache.max_hops + 1
    data = type_batch(cache, event_type, parent_sets)
    if data.counts.shape[0] == 0:
        return [TypeFit(event_type, parents, 0.0, np.zeros((len(parents), hops)), 0.0, (0.0,), 0, True)
                for parents in parent_sets]
    rate = data.counts.sum() / (data.grid_cells * data.bin_width)
    fits = [_squarem_path((rate, np.where(totals > 0, 0.05, 0.0)), config, event_type)
            for totals in data.totals]
    pending = {j: fit.send(None) for j, fit in enumerate(fits)}
    results = [None] * len(fits)
    with np.errstate(all="ignore"):
        while pending:
            live = list(pending)
            log_lik, mu, alpha, _ = _em_iteration(
                np.array([pending[j][0] for j in live]),
                np.array([np.asarray(pending[j][1], dtype=float) for j in live]),
                data,
                live,
            )
            for j, ll, mu_j, alpha_j in zip(live, log_lik, mu, alpha):
                try:
                    pending[j] = fits[j].send((ll, (mu_j, alpha_j)))
                except StopIteration as stop:
                    del pending[j]
                    results[j] = stop.value
        capped = [j for j, result in enumerate(results) if not result[2]]
        if capped:
            _, rescored, _ = batch_log_likelihood(
                np.array([results[j][0][0] for j in capped]),
                np.array([np.asarray(results[j][0][1], dtype=float) for j in capped]),
                data,
                capped,
            )
            for j, value in zip(capped, rescored):
                results[j][1].append(value)
    return [
        TypeFit(event_type, parents, float(mu), np.array(alpha, dtype=float).reshape(len(parents), hops),
                trajectory[-1], tuple(trajectory), maps + (not converged), converged)
        for parents, ((mu, alpha), trajectory, converged, maps) in zip(parent_sets, results)
    ]


_KIND_ORDER = {"add": 0, "delete": 1, "reverse": 2}
_EDGE_DELTA = {"add": 1, "delete": -1, "reverse": 0}


@dataclass(frozen=True)
class Move:
    """A single edit: add or delete ``edge``, or replace it by its reverse.

    Unpacks as the package's ``(kind, edge)`` move pair.
    """

    kind: str
    edge: tuple

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise InvalidInputError(f"unknown move kind {self.kind!r}")

    def __iter__(self):
        return iter((self.kind, self.edge))

    def changed_types(self) -> tuple:
        src, dst = self.edge
        if self.kind == "reverse":
            return (dst, src) if dst != src else (dst,)
        return (dst,)

    def describe(self) -> str:
        src, dst = self.edge
        return f"{self.kind} {src}->{dst}"


def apply_move(graph: CausalGraph, move: Move) -> CausalGraph:
    src, dst = move.edge
    if move.kind == "add":
        if (src, dst) in graph.edges:
            raise InvalidInputError(f"cannot add existing edge {move.edge}")
        return with_edge(graph, (src, dst))
    if move.kind == "delete":
        if (src, dst) not in graph.edges:
            raise InvalidInputError(f"cannot delete absent edge {move.edge}")
        return without_edge(graph, (src, dst))
    if (src, dst) not in graph.edges or src == dst or (dst, src) in graph.edges:
        raise InvalidInputError(f"cannot reverse edge {move.edge}")
    return with_reversed(graph, (src, dst))


def vicinity_moves(graph: CausalGraph, allow_cycles: bool = True) -> list:
    """All legal single moves, in canonical (source, target, kind) order.

    With ``allow_cycles=False`` the graph must be acyclic, and moves whose
    result contains a directed cycle (self-loops included) are dropped:
    adding ``c -> v`` closes one iff ``c == v`` or ``v`` reaches ``c``,
    reversing ``c -> v`` iff ``c`` reaches ``v`` through another child.
    """
    moves = []
    n = graph.type_count
    for src in range(n):
        for dst in range(n):
            edge = (src, dst)
            if edge not in graph.edges:
                moves.append(Move("add", edge))
            else:
                moves.append(Move("delete", edge))
                if src != dst and (dst, src) not in graph.edges:
                    moves.append(Move("reverse", edge))
    if allow_cycles:
        return moves
    children = [[] for _ in range(n)]
    for a, b in graph.edges:
        children[a].append(b)
    reach = []  # reach[a]: the types a path of one edge or more leads to from a
    for root in range(n):
        seen = set()
        stack = [root]
        while stack:
            for child in children[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        reach.append(seen)
    if any(v in reach[v] for v in range(n)):
        raise InvalidInputError("an acyclic vicinity needs an acyclic graph")

    def keeps_acyclic(move: Move) -> bool:
        src, dst = move.edge
        if move.kind == "add":
            return src != dst and src not in reach[dst]
        if move.kind == "reverse":  # dst is not in reach[dst]: the edge itself never counts
            return not any(dst in reach[w] for w in children[src])
        return True

    return [m for m in moves if keeps_acyclic(m)]


def parents_after(parents: list, move: Move, event_type: int) -> tuple:
    """Sorted parents of a type the move changes, after the move."""
    src, dst = move.edge
    before = parents[event_type]
    if move.kind == "add":
        return tuple(sorted(before + (src,)))
    if move.kind == "delete" or event_type == dst:
        return tuple(p for p in before if p != src)
    return tuple(sorted(before + (dst,)))


def oracle_move_scores(moves: list, state, cache: FeatureCache) -> np.ndarray:
    """Penalized score after each move (``None``: as is), every move's shares
    fitted and its row of per-type shares summed left to right."""
    changed = [
        (row, (v, parents_after(state.parents, move, v)))
        for row, move in enumerate(moves)
        if move is not None
        for v in move.changed_types()
    ]
    keys = [key for _, key in changed]
    state.fit_missing(keys, cache)
    shares = np.tile([f.log_lik for f in state.fits], (len(moves), 1))
    rows, types = [row for row, _ in changed], [v for v, _ in keys]
    shares[rows, types] = [state.memo[key].log_lik for key in keys]
    deltas = [0 if move is None else _EDGE_DELTA[move.kind] for move in moves]
    penalty = {
        delta: bic_penalty(cache.type_count, state.edge_count + delta, cache.max_hops, cache.total_events)
        for delta in set(deltas)
    }
    return np.cumsum(shares, axis=1)[:, -1] - np.array([penalty[d] for d in deltas])


def oracle_unscreened(moves: list, state, cache: FeatureCache) -> list:
    """Indices of the ``moves`` the safe screen keeps: every move but the adds
    (and reversals) whose new parent's Cover bound, plus the rounding margin,
    stays below one edge's charge."""
    penalty = [
        bic_penalty(cache.type_count, state.edge_count + d, cache.max_hops, cache.total_events)
        for d in (0, 1)
    ]
    charge = penalty[1] - penalty[0]
    ruled_out = {}
    kept = []
    for i, move in enumerate(moves):
        if move.kind != "delete":
            parent, gains = move.edge if move.kind == "add" else move.edge[::-1]
            if gains not in ruled_out:
                _, added = state.gap(gains, cache)
                margin = 1e-9 * (abs(state.fits[gains].log_lik) + 1.0)
                ruled_out[gains] = (added + margin < charge).tolist()
            if ruled_out[gains][parent]:
                continue
        kept.append(i)
    return kept


def oracle_hill_climb(cache: FeatureCache, *, em_config: EmConfig = EmConfig(), allow_cycles: bool = True,
                      screen=oracle_unscreened):
    """The full-round greedy climb, as a ``hawkesnet.search.SearchResult``.

    Every round lists every legal move between types with events, screens
    them with ``screen`` and scores the rest, then applies the best strictly
    improving one (ties to the first in canonical order). Fits go through
    the package's ``SearchState`` memo.
    """
    from hawkesnet.search import SearchResult, SearchState

    state = SearchState.empty(cache, em_config)
    graph = CausalGraph(cache.type_count)
    score = float(oracle_move_scores([None], state, cache)[0])
    trajectory, trace = [score], []
    screened = 0
    while True:
        moves = [m for m in vicinity_moves(graph, allow_cycles)
                 if all(cache.type_counts[v].shape[0] > 0 for v in m.edge)]
        kept = screen(moves, state, cache)
        screened += len(moves) - len(kept)
        scores = np.full(len(moves), -np.inf)
        scores[kept] = oracle_move_scores([moves[i] for i in kept], state, cache)
        better = np.flatnonzero(scores > score)
        if better.size == 0:
            break
        best = better[np.argmax(scores[better])]
        move, score = moves[best], float(scores[best])
        graph = apply_move(graph, move)
        for v in move.changed_types():
            state.parents[v] = parents_after(state.parents, move, v)
            state.fits[v] = state.memo[(v, state.parents[v])]
        state.edge_count += _EDGE_DELTA[move.kind]
        trajectory.append(score)
        trace.append({"round": len(trace) + 1, "move": move.kind, "edge": list(move.edge),
                      "edges": graph.edge_count, "score": score})
    fits = tuple(state.fits)
    return SearchResult(
        graph=graph,
        params=em_mod.assemble_params(fits, cache.max_hops),
        score=score,
        log_lik=float(sum(f.log_lik for f in fits)),
        rounds=len(trace),
        trajectory=tuple(trajectory),
        fit_evaluations=len(state.memo),
        type_fits=fits,
        em_maps=sum(f.iterations - (not f.converged) for f in state.memo.values()),
        nonconverged_fits=sum(not f.converged for f in state.memo.values()),
        screened_moves=screened,
        fit_gaps=tuple(state.gap(v, cache)[0] for v in range(cache.type_count)),
        trace=tuple(trace),
        paused_fits=0,
        resumed_fits=0,
    )
