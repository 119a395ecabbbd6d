"""Builders for small randomized test instances.

A tiny instance bundles a dense count array with the package-side objects
built from it, so tests can compare vectorized code against loop oracles
on the exact same data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hawkesnet.em import EmConfig, _em_iteration, assemble_params, fit_type
from hawkesnet.errors import InvalidInputError
from hawkesnet.events import DiscreteDataset, discretize, event_table
from hawkesnet.features import FeatureCache, build_features
from hawkesnet.graph import CausalGraph, ThpParams
from hawkesnet.kernels import ExponentialKernel
from hawkesnet.likelihood import batch_log_likelihood, type_batch
from hawkesnet.topology import TopologyGraph, build_topology


@dataclass
class TinyInstance:
    dense: np.ndarray  # counts, shape (nodes, types, bins)
    bin_width: float
    decay: float
    max_hops: int
    topology: TopologyGraph
    graph: CausalGraph
    params: ThpParams
    dataset: DiscreteDataset
    cache: FeatureCache

    @property
    def kernel(self) -> ExponentialKernel:
        return ExponentialKernel(self.decay)


def rows_to_table(rows) -> np.recarray:
    """Event table from ``(node, event_type, timestamp)`` tuples."""
    rows = list(rows)
    return event_table(*zip(*rows)) if rows else event_table([], [], [])


def events_per_type(dataset: DiscreteDataset) -> np.ndarray:
    """Total event count of each type, shape ``(type_count,)``."""
    totals = np.zeros(dataset.type_count, dtype=np.int64)
    np.add.at(totals, dataset.types, dataset.counts)
    return totals


def count_at(dataset: DiscreteDataset, node: int, event_type: int, time_bin: int) -> int:
    """Events in one cell; 0 when the cell is unoccupied."""
    rows = dataset.type_rows(event_type)
    key = dataset.bins[rows] * dataset.node_count + dataset.nodes[rows]
    idx = np.searchsorted(key, time_bin * dataset.node_count + node)
    if idx < key.shape[0] and key[idx] == time_bin * dataset.node_count + node:
        return int(dataset.counts[rows][idx])
    return 0


def with_edge(graph: CausalGraph, edge: tuple[int, int]) -> CausalGraph:
    return CausalGraph(graph.type_count, graph.edges | {tuple(edge)})


def without_edge(graph: CausalGraph, edge: tuple[int, int]) -> CausalGraph:
    return CausalGraph(graph.type_count, graph.edges - {tuple(edge)})


def with_reversed(graph: CausalGraph, edge: tuple[int, int]) -> CausalGraph:
    a, b = edge
    if (a, b) not in graph.edges:
        raise InvalidInputError(f"edge {edge} not present")
    return CausalGraph(graph.type_count, (graph.edges - {(a, b)}) | {(b, a)})


def dense_to_records(dense: np.ndarray, bin_width: float) -> np.recarray:
    """Expand a count array into an event table at bin centers."""
    rows = []
    nodes, types, bins = dense.shape
    for n in range(nodes):
        for v in range(types):
            for t in range(bins):
                rows.extend([(n, v, (t + 0.5) * bin_width)] * int(dense[n, v, t]))
    return rows_to_table(rows)


def dense_to_dataset(dense: np.ndarray, bin_width: float) -> DiscreteDataset:
    nodes, types, bins = dense.shape
    return discretize(
        dense_to_records(dense, bin_width),
        bin_width,
        bins * bin_width,
        node_count=nodes,
        type_count=types,
    )


def dataset_to_dense(dataset: DiscreteDataset) -> np.ndarray:
    dense = np.zeros(
        (dataset.node_count, dataset.type_count, dataset.bin_count), dtype=np.int64
    )
    np.add.at(
        dense,
        (dataset.nodes, dataset.types, dataset.bins),
        dataset.counts,
    )
    return dense


def type_cell_coords(dataset: DiscreteDataset, event_type: int) -> tuple[np.ndarray, np.ndarray]:
    """``(nodes, bins)`` of the cells behind the columns of ``type_values[event_type]``."""
    rows = dataset.type_rows(event_type)
    return dataset.nodes[rows], dataset.bins[rows]


def random_symmetric_edges(rng: np.random.Generator, nodes: int, prob: float = 0.5):
    edges = []
    for a in range(nodes):
        for b in range(a + 1, nodes):
            if rng.random() < prob:
                edges.append((a, b))
    return edges


def random_instance(
    rng: np.random.Generator,
    *,
    max_nodes: int = 4,
    max_types: int = 3,
    max_bins: int = 30,
    max_hops: int | None = None,
    event_rate: float = 0.25,
    mu_range: tuple[float, float] = (0.1, 0.5),
    alpha_range: tuple[float, float] = (0.02, 0.2),
    edge_prob: float = 0.5,
    min_events: int = 1,
    bin_widths: tuple[float, ...] = (0.5, 1.0, 2.0),
    decays: tuple[float, ...] = (0.11, 0.5, 1.0),
) -> TinyInstance:
    """Draw a random tiny instance with nonzero intensities everywhere."""
    nodes = int(rng.integers(1, max_nodes + 1))
    types = int(rng.integers(1, max_types + 1))
    bins = int(rng.integers(2, max_bins + 1))
    hops = int(rng.integers(0, 3)) if max_hops is None else max_hops
    bin_width = float(rng.choice(bin_widths))
    decay = float(rng.choice(decays))

    topology = build_topology(nodes, random_symmetric_edges(rng, nodes, 0.5))

    causal_edges = []
    for src in range(types):
        for dst in range(types):
            if rng.random() < edge_prob:
                causal_edges.append((src, dst))
    graph = CausalGraph(types, causal_edges)

    mu = rng.uniform(*mu_range, size=types)
    alpha = {
        edge: rng.uniform(*alpha_range, size=hops + 1)
        for edge in sorted(graph.edges)
    }
    params = ThpParams(mu=mu, alpha=alpha, max_hops=hops)

    dense = rng.poisson(event_rate, size=(nodes, types, bins))
    while dense.sum() < min_events:
        dense[
            rng.integers(nodes), rng.integers(types), rng.integers(bins)
        ] += 1

    dataset = dense_to_dataset(dense, bin_width)
    cache = build_features(dataset, topology, ExponentialKernel(decay), hops)
    return TinyInstance(
        dense=dense,
        bin_width=bin_width,
        decay=decay,
        max_hops=hops,
        topology=topology,
        graph=graph,
        params=params,
        dataset=dataset,
        cache=cache,
    )


def param_arrays(params: ThpParams) -> tuple[np.ndarray, dict]:
    """``params.mu`` and each edge's ``params.alpha`` as float arrays, fresh copies."""
    return np.array(params.mu), {edge: np.array(a) for edge, a in params.alpha.items()}


def alpha_tensor(params: ThpParams) -> np.ndarray:
    """Dense ``(type_count, type_count, max_hops+1)`` array of ``params.alpha``, zeros off-edge."""
    out = np.zeros((params.type_count, params.type_count, params.max_hops + 1))
    for (c, v), weights in params.alpha.items():
        out[c, v] = weights
    return out


def type_point(params: ThpParams, graph: CausalGraph, cache: FeatureCache, event_type: int):
    """``(batch, mu, alpha)``: one type's production batch and its point under ``params``.

    ``mu`` and ``alpha`` are one-row arrays, ``alpha`` flattened in the
    batch's ``(parent, hop)`` order.
    """
    params.validate_for(graph)
    parents = graph.parents(event_type)
    alpha = np.concatenate([params.alpha[(c, event_type)] for c in parents] + [np.zeros(0)])
    return type_batch(cache, event_type, [parents]), np.array(params.mu)[[event_type]], alpha[None, :]


def type_intensities(
    params: ThpParams, graph: CausalGraph, cache: FeatureCache, event_type: int
) -> np.ndarray:
    """The production intensity of one type at its cells, in ``type_cell_coords`` order."""
    batch, mu, alpha = type_point(params, graph, cache, event_type)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam, _, _ = batch_log_likelihood(mu, alpha, batch, [0])
    return lam[0].copy()


def log_likelihood(params: ThpParams, graph: CausalGraph, cache: FeatureCache) -> float:
    """The production log-likelihood: each type's ``batch_log_likelihood`` share, summed.

    ``-inf`` if the model puts zero intensity on a cell that holds events.
    """
    total = 0.0
    for v in range(graph.type_count):
        batch, mu, alpha = type_point(params, graph, cache, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, share, _ = batch_log_likelihood(mu, alpha, batch, [0])
        total += float(share[0])
    return total


def em_iteration(
    params: ThpParams, graph: CausalGraph, cache: FeatureCache
) -> tuple[ThpParams, np.ndarray]:
    """One production EM map (the one ``fit_type`` accelerates) from ``params``.

    Returns the updated parameters and, per type, the events the update
    expects: ``dt * (mu' * node_count * bin_count + alpha' @ totals)``.
    """
    mu = np.zeros(graph.type_count)
    alpha = {}
    expected = np.zeros(graph.type_count)
    for v in range(graph.type_count):
        batch, mu_v, alpha_v = type_point(params, graph, cache, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, mu_v, alpha_v, _ = _em_iteration(mu_v, alpha_v, batch, [0])
        mu[v], updated = mu_v[0], np.asarray(alpha_v[0], dtype=float)
        expected[v] = batch.bin_width * (mu[v] * batch.grid_cells + updated @ batch.totals[0])
        parents = graph.parents(v)
        for parent, row in zip(parents, updated.reshape(len(parents), cache.max_hops + 1)):
            alpha[(parent, v)] = row
    return ThpParams(mu=mu, alpha=alpha, max_hops=cache.max_hops), expected


def em_gradient(
    params: ThpParams, graph: CausalGraph, cache: FeatureCache
) -> tuple[np.ndarray, dict]:
    """The log-likelihood gradient that the production EM map implies.

    The map's multiplicative updates ``mu' = mu * sum(X / lam) / (dt *
    grid_cells)`` and ``alpha' = alpha * F^T (X / lam) / (dt * totals)``
    give ``dL/dmu = dt * grid_cells * (mu' / mu - 1)`` and ``dL/dalpha = dt
    * totals * (alpha' / alpha - 1)``. Needs ``mu, alpha > 0``. Returns
    ``(grad_mu, grad_alpha)`` with ``grad_alpha`` keyed like ``params.alpha``.
    """
    updated, _ = em_iteration(params, graph, cache)
    charge = cache.bin_width * cache.node_count * cache.bin_count
    (mu, alpha), (new_mu, new_alpha) = param_arrays(params), param_arrays(updated)
    grad_mu = charge * (new_mu / mu - 1.0)
    grad_alpha = {
        (c, v): cache.bin_width * cache.totals[c] * (new_alpha[(c, v)] / a - 1.0)
        for (c, v), a in alpha.items()
    }
    return grad_mu, grad_alpha


def finite_difference(
    params: ThpParams, graph: CausalGraph, cache: FeatureCache, rel_step: float = 1e-6
) -> tuple[np.ndarray, dict]:
    """Central finite differences of :func:`log_likelihood`, shaped like :func:`em_gradient`."""

    def central(mu_up, mu_down, alpha_up, alpha_down, h):
        up = log_likelihood(ThpParams(mu_up, alpha_up, params.max_hops), graph, cache)
        down = log_likelihood(ThpParams(mu_down, alpha_down, params.max_hops), graph, cache)
        return (up - down) / (2 * h)

    mu, alpha = param_arrays(params)
    grad_mu = np.zeros_like(mu)
    for v in range(params.type_count):
        h = rel_step * max(mu[v], 1e-3)
        up, down = mu.copy(), mu.copy()
        up[v] += h
        down[v] -= h
        grad_mu[v] = central(up, down, alpha, alpha, h)
    grad_alpha = {}
    for edge in alpha:
        vec = np.zeros(params.max_hops + 1)
        for k in range(params.max_hops + 1):
            h = rel_step * max(alpha[edge][k], 1e-3)
            up = {e: a.copy() for e, a in alpha.items()}
            up[edge][k] += h
            down = {e: a.copy() for e, a in alpha.items()}
            down[edge][k] -= h
            vec[k] = central(mu, mu, up, down, h)
        grad_alpha[edge] = vec
    return grad_mu, grad_alpha


@dataclass(frozen=True)
class FitResult:
    """Joint fit over all types."""

    params: ThpParams
    log_lik: float
    trajectory: tuple
    iterations: int  # of the type fit that took the most
    converged: bool
    type_fits: tuple


def fit(graph: CausalGraph, cache: FeatureCache, config: EmConfig = EmConfig()) -> FitResult:
    """Fit all types of a fixed graph with ``fit_type``; trajectory is the per-iteration sum.

    Shorter per-type trajectories are padded with their final value, so the
    summed trajectory keeps the nondecreasing property.
    """
    if graph.type_count != cache.type_count:
        raise InvalidInputError(f"graph covers {graph.type_count} types, cache {cache.type_count}")
    fits = [fit_type(v, graph.parents(v), cache, config) for v in range(graph.type_count)]
    joint = np.zeros(max(len(f.trajectory) for f in fits))
    for f in fits:
        traj = np.asarray(f.trajectory)
        joint[: traj.shape[0]] += traj
        joint[traj.shape[0] :] += traj[-1]
    return FitResult(
        params=assemble_params(fits, cache.max_hops),
        log_lik=float(sum(f.log_lik for f in fits)),
        trajectory=tuple(float(x) for x in joint),
        iterations=max(f.iterations for f in fits),
        converged=all(f.converged for f in fits),
        type_fits=tuple(fits),
    )


def assert_same_fit(a, b):
    """Every field of two fits equal, floats bit for bit."""
    assert (a.event_type, a.parents, a.mu, a.log_lik) == (b.event_type, b.parents, b.mu, b.log_lik)
    assert a.alpha.shape == b.alpha.shape and np.array_equal(a.alpha, b.alpha)
    assert (a.trajectory, a.iterations, a.converged) == (b.trajectory, b.iterations, b.converged)
