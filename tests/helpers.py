"""Builders for small randomized test instances.

A tiny instance bundles a dense count array with the package-side objects
built from it, so tests can compare vectorized code against loop oracles
on the exact same data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hawkesnet.em import _em_iteration
from hawkesnet.events import DiscreteDataset, discretize, event_table
from hawkesnet.features import FeatureCache, build_features
from hawkesnet.kernels import ExponentialKernel
from hawkesnet.likelihood import CausalGraph, ThpParams, _alpha_vector, type_data
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

    topology = build_topology(
        nodes, random_symmetric_edges(rng, nodes, 0.5), max_hops=hops
    )

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
        parents = graph.parents(v)
        data = type_data(cache, v, parents)
        _, mu[v], updated = _em_iteration(
            params.mu[v], _alpha_vector(params, v, parents), data
        )
        expected[v] = data.bin_width * (mu[v] * data.grid_cells + updated @ data.totals)
        for parent, row in zip(parents, updated.reshape(len(parents), cache.max_hops + 1)):
            alpha[(parent, v)] = row
    return ThpParams(mu=mu, alpha=alpha, max_hops=cache.max_hops), expected
