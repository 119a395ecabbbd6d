"""Benchmark input generator: an exact branching construction of the model.

The discretized topological Hawkes model that ``hawkesnet`` fits is a
Poisson cluster process (Hawkes & Oakes 1974, "A cluster process
representation of a self-exciting process"):

- immigrants at each (node, type) cell number Poisson(mu * dt * bins) and
  sit in uniformly drawn bins;
- an event at (n', c, t') has Poisson(dt * sum_k alpha[c, v, k] *
  P^k[n', n] * r / (1 - r)) children at (n, v), with r = exp(-delta * dt);
- each child lands Geometric(1 - r) bins later; children past the horizon
  are dropped.

Drawing the clusters generation by generation costs O(events), with no
per-bin sweep, so the inputs stay cheap to build and independent of
``hawkesnet.simulate`` and its random stream. The causal graph is a DAG, so
the cascade ends after at most ``type_count`` generations.

To keep the amount of work steady across seeds, the topology and the DAG
have exactly ``round(degree * nodes / 2)`` and ``round(indegree * types)``
edges, and mu and alpha are stratified draws: the i-th smallest of ``m``
values lies in the i-th of ``m`` equal slices of its range.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Shape:
    """Size and parameter ranges of one generated instance."""

    nodes: int
    types: int
    degree: float
    indegree: float
    mu_range: tuple
    alpha_range: tuple
    delta: float
    dt: float
    k: int
    bins: int


@dataclass(frozen=True)
class Instance:
    """A generated instance: its truth and its events as column arrays."""

    shape: Shape
    seed: int
    topology: tuple  # sorted undirected (a, b) pairs, a < b
    edges: tuple  # sorted causal (c, v) pairs
    mu: np.ndarray  # (types,)
    alpha: np.ndarray  # (len(edges), k + 1)
    nodes: np.ndarray  # event columns, sorted by (bin, node, type)
    types: np.ndarray
    bins: np.ndarray

    @property
    def event_count(self) -> int:
        return int(self.nodes.shape[0])


def _stratified(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    """``size`` uniform draws, one from each equal slice of [lo, hi], shuffled."""
    slots = rng.permutation(size) + rng.random(size)
    return lo + (hi - lo) * slots / max(size, 1)


def _sample_pairs(rng: np.random.Generator, pairs: np.ndarray, count: int) -> np.ndarray:
    count = min(count, pairs.shape[0])
    pick = np.sort(rng.choice(pairs.shape[0], size=count, replace=False))
    return pairs[pick]


def hop_powers(nodes: int, topology, k: int) -> np.ndarray:
    """``P^0..P^k`` of the normalized adjacency ``D^-1/2 A D^-1/2``."""
    adjacency = np.zeros((nodes, nodes))
    for a, b in topology:
        adjacency[a, b] = adjacency[b, a] = 1.0
    degree = adjacency.sum(axis=1)
    inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.maximum(degree, 1.0)), 0.0)
    propagation = inv_sqrt[:, None] * adjacency * inv_sqrt[None, :]
    powers = np.empty((k + 1, nodes, nodes))
    powers[0] = np.eye(nodes)
    for hop in range(1, k + 1):
        powers[hop] = powers[hop - 1] @ propagation
    return powers


def offspring_means(shape: Shape, edges, alpha: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Mean children matrix ``B[c*N + n', v*N + n]`` of one event at (n', c)."""
    n, t = shape.nodes, shape.types
    r = math.exp(-shape.delta * shape.dt)
    means = np.zeros((t * n, t * n))
    for (c, v), a in zip(edges, alpha):
        kernel = np.tensordot(a, powers, axes=1)  # sum_k alpha_k P^k, (n', n)
        means[c * n : (c + 1) * n, v * n : (v + 1) * n] += kernel
    return means * shape.dt * r / (1.0 - r)


def generate(shape: Shape, seed: int) -> Instance:
    """Draw topology, DAG, parameters and events for ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7A5E]))
    n, t = shape.nodes, shape.types

    rows, cols = np.triu_indices(n, k=1)
    topo = _sample_pairs(rng, np.stack([rows, cols], axis=1), round(shape.degree * n / 2))
    topology = tuple(sorted((int(a), int(b)) for a, b in topo))

    order = rng.permutation(t)
    first, second = np.triu_indices(t, k=1)
    forward = np.stack([order[first], order[second]], axis=1)
    dag = _sample_pairs(rng, forward, round(shape.indegree * t))
    edges = tuple(sorted((int(c), int(v)) for c, v in dag))

    mu = _stratified(rng, *shape.mu_range, t)
    alpha = _stratified(rng, *shape.alpha_range, len(edges) * (shape.k + 1))
    alpha = alpha.reshape(len(edges), shape.k + 1)

    means = offspring_means(shape, edges, alpha, hop_powers(n, topology, shape.k))
    r = math.exp(-shape.delta * shape.dt)

    # generation 0: immigrants; cell index = type * n + node
    immigrants = rng.poisson(np.repeat(mu, n) * shape.dt * shape.bins)
    cells = np.repeat(np.arange(t * n), immigrants)
    stamps = rng.integers(0, shape.bins, size=cells.shape[0])
    all_cells, all_bins = [cells], [stamps]
    while cells.size:
        # children of all m events in a source cell: Poisson(m * B[cell]) per
        # target, each assigned to a uniform parent among those m events
        by_cell = np.argsort(cells, kind="stable")
        cells, stamps = cells[by_cell], stamps[by_cell]
        sources, starts, counts = np.unique(cells, return_index=True, return_counts=True)
        kids = rng.poisson(counts[:, None] * means[sources])
        src_row, target = np.nonzero(kids)
        per_pair = kids[src_row, target]
        src_row = np.repeat(src_row, per_pair)
        target = np.repeat(target, per_pair)
        parent = starts[src_row] + rng.integers(0, counts[src_row])
        delay = rng.geometric(1.0 - r, size=target.shape[0])
        child_bins = stamps[parent] + delay
        keep = child_bins < shape.bins
        cells, stamps = target[keep], child_bins[keep]
        all_cells.append(cells)
        all_bins.append(stamps)

    cells = np.concatenate(all_cells)
    bins = np.concatenate(all_bins)
    ev_nodes, ev_types = cells % n, cells // n
    order = np.lexsort((ev_types, ev_nodes, bins))
    return Instance(
        shape=shape,
        seed=int(seed),
        topology=topology,
        edges=edges,
        mu=mu,
        alpha=alpha,
        nodes=ev_nodes[order],
        types=ev_types[order],
        bins=bins[order],
    )


def expected_events(shape: Shape, edges, mu: np.ndarray, alpha: np.ndarray, topology) -> float:
    """Mean event count without horizon truncation: ``m0 (I - B)^-1 1``."""
    means = offspring_means(shape, edges, alpha, hop_powers(shape.nodes, topology, shape.k))
    immigrants = np.repeat(mu, shape.nodes) * shape.dt * shape.bins
    return float(immigrants @ np.linalg.solve(np.eye(means.shape[0]) - means, np.ones(means.shape[0])))


def write_instance(inst: Instance, out: str) -> None:
    """Write ``events.csv``, ``topology.txt`` and ``ground_truth.json``."""
    os.makedirs(out, exist_ok=True)
    shape = inst.shape
    stamps = (inst.bins + 0.5) * shape.dt
    lines = ["node,event_type,timestamp\n"]
    lines += [
        f"{a},{b},{s!r}\n"
        for a, b, s in zip(inst.nodes.tolist(), inst.types.tolist(), stamps.tolist())
    ]
    with open(os.path.join(out, "events.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    with open(os.path.join(out, "topology.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"# nodes: {shape.nodes}\n")
        fh.writelines(f"{a},{b}\n" for a, b in inst.topology)
    truth = {
        "format_version": FORMAT_VERSION,
        "type_count": shape.types,
        "k": shape.k,
        "delta": shape.delta,
        "dt": shape.dt,
        "node_count": shape.nodes,
        "score": None,
        "seed": inst.seed,
        "config": {**asdict(shape), "generator": "perfbench.gen"},
        "edges": [
            {"from": c, "to": v, "alpha": a.tolist()}
            for (c, v), a in zip(inst.edges, inst.alpha)
        ],
        "mu": inst.mu.tolist(),
    }
    with open(os.path.join(out, "ground_truth.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(truth, indent=2, sort_keys=True) + "\n")

