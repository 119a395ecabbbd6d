"""Excitation features: decayed event history propagated through the topology.

For each cause type ``c`` the builder maintains the per-node decayed summary

    S_c(n, t) = sum_{t' < t} kappa((t - t') * dt) * X[n, c, t']

via the exponential recursion ``S(t) = e^{-decay*dt} (S(t-dt) + X(t-dt))``,
then propagates it ``k`` hops through the normalized adjacency:

    features[c, k, (n, t)] = sum_{n'} P^k[n', n] * S_c(n', t).

Only cells ``(n, t)`` where at least one event of any type occurred are
materialized, and the closed-form totals ``sum_{n,t} features[c, k]`` cover
the integral term of the likelihood, so the cache's size scales with the
number of events. Building it does not: the builder currently sweeps every
bin, so its cost scales with ``node_count * bin_count``.

The recursion is run blockwise with :func:`scipy.signal.lfilter` carrying
filter state across blocks, and each block is propagated with one matrix
product per hop. Everything here is independent of the causal graph and of
the rate parameters, so one cache serves every candidate scored by the
structure search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .errors import InvalidInputError, UnsupportedKernelError
from .events import DiscreteDataset
from .kernels import DecayKernel, ExponentialKernel
from .topology import TopologyGraph

__all__ = ["FeatureCache", "build_features"]


@dataclass(frozen=True)
class FeatureCache:
    """Propagated excitation features at occupied cells, plus their totals.

    Attributes
    ----------
    values:
        Array of shape ``(type_count, max_hops + 1, cell_count)``;
        ``values[c, k, i]`` is the k-hop feature of cause type ``c`` at the
        i-th occupied cell.
    totals:
        ``(type_count, max_hops + 1)``; ``totals[c, k]`` sums the k-hop
        feature of cause type ``c`` over *all* cells of the grid.
    cell_nodes, cell_bins:
        Coordinates of the occupied cells, sorted by (bin, node). A cell is
        occupied if any event of any type fell into it.
    type_cells, type_counts:
        Per event type: indices into the cell arrays and the event counts at
        those cells.
    """

    node_count: int
    type_count: int
    bin_count: int
    bin_width: float
    max_hops: int
    total_events: int
    cell_nodes: np.ndarray = field(repr=False)
    cell_bins: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    totals: np.ndarray = field(repr=False)
    type_cells: tuple = field(repr=False)
    type_counts: tuple = field(repr=False)

    @property
    def cell_count(self) -> int:
        return self.cell_nodes.shape[0]

    def cell_index(self, node: int, time_bin: int) -> int:
        """Index of an occupied cell; raises if the cell is not cached."""
        keys = self.cell_bins * self.node_count + self.cell_nodes
        key = time_bin * self.node_count + node
        idx = int(np.searchsorted(keys, key))
        if idx < keys.shape[0] and keys[idx] == key:
            return idx
        raise InvalidInputError(
            f"cell (node={node}, bin={time_bin}) holds no events and is not cached"
        )

    def features_for(self, event_type: int, parents) -> tuple[np.ndarray, np.ndarray]:
        """Feature block and event counts for one target type.

        Returns ``(F, counts)`` where ``F`` has shape
        ``(n_cells_of_type, len(parents), max_hops + 1)`` and ``counts`` the
        event counts at those cells.
        """
        idx = self.type_cells[event_type]
        counts = self.type_counts[event_type]
        parents = list(parents)
        if not parents:
            return np.zeros((idx.shape[0], 0, self.max_hops + 1)), counts
        block = self.values[parents][:, :, idx]  # (P, K+1, n)
        return np.moveaxis(block, 2, 0), counts

    def totals_for(self, parents) -> np.ndarray:
        """``totals`` rows for the given cause types, shape ``(P, max_hops+1)``."""
        parents = list(parents)
        if not parents:
            return np.zeros((0, self.max_hops + 1))
        return self.totals[parents]

    def truncated(self, max_hops: int) -> "FeatureCache":
        """A view of this cache restricted to hops ``0..max_hops``.

        Hop features are independent across k, so dropping the higher hops
        yields exactly the cache that a fresh build at the smaller order
        would produce.
        """
        if max_hops == self.max_hops:
            return self
        if not (0 <= max_hops < self.max_hops):
            raise InvalidInputError(
                f"cannot truncate a max_hops={self.max_hops} cache to {max_hops}"
            )
        return FeatureCache(
            node_count=self.node_count,
            type_count=self.type_count,
            bin_count=self.bin_count,
            bin_width=self.bin_width,
            max_hops=max_hops,
            total_events=self.total_events,
            cell_nodes=self.cell_nodes,
            cell_bins=self.cell_bins,
            values=self.values[:, : max_hops + 1],
            totals=self.totals[:, : max_hops + 1],
            type_cells=self.type_cells,
            type_counts=self.type_counts,
        )


def build_features(
    dataset: DiscreteDataset,
    topology: TopologyGraph,
    kernel: DecayKernel,
    max_hops: int,
    *,
    block_bins: int = 1 << 17,
) -> FeatureCache:
    """Build the :class:`FeatureCache` for a dataset on a topology.

    Only exponential kernels are supported here: the cache relies on the
    semigroup recursion for O(events) cost.
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
