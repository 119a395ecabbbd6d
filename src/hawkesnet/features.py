"""Excitation features: decayed event history propagated through the topology.

For each cause type ``c`` the per-node decayed summary is

    S_c(n, t) = sum_{t' < t} r^(t - t') * X[n, c, t'],    r = e^{-decay*dt},

and ``k`` hops through the normalized adjacency give

    features[c, k, (n, t)] = sum_{n'} P^k[n', n] * S_c(n', t).

Only cells ``(n, t)`` where at least one event of any type occurred are
materialized. The totals ``sum_{n,t} features[c, k]`` over the whole grid,
which the likelihood's integral term needs, come from a closed form per
event: an event at bin ``b`` adds ``r (1 - r^(B-1-b)) / (1 - r)`` to its
node's summary summed over all ``B`` bins.

The build visits occupied bins only. The ``(type, node)`` state ``S`` is
computed at every occupied bin at once, chunk by chunk: inside a chunk that
starts at occupied bin ``u_s``, ``S(u_i) = r^(u_i - u_s) (S(u_s) +
sum_{u_s <= u_j < u_i} r^(u_s - u_j) X(u_j))`` is one cumulative sum over
rescaled counts. All terms are non-negative, so nothing cancels. A chunk ends
before ``decay*dt*(u_i - u_s)`` reaches ``_MAX_SPAN_EXPONENT``, which keeps the
rescaled counts far from overflow, or when its cells reach
``_CHUNK_ELEMENTS`` state entries; the state at the next occupied bin carries
into the next chunk. Each occupied cell's state row is then contracted with
column ``n`` of every ``P^k``. The cost is
``O(cells * type_count * node_count * (max_hops + 1))`` plus a Python step per
chunk (at most one per occupied bin), independent of the number of empty
bins.

Everything here is independent of the causal graph and of the rate
parameters, so one cache serves every candidate scored by the structure
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

    def truncated(self, max_hops: int) -> "FeatureCache":
        """This cache restricted to hops ``0..max_hops``.

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
            # contiguous, so batched fits gather from it without another copy
            values=np.ascontiguousarray(self.values[:, : max_hops + 1]),
            totals=self.totals[:, : max_hops + 1],
            type_cells=self.type_cells,
            type_counts=self.type_counts,
        )


# Largest decay exponent decay*dt*(u_i - u_s) spanned by one chunk: counts
# rescaled by up to e^512 ~ 2e222 leave ~1e85 of headroom before overflow,
# and the rescaling back down by e^-512 stays clear of subnormals.
_MAX_SPAN_EXPONENT = 512.0
# Largest cells * type_count * node_count state entries held by one chunk.
_CHUNK_ELEMENTS = 1 << 16


def build_features(
    dataset: DiscreteDataset,
    topology: TopologyGraph,
    kernel: DecayKernel,
    max_hops: int,
) -> FeatureCache:
    """Build the :class:`FeatureCache` for a dataset on a topology.

    Only exponential kernels are supported here: the cache relies on the
    semigroup property ``r^a r^b = r^(a+b)`` to skip empty bins.
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

    n_nodes = dataset.node_count
    n_types = dataset.type_count
    n_bins = dataset.bin_count
    dt = dataset.bin_width
    rate = kernel.decay * dt
    powers = topology.hop_matrices(max_hops)
    # row_mass[k][n'] = sum_n P^k[n', n]; contracts the totals to one product
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

    counts = dataset.counts.astype(float)
    state_cols = dataset.types * n_nodes + dataset.nodes
    width = n_types * n_nodes

    # sum_{t=b+1}^{B-1} r^(t-b) for an event at bin b
    tail = (
        math.exp(-rate)
        * -np.expm1(-rate * (n_bins - 1 - dataset.bins))
        / -math.expm1(-rate)
    )
    summary = np.bincount(state_cols, weights=counts * tail, minlength=width)
    totals = summary.reshape(n_types, n_nodes) @ row_mass.T

    values = np.zeros((n_types, max_hops + 1, n_cells))
    occ_bins, cell_occ = np.unique(cell_bins, return_inverse=True)
    n_occ = occ_bins.shape[0]
    order = np.argsort(dataset.bins, kind="stable")
    event_occ = np.searchsorted(occ_bins, dataset.bins[order])
    event_cols = state_cols[order]
    event_counts = counts[order]
    hop_cols = [p.T for p in powers]  # hop_cols[k][n] = P^k[:, n]
    span_bins = _MAX_SPAN_EXPONENT / rate
    chunk_cells = max(1, _CHUNK_ELEMENTS // width)

    carry = np.zeros(width)  # state at the chunk's first occupied bin
    s = c0 = e0 = 0  # first occupied bin, cell and event of the chunk
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
        for k in range(max_hops + 1):
            values[:, k, c0:c1] = np.einsum("ctn,cn->tc", at_cells, hop_cols[k][nodes])
        s, c0, e0 = e, c1, e1

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
