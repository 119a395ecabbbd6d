"""Excitation features: decayed event history propagated through the topology.

For each cause type ``c`` the per-node decayed summary is

    S_c(n, t) = sum_{t' < t} r^(t - t') * X[n, c, t'],    r = e^{-decay*dt},

and ``k`` hops through the normalized adjacency give

    features[c, k, (n, t)] = sum_{n'} P^k[n', n] * S_c(n', t).

Only cells ``(n, t)`` where at least one event of any type occurred are
materialized, and each event type keeps the features of every cause type at
its own cells only: the likelihood of type ``v`` reads features nowhere
else, so its EM maps run on rows that need no gather. The totals
``sum_{n,t} features[c, k]`` over the whole grid, which the likelihood's
integral term needs, come from a closed form per event: an event at bin
``b`` adds ``r (1 - r^(B-1-b)) / (1 - r)`` to its node's summary summed
over all ``B`` bins.

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
bins. Chunks write their features into a stage of about
``_CHUNK_ELEMENTS`` entries; when the next chunk would overflow it, the
stage is copied out into the rows of the types with events at its cells.
A type's rows at a run of cells are one run of its columns, so a copy-out
is one gather and one slice assignment per type, with no per-chunk index
arithmetic, and no array over all cells and channels is ever held.

Everything here is independent of the causal graph and of the rate
parameters, so one cache serves every candidate scored by the structure
search.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, UnsupportedKernelError
from .events import DiscreteDataset
from .kernels import DecayKernel, ExponentialKernel
from .topology import TopologyGraph

__all__ = ["FeatureCache", "aligned_rows", "build_features"]


def aligned_rows(rows: int, width: int) -> np.ndarray:
    """An uninitialized ``(rows, width)`` float array, each row 64-byte aligned.

    Rows are padded to a multiple of 64 bytes, so a row's address and
    layout do not depend on how many rows the array holds, or where it sits.
    """
    stride = max(8, -(-width // 8) * 8)
    buf = np.empty(rows * stride + 8)
    start = (-buf.__array_interface__["data"][0] % 64) // 8
    return buf[start : start + rows * stride].reshape(rows, stride)[:, :width]


class FeatureCache(NamedTuple):
    """Propagated excitation features at occupied cells, plus their totals.

    Attributes
    ----------
    type_values:
        Per event type ``v``, an array of shape ``(type_count * (max_hops +
        1), n_v)`` over the ``n_v`` cells that hold events of ``v``, in the
        dataset's order (the cells of ``dataset.type_rows(v)``);
        ``type_values[v][c * (max_hops + 1) + k, i]`` is the k-hop feature of
        cause type ``c`` at the i-th cell of ``v``. Rows are
        :func:`aligned_rows`: a likelihood batch copies each parent's hops,
        one run of rows, into rows laid out the same way, and
        :func:`hawkesnet.em.duality_gap` reads all rows in place; the
        likelihood of ``v`` reads features nowhere else.
    totals:
        ``(type_count, max_hops + 1)``; ``totals[c, k]`` sums the k-hop
        feature of cause type ``c`` over *all* cells of the grid.
    cell_nodes, cell_bins:
        Coordinates of the occupied cells, sorted by (bin, node). A cell is
        occupied if any event of any type fell into it.
    type_counts:
        Per event type ``v``: the event counts at the cells of
        ``type_values[v]``.
    """

    node_count: int
    type_count: int
    bin_count: int
    bin_width: float
    max_hops: int
    total_events: int
    cell_nodes: np.ndarray
    cell_bins: np.ndarray
    type_values: tuple
    totals: np.ndarray
    type_counts: tuple

    @property
    def cell_count(self) -> int:
        return self.cell_nodes.shape[0]

    def truncated(self, max_hops: int) -> "FeatureCache":
        """This cache restricted to hops ``0..max_hops``.

        Hop features are independent across k, so the rows kept are exactly
        those a fresh build at the smaller order would produce. The totals
        are this build's columns, which can differ from a fresh build's
        smaller product in the last bit.
        """
        if max_hops == self.max_hops:
            return self
        if not (0 <= max_hops < self.max_hops):
            raise InvalidInputError(
                f"cannot truncate a max_hops={self.max_hops} cache to {max_hops}"
            )
        hops = self.max_hops + 1
        return FeatureCache(
            node_count=self.node_count,
            type_count=self.type_count,
            bin_count=self.bin_count,
            bin_width=self.bin_width,
            max_hops=max_hops,
            total_events=self.total_events,
            cell_nodes=self.cell_nodes,
            cell_bins=self.cell_bins,
            type_values=tuple(self._kept_rows(values, max_hops) for values in self.type_values),
            totals=self.totals[:, : max_hops + 1],
            type_counts=self.type_counts,
        )


    def _kept_rows(self, values: np.ndarray, max_hops: int) -> np.ndarray:
        """The rows of hops ``0..max_hops`` of ``values``, in new aligned rows."""
        hops = self.max_hops + 1
        kept = aligned_rows(self.type_count * (max_hops + 1), values.shape[1])
        kept[...] = values[[c * hops + k for c in range(self.type_count) for k in range(max_hops + 1)]]
        return kept


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

    # sorted, and deduplicated by mask: np.unique would import numpy.ma
    row_keys = dataset.bins * n_nodes + dataset.nodes
    cell_keys = np.sort(row_keys)
    cell_keys = cell_keys[np.diff(cell_keys, prepend=-1) != 0]  # keys are >= 0
    cell_bins = cell_keys // n_nodes
    cell_nodes = cell_keys % n_nodes
    n_cells = cell_keys.shape[0]

    counts = dataset.counts.astype(float)
    type_starts = np.searchsorted(dataset.types, np.arange(n_types + 1))
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

    # the occupied bins, and the index among them of each cell and event
    new_bin = np.diff(cell_bins, prepend=-1) != 0  # bins are >= 0
    occ_bins = cell_bins[new_bin]
    cell_occ = np.cumsum(new_bin) - 1
    n_occ = occ_bins.shape[0]
    order = np.argsort(dataset.bins, kind="stable")
    type_cells = np.searchsorted(cell_keys, row_keys)  # each row's cell; offset by type below
    event_occ = cell_occ[type_cells[order]]
    event_at = event_occ * width + state_cols[order]  # flat index into the state rows
    event_counts = counts[order]
    del row_keys, tail, order  # rows-sized arrays the chunk loop does not read

    # Dataset rows are sorted by (type, bin, node), so type v owns rows
    # type_starts[v]:type_starts[v + 1], and its (channels, n_v) block of
    # features is aligned rows of its own (see aligned_rows). Within a
    # type, rows follow the cell order: type_cells = type * n_cells + cell is
    # sorted, and the rows of v at cells [a, b) are one run of its block's
    # columns, found for every type by one searchsorted.
    channels = n_types * (max_hops + 1)
    bounds = type_starts.tolist()
    blocks = [aligned_rows(channels, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    type_cells += dataset.types * n_cells
    type_offsets = np.arange(n_types) * n_cells

    def copy_out(staged: np.ndarray, first: int, starts: np.ndarray) -> np.ndarray:
        """Copy ``staged``, the features of the cells from ``first`` on, into
        the blocks. ``starts`` holds each type's first row at those cells;
        returns each type's first row after them."""
        offsets = type_offsets + first
        ends = np.searchsorted(type_cells, offsets + staged.shape[1])
        for block, start, at, lo, hi in zip(blocks, bounds, offsets.tolist(), starts.tolist(),
                                            ends.tolist()):
            if hi > lo:
                block[:, lo - start : hi - start] = staged.take(type_cells[lo:hi] - at, axis=1)
        return ends

    hop_cols = [p.T for p in powers]  # hop_cols[k][n] = P^k[:, n]
    # occ_bins are integers, so the floor of the span finds the same bin as
    # the span does, without numpy converting occ_bins to float per chunk; a
    # span past the last bin is cut to the bin count, which finds it too
    span_bins = math.floor(min(_MAX_SPAN_EXPONENT / rate, n_bins))
    chunk_cells = max(1, _CHUNK_ELEMENTS // width)
    # Chunks write their features to stage, which holds cells held:c0, and
    # it is copied out whenever the next chunk would overflow it. A chunk
    # holds at most chunk_cells cells, or the cells of one bin.
    stage_cells = min(n_cells, max(chunk_cells, n_nodes, _CHUNK_ELEMENTS // channels))
    stage = np.empty((n_types, max_hops + 1, stage_cells))
    held, held_rows = 0, type_starts[:-1]

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
        rescaled.reshape(-1)[event_at[e0:e1] - s * width] = event_counts[e0:e1] * np.exp(offset[rows])
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
        if c1 - held > stage_cells:
            held_rows = copy_out(stage[:, :, : c0 - held].reshape(channels, c0 - held), held, held_rows)
            held = c0
        values = stage[:, :, c0 - held : c1 - held]
        for k in range(max_hops + 1):
            values[:, k] = np.einsum("ctn,cn->tc", at_cells, hop_cols[k][nodes])
        s, c0, e0 = e, c1, e1
    copy_out(stage[:, :, : n_cells - held].reshape(channels, n_cells - held), held, held_rows)

    return FeatureCache(
        node_count=n_nodes,
        type_count=n_types,
        bin_count=n_bins,
        bin_width=dt,
        max_hops=max_hops,
        total_events=dataset.total_events,
        cell_nodes=cell_nodes,
        cell_bins=cell_bins,
        type_values=tuple(blocks),
        totals=totals,
        type_counts=tuple(counts[lo:hi].copy() for lo, hi in zip(type_starts[:-1], type_starts[1:])),
    )
