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

Two builds give the same features, up to rounding in the last bits, and
:func:`choose_build` picks one from the input alone.

The chunk build (:func:`chunk_build`) visits occupied bins only. The
``(type, node)`` state ``S`` is computed at every occupied bin at once,
chunk by chunk: inside a chunk that starts at occupied bin ``u_s``,
``S(u_i) = r^(u_i - u_s) (S(u_s) + sum_{u_s <= u_j < u_i} r^(u_s - u_j)
X(u_j))`` is one cumulative sum over rescaled counts. All terms are
non-negative, so nothing cancels. A chunk ends before ``decay*dt*(u_i -
u_s)`` reaches ``_MAX_SPAN_EXPONENT``, which keeps the rescaled counts far
from overflow, or when its cells reach ``_CHUNK_ELEMENTS`` state entries;
the state at the next occupied bin carries into the next chunk. Each
occupied cell's state row is then contracted with column ``n`` of every
dense ``P^k``. The cost is ``O(cells * type_count * node_count * (max_hops +
1))`` plus a Python step per chunk (at most one per occupied bin),
independent of the number of empty bins. Chunks write their features into
a stage of about ``_CHUNK_ELEMENTS`` entries; when the next chunk would
overflow it, the stage is copied out into the rows of the types with events
at its cells. A type's rows at a run of cells are one run of its columns,
so a copy-out is one gather and one slice assignment per type, with no
per-chunk index arithmetic, and no array over all cells and channels is
ever held.

The event build (:func:`event_build`) costs what the events push, not what
the grid holds. For each hop ``k`` it pushes every dataset row of cause
``c`` at node ``n'`` along the nonzeros of ``P^k``
(:meth:`TopologyGraph.hop_lists`) into a series per ``(c, n)``, weighted by
``P^k[n', n]``, and merges the rows of a series that share a bin. Within
each series it scans ``A_j = A_{j-1} r^(b_j - b_{j-1}) + w_j`` by doubling,
each level's factor ``exp(-rate (b_j - b_{j-d}))`` taken from the bins: a
term passes through at most ``log2`` of its series' length factors, each at
most 1, so rounding grows with that logarithm and neither rescaling nor a
span limit is needed. A cause's feature at a cell ``(n, t)`` is the last
row of series ``(c, n)`` before ``t``, decayed to ``t``; one
``searchsorted`` of the rows into the queries, sorted by series, finds it
for every cell and cause. Factors below ``e^_EXP_FLOOR`` are taken as 0.
Each hop's totals are a product of their own over the row masses of that
hop's list, so hop ``k`` does not depend on ``max_hops`` and
:meth:`FeatureCache.truncated` keeps exactly a fresh build's values and
totals. The cost follows the pushed rows, ``rows * (1 + mean degree)`` per
hop, times the scan's levels, plus the ``type_count * cells`` queries per
hop.

The chunk build wins when most bins are occupied and ``type_count *
node_count`` is narrow (every bin of ``dense-learn``); the event build when
bins are sparse or the topology wide (the README scale from 40 to 2,000
nodes), where the chunk loop's dense state is mostly empty columns. A dense
topology goes to the chunk build whatever the events: the event build is
not taken where a hop list's product, or the rows pushed along a hop,
would pass ``LIST_ENTRIES`` entries in one array.

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
from .topology import LIST_ENTRIES, TopologyGraph, spread

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
    build:
        ``"chunks"`` or ``"events"``, the build that made the cache; None
        for a cache made elsewhere.
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
    build: str | None = None

    @property
    def cell_count(self) -> int:
        return self.cell_nodes.shape[0]

    def truncated(self, max_hops: int) -> "FeatureCache":
        """This cache restricted to hops ``0..max_hops``.

        Hop features are independent across k, so the rows kept are exactly
        those a fresh build at the smaller order would produce. The totals
        are this build's columns: the event build's equal a fresh build's,
        and the chunk build's can differ from its smaller product in the
        last bit.
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
            build=self.build,
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
# Largest queries (cells * causes) the event build holds at once.
_QUERY_ELEMENTS = 1 << 16
# The event build's least decay exponent: a factor below e^-707 ~ 1e-307 is
# taken as 0. numpy computes exp, and products, whose results are near or
# below the smallest normal double on a path 20-200 times slower.
_EXP_FLOOR = -707.0


def build_features(
    dataset: DiscreteDataset,
    topology: TopologyGraph,
    kernel: DecayKernel,
    max_hops: int,
) -> FeatureCache:
    """Build the :class:`FeatureCache` for a dataset on a topology.

    Only exponential kernels are supported here: the cache relies on the
    semigroup property ``r^a r^b = r^(a+b)`` to skip empty bins. The build
    that runs is the one :func:`choose_build` names.
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
    cells = _cells(dataset)
    build, hop_lists = choose_build(dataset, topology, max_hops, cells[0])
    if build == "chunks":
        return chunk_build(dataset, topology, kernel, max_hops, cells=cells)
    return event_build(dataset, topology, kernel, max_hops, cells=cells, hop_lists=hop_lists)


def choose_build(dataset: DiscreteDataset, topology: TopologyGraph, max_hops: int,
                 cell_keys: np.ndarray | None = None) -> tuple:
    """``("chunks", None)`` or ``("events", hop_lists)``: the build expected
    to cost less, and for the event build the
    :meth:`TopologyGraph.hop_lists` it reads.

    The chunk loop sweeps ``occupied bins * type_count * node_count`` state
    entries. The event build pushes each row to its node and its neighbours
    and scans each series in about ``log2`` of its length levels; its work
    is taken as ``rows * (1 + mean degree) * ceil(log2(longest (type, node)
    run))``. Compared one to one, the chunk loop's state was 0.21-0.24 times
    that work on ``dense-learn``, which builds 2.5-3 times faster by chunks,
    and 1.65-1,673 times it on ``readme-learn``, ``desk-pipeline`` and the
    README scale from 40 to 2,000 nodes, which build 1.4-134 times faster
    by events. That comparison does not look at ``max_hops``, and nothing in
    it is sized by the grid.

    Only where that comparison prefers the event build are its hop lists
    made, and it is taken only where each of its arrays stays within
    ``LIST_ENTRIES``: the hop lists refuse a node count or a product past
    it, and the rows pushed along each hop, one per row and entry of the
    hop list at the row's node, are counted from the lists. A dense topology
    fails this (its second hop's product meets ``n**3`` terms) and takes the
    chunk build, whose hop matrices hold ``n**2`` entries each.
    ``cell_keys`` are :func:`_cells`' when at hand.
    """
    rows = dataset.nodes.shape[0]
    if rows == 0:
        return "chunks", None
    n_nodes = dataset.node_count
    if cell_keys is None:
        cell_keys = _cells(dataset)[0]
    occupied = 1 + int(np.count_nonzero(np.diff(cell_keys // n_nodes)))  # keys sort by bin
    columns = dataset.types * n_nodes + dataset.nodes
    if dataset.type_count * n_nodes <= rows:  # few columns: count the rows of each
        longest = int(np.bincount(columns).max())
    else:
        columns.sort()
        runs = np.flatnonzero(np.diff(columns, prepend=-1))  # each column's first row
        longest = int(np.diff(runs, append=rows).max())
    fan_out = 1 + 2 * len(topology.edges) / n_nodes
    event_work = rows * fan_out * max(1, math.ceil(math.log2(longest)))
    if event_work >= occupied * dataset.type_count * n_nodes:
        return "chunks", None
    try:
        hop_lists = topology.hop_lists(max_hops)
    except InvalidInputError:
        return "chunks", None
    node_rows = np.bincount(dataset.nodes, minlength=n_nodes)
    for sources, _, _ in hop_lists[1:]:
        if node_rows @ np.bincount(sources, minlength=n_nodes) > LIST_ENTRIES:
            return "chunks", None
    return "events", hop_lists


def _cells(dataset: DiscreteDataset) -> tuple:
    """The occupied cells' keys ``bin * node_count + node``, sorted, and
    each row's key."""
    # sorted, and deduplicated by mask: np.unique would import numpy.ma
    row_keys = dataset.bins * dataset.node_count + dataset.nodes
    cell_keys = np.sort(row_keys)
    cell_keys = cell_keys[np.diff(cell_keys, prepend=-1) != 0]  # keys are >= 0
    return cell_keys, row_keys


def _tail_mass(dataset: DiscreteDataset, rate: float, counts: np.ndarray) -> np.ndarray:
    """Each row's decayed history summed over all bins after its own: its
    count times ``sum_{t=b+1}^{B-1} r^(t-b)``."""
    tail = (
        math.exp(-rate)
        * -np.expm1(-rate * (dataset.bin_count - 1 - dataset.bins))
        / -math.expm1(-rate)
    )
    return counts * tail


def _cache(build: str, dataset: DiscreteDataset, max_hops: int, cell_nodes: np.ndarray,
           cell_bins: np.ndarray, blocks: list, totals: np.ndarray, counts: np.ndarray,
           type_starts: np.ndarray) -> FeatureCache:
    bounds = type_starts.tolist()
    return FeatureCache(
        node_count=dataset.node_count,
        type_count=dataset.type_count,
        bin_count=dataset.bin_count,
        bin_width=dataset.bin_width,
        max_hops=max_hops,
        total_events=dataset.total_events,
        cell_nodes=cell_nodes,
        cell_bins=cell_bins,
        type_values=tuple(blocks),
        totals=totals,
        type_counts=tuple(counts[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])),
        build=build,
    )


def chunk_build(
    dataset: DiscreteDataset,
    topology: TopologyGraph,
    kernel: ExponentialKernel,
    max_hops: int,
    *,
    cells: tuple | None = None,
) -> FeatureCache:
    """The features by the chunk loop over occupied bins (module docstring);
    ``cells`` are :func:`_cells`' when at hand."""
    n_nodes = dataset.node_count
    n_types = dataset.type_count
    n_bins = dataset.bin_count
    rate = kernel.decay * dataset.bin_width
    powers = topology.hop_matrices(max_hops)
    # row_mass[k][n'] = sum_n P^k[n', n]; contracts the totals to one product
    row_mass = powers.sum(axis=2)

    cell_keys, row_keys = _cells(dataset) if cells is None else cells
    cell_bins = cell_keys // n_nodes
    cell_nodes = cell_keys % n_nodes
    n_cells = cell_keys.shape[0]

    counts = dataset.counts.astype(float)
    type_starts = np.searchsorted(dataset.types, np.arange(n_types + 1))
    state_cols = dataset.types * n_nodes + dataset.nodes
    width = n_types * n_nodes
    summary = np.bincount(state_cols, weights=_tail_mass(dataset, rate, counts), minlength=width)
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
    del row_keys, order  # rows-sized arrays the chunk loop does not read

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

    return _cache("chunks", dataset, max_hops, cell_nodes, cell_bins, blocks, totals, counts,
                  type_starts)


def event_build(
    dataset: DiscreteDataset,
    topology: TopologyGraph,
    kernel: ExponentialKernel,
    max_hops: int,
    *,
    cells: tuple | None = None,
    hop_lists: list | None = None,
) -> FeatureCache:
    """The features by pushing each row along the hop lists (module
    docstring); ``cells`` are :func:`_cells`' and ``hop_lists`` are
    :meth:`TopologyGraph.hop_lists`' when at hand."""
    if hop_lists is None:  # first: it refuses a node count it cannot list
        hop_lists = topology.hop_lists(max_hops)
    n_nodes = dataset.node_count
    n_types = dataset.type_count
    rate = kernel.decay * dataset.bin_width
    hops = max_hops + 1

    cell_keys, row_keys = _cells(dataset) if cells is None else cells
    cell_bins = cell_keys // n_nodes
    cell_nodes = cell_keys % n_nodes
    n_cells = cell_keys.shape[0]
    counts = dataset.counts.astype(float)
    type_starts = np.searchsorted(dataset.types, np.arange(n_types + 1))
    tail_mass = _tail_mass(dataset, rate, counts)

    # The queries: every cell once per cause, cause by cause, the cells in
    # (node, bin) order, so sorted by series (cause, node) and then bin.
    span = dataset.bin_count + 1
    node_keys = cell_nodes * span + cell_bins
    by_node = np.argsort(node_keys)
    node_keys = node_keys[by_node]
    query_nodes = cell_nodes[by_node]
    query_bins = cell_bins[by_node].astype(float)  # differences of floats below 2**53 are exact
    rank = np.empty(n_cells, dtype=np.int64)
    rank[by_node] = np.arange(n_cells)
    row_cells = rank[np.searchsorted(cell_keys, row_keys)]  # each row's query column

    bounds = type_starts.tolist()
    blocks = [aligned_rows(n_types * hops, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    totals = np.empty((n_types, hops))
    group = max(1, _QUERY_ELEMENTS // max(n_cells, 1))  # causes whose queries are held at once
    for k, (sources, targets, weights) in enumerate(hop_lists):
        starts = np.searchsorted(sources, np.arange(n_nodes + 1))  # each node's first entry
        for c0 in range(0, n_types, group):
            c1 = min(c0 + group, n_types)
            series, bins, sums = _pushed(dataset, counts, slice(bounds[c0], bounds[c1]), starts,
                                         targets, weights)
            # A row of cause c at node n and bin b follows the queries of the
            # causes before c and those of c before (n, b + 1): behind an
            # empty row 0, `last` is each query's last row at or before it.
            cause, node = np.divmod(series, n_nodes)
            ahead = (cause - c0) * n_cells + np.searchsorted(node_keys, node * span + bins + 1)
            last = np.repeat(np.arange(series.shape[0] + 1),
                             np.diff(ahead, prepend=0, append=(c1 - c0) * n_cells))
            last = last.reshape(c1 - c0, n_cells)
            bins = bins.astype(float)
            _scan(_positions(series), bins, sums, rate)
            series = np.concatenate([[-1], series])
            bins = np.concatenate([[0.0], bins])
            sums = np.concatenate([[0.0], sums])
            # a last row of another series is a miss
            query_series = np.arange(c0, c1)[:, None] * n_nodes + query_nodes
            found = _decay(bins[last] - query_bins, rate, series[last] == query_series)
            found *= sums[last]
            for block, lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
                channels = block.reshape(n_types, hops, hi - lo)
                channels[c0:c1, k] = found.take(row_cells[lo:hi], axis=1)
        # each type's rows, then the type's sum: a trailing 0 keeps every
        # start in range, and an empty type sums to 0
        row_mass = np.bincount(sources, weights=weights, minlength=n_nodes)
        totals[:, k] = np.add.reduceat(np.append(tail_mass * row_mass[dataset.nodes], 0.0),
                                       type_starts[:-1])
    totals[type_starts[:-1] == type_starts[1:]] = 0.0
    return _cache("events", dataset, max_hops, cell_nodes, cell_bins, blocks, totals, counts,
                  type_starts)


def _decay(lags: np.ndarray, rate: float, where: np.ndarray) -> np.ndarray:
    """``exp(rate * lags)`` for ``lags`` in bins, at most 0 where ``where``
    holds; 0 where ``where`` fails or the exponent is below ``_EXP_FLOOR``.
    The exponent is clipped into ``[_EXP_FLOOR, 0]`` before ``exp``, so
    nothing overflows. Overwrites both arrays and returns ``lags``."""
    lags *= rate
    where &= lags >= _EXP_FLOOR
    np.clip(lags, _EXP_FLOOR, 0.0, out=lags)
    np.exp(lags, out=lags)
    lags *= where
    return lags


def _pushed(dataset: DiscreteDataset, counts: np.ndarray, rows: slice, starts: np.ndarray,
            targets: np.ndarray, weights: np.ndarray) -> tuple:
    """The dataset's ``rows`` pushed along one hop list, whose entries of
    source ``n`` start at ``starts[n]``: ``(series, bins, sums)``, sorted by
    series ``cause * node_count + target`` and then bin, with the rows of a
    series at one bin summed into one."""
    nodes = dataset.nodes[rows]
    first = starts[nodes]
    fan = starts[nodes + 1] - first
    at = spread(first, fan)
    series = np.repeat(dataset.types[rows] * dataset.node_count, fan) + targets[at]
    # A type's rows come in bin order, and a stable sort keeps each series
    # so; numpy sorts 16-bit keys stably by radix.
    narrow = dataset.type_count * dataset.node_count <= 1 << 16
    keys = series.astype(np.uint16) if narrow else series
    order = np.argsort(keys, kind="stable")
    series = series[order]
    bins = np.repeat(dataset.bins[rows], fan)[order]
    sums = (np.repeat(counts[rows], fan) * weights[at])[order]
    merged = np.flatnonzero((np.diff(series, prepend=-1) != 0) | (np.diff(bins, prepend=-1) != 0))
    return series[merged], bins[merged], np.add.reduceat(sums, merged)


def _positions(series: np.ndarray) -> np.ndarray:
    """Each row's position in its series: 0 at the series' first row."""
    n = series.shape[0]
    starts = np.flatnonzero(np.diff(series, prepend=-1) != 0)
    return np.arange(n) - np.repeat(starts, np.diff(starts, append=n))


def _scan(positions: np.ndarray, bins: np.ndarray, sums: np.ndarray, rate: float) -> None:
    """Turn ``sums`` in place into each series' decayed running sum,
    ``A_j = A_{j-1} r^(b_j - b_{j-1}) + w_j``, where a series is a run of rows
    whose ``positions`` count up from 0.

    The scan doubles: at step ``d`` each row adds the row ``d`` back, if that
    is in its series, decayed by ``exp(-rate (b_j - b_{j-d}))`` taken from
    the bins. After ``ceil(log2(L))`` steps for the longest series ``L``,
    each row holds its whole series' history, each term having passed
    through at most that many factors, each at most 1.
    """
    longest, step = positions.max(initial=0), 1
    while step <= longest:
        add = _decay(bins[:-step] - bins[step:], rate, positions[step:] >= step)
        add *= sums[:-step]
        sums[step:] += add
        step *= 2
