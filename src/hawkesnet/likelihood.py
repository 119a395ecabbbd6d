"""Discrete-time model: intensity, log-likelihood, and the BIC score.

The conditional intensity of event type ``v`` at node ``n`` and bin ``t`` is

    lam_v(n, t) = mu_v + sum_{c in parents(v)} sum_k alpha[c, v][k]
                                               * features[c, k, (n, t)]

with the features from :mod:`hawkesnet.features`. Bin counts are modeled as
independent Poisson draws with mean ``lam * bin_width`` given history, so up
to a data-only constant the log-likelihood is

    L = sum_{v,n,t} ( -lam_v(n,t) * dt + X[n,v,t] * log lam_v(n,t) ).

The first term collapses to closed form through the feature totals; the
second touches occupied cells only. The data-only constant
``sum (X log dt - log X!)`` is dropped throughout: differences between
models on the same dataset are unaffected.

``log_likelihood`` returns ``-inf`` (rather than raising) when the model
puts zero intensity on a cell that holds events, so search code can treat
an impossible candidate as an ordinary worst-scoring one.

One function computes a type's share: ``batch_log_likelihood`` scores many
points of one type at once, each on one of several parent sets stacked in a
:class:`TypeBatch`, and every single-type score is that function on a batch
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateModelError, InvalidInputError
from .events import DiscreteDataset
from .features import FeatureCache

__all__ = [
    "CausalGraph",
    "ThpParams",
    "intensity",
    "TypeData",
    "type_data",
    "TypeBatch",
    "type_batch",
    "batch_of_one",
    "batch_log_likelihood",
    "type_log_likelihood",
    "intensities_for_type",
    "per_type_log_likelihood",
    "log_likelihood",
    "analytic_gradient",
    "bic_penalty",
    "edge_count_penalty",
    "bic_score",
]


@dataclass(frozen=True)
class CausalGraph:
    """Directed graph over event types; an edge ``(c, v)`` means c excites v.

    Self-loops are allowed (a type exciting itself). ``edges`` is a frozenset
    of ordered pairs.
    """

    type_count: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        if self.type_count < 1:
            raise InvalidInputError("type_count must be >= 1")
        edges = frozenset((int(a), int(b)) for a, b in self.edges)
        for a, b in edges:
            if not (0 <= a < self.type_count and 0 <= b < self.type_count):
                raise InvalidInputError(
                    f"edge ({a}, {b}) out of range for {self.type_count} types"
                )
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def parents(self, event_type: int) -> tuple[int, ...]:
        """Cause types of ``event_type``, sorted ascending."""
        return tuple(sorted(c for (c, v) in self.edges if v == event_type))

    def with_edge(self, edge: tuple[int, int]) -> "CausalGraph":
        return CausalGraph(self.type_count, self.edges | {tuple(edge)})

    def without_edge(self, edge: tuple[int, int]) -> "CausalGraph":
        return CausalGraph(self.type_count, self.edges - {tuple(edge)})

    def with_reversed(self, edge: tuple[int, int]) -> "CausalGraph":
        a, b = edge
        if (a, b) not in self.edges:
            raise InvalidInputError(f"edge {edge} not present")
        return CausalGraph(self.type_count, (self.edges - {(a, b)}) | {(b, a)})

    def has_cycle(self) -> bool:
        """True if the directed graph contains a cycle (self-loops count)."""
        children: dict[int, list[int]] = {v: [] for v in range(self.type_count)}
        for a, b in self.edges:
            if a == b:
                return True
            children[a].append(b)
        state = [0] * self.type_count  # 0 unseen, 1 on stack, 2 done
        for root in range(self.type_count):
            if state[root]:
                continue
            stack: list[tuple[int, int]] = [(root, 0)]
            state[root] = 1
            while stack:
                node, i = stack[-1]
                if i < len(children[node]):
                    stack[-1] = (node, i + 1)
                    nxt = children[node][i]
                    if state[nxt] == 1:
                        return True
                    if state[nxt] == 0:
                        state[nxt] = 1
                        stack.append((nxt, 0))
                else:
                    state[node] = 2
                    stack.pop()
        return False


@dataclass(frozen=True)
class ThpParams:
    """Rate parameters: background ``mu`` per type, ``alpha`` per edge and hop.

    ``alpha`` maps each directed edge ``(cause, effect)`` to an array of
    ``max_hops + 1`` nonnegative weights, one per hop order.
    """

    mu: np.ndarray
    alpha: dict
    max_hops: int

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1:
            raise InvalidInputError("mu must be a 1-d array")
        if np.any(~np.isfinite(mu)) or np.any(mu < 0):
            raise InvalidInputError("mu must be finite and nonnegative")
        if self.max_hops < 0:
            raise InvalidInputError("max_hops must be >= 0")
        alpha = {}
        for edge, arr in self.alpha.items():
            a = np.asarray(arr, dtype=float)
            if a.shape != (self.max_hops + 1,):
                raise InvalidInputError(
                    f"alpha[{edge}] must have length max_hops+1 = {self.max_hops + 1}"
                )
            if np.any(~np.isfinite(a)) or np.any(a < 0):
                raise InvalidInputError(f"alpha[{edge}] must be finite and nonnegative")
            alpha[(int(edge[0]), int(edge[1]))] = a
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "alpha", alpha)

    @property
    def type_count(self) -> int:
        return self.mu.shape[0]

    def alpha_tensor(self) -> np.ndarray:
        """Dense ``(type_count, type_count, max_hops+1)`` array, zeros off-edge."""
        out = np.zeros((self.type_count, self.type_count, self.max_hops + 1))
        for (c, v), arr in self.alpha.items():
            out[c, v] = arr
        return out

    def validate_for(self, graph: CausalGraph) -> None:
        """Check that alpha keys are exactly the graph's edges."""
        if graph.type_count != self.type_count:
            raise InvalidInputError(
                f"params cover {self.type_count} types, graph {graph.type_count}"
            )
        if set(self.alpha.keys()) != set(graph.edges):
            missing = set(graph.edges) - set(self.alpha.keys())
            extra = set(self.alpha.keys()) - set(graph.edges)
            raise InvalidInputError(
                f"alpha keys do not match graph edges (missing {sorted(missing)}, "
                f"extra {sorted(extra)})"
            )


def _check_dims(params: ThpParams, graph: CausalGraph, cache: FeatureCache) -> None:
    params.validate_for(graph)
    if graph.type_count != cache.type_count:
        raise InvalidInputError(
            f"graph covers {graph.type_count} types, cache {cache.type_count}"
        )
    if params.max_hops != cache.max_hops:
        raise InvalidInputError(
            f"params use max_hops={params.max_hops}, cache has {cache.max_hops}"
        )


def _alpha_vector(params: ThpParams, event_type: int, parents) -> np.ndarray:
    """Alpha entries for one target type, flattened in (parent, hop) order."""
    if not parents:
        return np.zeros(0)
    return np.concatenate([params.alpha[(c, event_type)] for c in parents])


class TypeData(NamedTuple):
    """What one type's likelihood share needs from the feature cache.

    ``flat[i]`` holds the features of the i-th occupied cell of the type,
    ``(parent, hop)`` flattened; ``counts`` the events there; ``totals`` the
    grid-wide feature sums in the same order; ``grid_cells`` is
    ``node_count * bin_count``.
    """

    event_type: int
    flat: np.ndarray
    counts: np.ndarray
    totals: np.ndarray
    bin_width: float
    grid_cells: int


def type_data(cache: FeatureCache, event_type: int, parents) -> TypeData:
    """The :class:`TypeData` of ``event_type`` with the given cause types."""
    feats, counts = cache.features_for(event_type, parents)
    return TypeData(
        event_type=event_type,
        flat=feats.reshape(feats.shape[0], feats.shape[1] * feats.shape[2]),
        counts=counts,
        totals=cache.totals_for(parents).reshape(-1),
        bin_width=cache.bin_width,
        grid_cells=cache.node_count * cache.bin_count,
    )


def _aligned_rows(rows: int, width: int) -> np.ndarray:
    """An uninitialized ``(rows, width)`` float array, each row 64-byte aligned.

    Rows are padded to a multiple of 64 bytes, so a row's address and
    layout do not depend on how many rows the array holds, or where it sits.
    """
    stride = max(8, -(-width // 8) * 8)
    buf = np.empty(rows * stride + 8)
    start = (-buf.__array_interface__["data"][0] % 64) // 8
    return buf[start : start + rows * stride].reshape(rows, stride)[:, :width]


class TypeBatch(NamedTuple):
    """Several parent sets of one type, stacked for batched scoring.

    ``flat[b]`` is :attr:`TypeData.flat` of the ``b``-th parent set, in the
    same C order; every set has the same number of parents, and each block
    starts at a 64-byte-aligned address. ``counts`` (shared) and
    ``grid_cells`` are as in :class:`TypeData`, ``totals[b]`` is
    ``TypeData.totals`` of set ``b``, and ``charges[b]`` the EM update's
    denominators ``totals * bin_width``, 1 where a total vanishes.
    ``cell_rows`` and ``width_rows`` are aligned work rows, one per point a
    call may score.
    """

    event_type: int
    flat: np.ndarray  # (sets, cells, width)
    counts: np.ndarray
    totals: np.ndarray  # (sets, width)
    charges: np.ndarray  # (sets, width)
    bin_width: float
    grid_cells: int
    cell_rows: np.ndarray  # (points, cells)
    width_rows: np.ndarray  # (points, width)


def _batch(event_type, flat, counts, totals, bin_width, grid_cells, points) -> TypeBatch:
    """A :class:`TypeBatch` on aligned ``(sets, cells * width)`` feature rows."""
    cells, width = counts.shape[0], totals.shape[1]
    return TypeBatch(
        event_type=event_type,
        flat=flat.reshape(flat.shape[0], cells, width),
        counts=counts,
        totals=totals,
        charges=np.where(totals > 0, totals * bin_width, 1.0),
        bin_width=bin_width,
        grid_cells=grid_cells,
        cell_rows=_aligned_rows(points, cells),
        width_rows=_aligned_rows(points, width),
    )


def type_batch(cache: FeatureCache, event_type: int, parent_sets, points: int = 0) -> TypeBatch:
    """The :class:`TypeBatch` of ``event_type`` with equally long ``parent_sets``.

    It has work rows for ``points`` points (default: one per set).
    """
    sizes = {len(parents) for parents in parent_sets}
    if len(sizes) != 1:
        raise InvalidInputError("a batch needs parent sets of one size")
    size, hops = sizes.pop(), cache.max_hops + 1
    cells = cache.type_cells[event_type]
    values = cache.values.reshape(-1)  # a view: caches keep their values contiguous
    hop_starts = np.arange(hops) * cache.cell_count
    flat = _aligned_rows(len(parent_sets), cells.shape[0] * size * hops)
    totals = np.empty((len(parent_sets), size * hops))
    for block, row, parents in zip(flat, totals, parent_sets):
        starts = np.array(parents, dtype=np.intp)[:, None] * (hops * cache.cell_count) + hop_starts
        # gathered cell by cell straight into the block, which keeps its aligned address
        values.take(cells[:, None, None] + starts, out=block.reshape(cells.shape[0], size, hops),
                    mode="clip")
        row[:] = cache.totals[list(parents)].reshape(-1)
    return _batch(event_type, flat, cache.type_counts[event_type], totals, cache.bin_width,
                  cache.node_count * cache.bin_count, points or len(parent_sets))


def batch_of_one(data: TypeData) -> TypeBatch:
    """``data`` as a batch holding one parent set."""
    flat = _aligned_rows(1, data.flat.size)
    flat.reshape(data.flat.shape)[...] = data.flat
    return _batch(data.event_type, flat, data.counts, data.totals[None, :], data.bin_width,
                  data.grid_cells, 1)


def batch_log_likelihood(
    mu: np.ndarray, alpha: np.ndarray, batch: TypeBatch, blocks: list
) -> tuple[np.ndarray, np.ndarray]:
    """Intensities and log-likelihood shares of the points ``(mu[j], alpha[j])``.

    Point ``j`` is scored on the parent set ``blocks[j]`` of ``batch``: its
    share is ``counts @ log(lam) - dt * (mu * grid_cells + alpha @
    totals)``, or ``-inf`` if ``lam <= 0`` at some cell. Every cell holds
    events of the type, so no cell is masked out. Each of a point's products
    and dot products is a BLAS call of its own, and its matrix-vector
    products run on a 64-byte-aligned feature block and work rows, so its
    results do not depend on the other points or on the batch size. Returns
    ``lam`` (in the batch's work rows) and the shares; callers silence the
    floating-point warnings of rows that score ``-inf`` or ``nan``.
    """
    lam = batch.cell_rows[: len(blocks)]
    point = batch.width_rows[: len(blocks)]
    point[...] = alpha
    for j, b in enumerate(blocks):
        np.matmul(batch.flat[b], point[j], out=lam[j])
    lam += mu[:, None]
    # one dot product per point: matmul over stacks of row @ column
    counted = np.matmul(np.log(lam)[:, None, :], batch.counts[:, None])[:, 0, 0]
    charged = np.matmul(point[:, None, :], batch.totals.take(blocks, axis=0)[:, :, None])[:, 0, 0]
    share = counted - batch.bin_width * (mu * batch.grid_cells + charged)
    # lam <= 0 at a cell makes its log -inf or nan, so only such rows are checked
    suspect = ~np.isfinite(counted)
    if suspect.any():
        suspect[suspect] = (lam[suspect] <= 0.0).any(axis=1)
        share[suspect] = -np.inf
    return lam, share


def type_log_likelihood(mu, alpha: np.ndarray, data: TypeData) -> tuple[np.ndarray, float]:
    """Intensity at the type's occupied cells and its log-likelihood share.

    :func:`batch_log_likelihood` on a batch of one, so a single share is
    the same float a batched fit computes.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lam, share = batch_log_likelihood(
            np.array([mu], dtype=float), np.asarray(alpha, dtype=float)[None, :],
            batch_of_one(data), [0],
        )
    return lam[0], float(share[0])


def _type_share(params: ThpParams, graph: CausalGraph, cache: FeatureCache, event_type: int):
    """``(data, lam, share)`` of one type under ``params``."""
    _check_dims(params, graph, cache)
    parents = graph.parents(event_type)
    data = type_data(cache, event_type, parents)
    alpha = _alpha_vector(params, event_type, parents)
    return (data, *type_log_likelihood(params.mu[event_type], alpha, data))


def intensities_for_type(
    params: ThpParams, graph: CausalGraph, cache: FeatureCache, event_type: int
) -> tuple[np.ndarray, np.ndarray]:
    """Intensities at the occupied cells of one type.

    Returns ``(lam, counts)`` aligned with the cache's per-type cell list.
    """
    data, lam, _ = _type_share(params, graph, cache, event_type)
    return lam, data.counts


def intensity(
    params: ThpParams,
    graph: CausalGraph,
    cache: FeatureCache,
    node: int,
    event_type: int,
    time_bin: int,
) -> float:
    """Intensity of one cell. With parents, the cell must be cached."""
    _check_dims(params, graph, cache)
    parents = graph.parents(event_type)
    if not parents:
        return float(params.mu[event_type])
    idx = cache.cell_index(node, time_bin)
    feats = cache.values[list(parents)][:, :, idx].reshape(-1)
    alpha = _alpha_vector(params, event_type, parents)
    return float(params.mu[event_type] + feats @ alpha)


def per_type_log_likelihood(
    params: ThpParams,
    graph: CausalGraph,
    cache: FeatureCache,
    event_type: int,
) -> float:
    """This type's additive share of the log-likelihood (``-inf`` allowed)."""
    return _type_share(params, graph, cache, event_type)[2]


def log_likelihood(
    params: ThpParams,
    graph: CausalGraph,
    cache: FeatureCache,
    dataset: DiscreteDataset,
) -> float:
    """Full log-likelihood up to the data-only constant; ``-inf`` if the
    model assigns zero intensity to any occupied cell."""
    _check_dims(params, graph, cache)
    if dataset.type_count != cache.type_count or dataset.bin_count != cache.bin_count:
        raise InvalidInputError("dataset does not match the feature cache")
    total = 0.0
    for v in range(graph.type_count):
        contribution = per_type_log_likelihood(params, graph, cache, v)
        if math.isinf(contribution):
            return float("-inf")
        total += contribution
    return total


def analytic_gradient(
    params: ThpParams,
    graph: CausalGraph,
    cache: FeatureCache,
) -> tuple[np.ndarray, dict]:
    """Gradient of the log-likelihood in ``(mu, alpha)``.

    Returns ``(grad_mu, grad_alpha)`` with ``grad_alpha`` keyed like
    ``params.alpha``. Requires strictly positive intensity at every occupied
    cell.
    """
    grad_mu = np.zeros(params.type_count)
    grad_alpha = {edge: np.zeros(params.max_hops + 1) for edge in params.alpha}
    for v in range(params.type_count):
        data, lam, share = _type_share(params, graph, cache, v)
        if share == float("-inf"):
            raise DegenerateModelError(f"zero intensity at an occupied cell of type {v}")
        ratio = data.counts / lam
        grad_mu[v] = ratio.sum() - data.bin_width * data.grid_cells
        parents = graph.parents(v)
        weighted = data.flat.T @ ratio - data.bin_width * data.totals
        for parent, row in zip(parents, weighted.reshape(len(parents), params.max_hops + 1)):
            grad_alpha[(parent, v)] = row
    return grad_mu, grad_alpha


def bic_penalty(
    graph: CausalGraph,
    max_hops: int,
    total_events: int,
    *,
    alpha_per_edge: int | None = None,
) -> float:
    """Complexity penalty ``p * log(m) / 2``.

    The parameter count is ``type_count + max_hops * edge_count``. Note the
    hop factor: each edge actually carries ``max_hops + 1`` alpha values, but
    the conventional count uses ``max_hops``; pass ``alpha_per_edge`` to use
    a different per-edge count (e.g. ``max_hops + 1`` for the literal one).
    At ``max_hops = 0`` the default makes the penalty edge-independent.
    ``total_events = 0`` yields penalty 0.
    """
    per_edge = max_hops if alpha_per_edge is None else alpha_per_edge
    return edge_count_penalty(graph.type_count, graph.edge_count, per_edge, total_events)


def edge_count_penalty(
    type_count: int, edge_count: int, per_edge: int, total_events: int
) -> float:
    """``bic_penalty`` from the counts alone, for search code that keeps no graph."""
    if total_events < 0:
        raise InvalidInputError("total_events must be >= 0")
    if total_events == 0:
        return 0.0
    p = type_count + per_edge * edge_count
    return p * math.log(total_events) / 2.0


def bic_score(
    log_lik: float,
    graph: CausalGraph,
    max_hops: int,
    total_events: int,
    *,
    alpha_per_edge: int | None = None,
) -> float:
    """Penalized score ``log_lik - bic_penalty(...)``; higher is better."""
    return log_lik - bic_penalty(
        graph, max_hops, total_events, alpha_per_edge=alpha_per_edge
    )
