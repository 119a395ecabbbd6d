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

One function computes a type's share: ``batch_log_likelihood`` scores many
points of one type at once, each on one of several parent sets stacked in a
:class:`TypeBatch`, and every single-type score is that function on a batch
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InvalidInputError

if TYPE_CHECKING:  # annotations only, so graph files load without the feature layer
    from .features import FeatureCache

__all__ = [
    "CausalGraph",
    "ThpParams",
    "TypeBatch",
    "type_batch",
    "batch_log_likelihood",
    "bic_penalty",
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

    ``flat[b, i]`` holds the features of the i-th occupied cell of the type
    under the ``b``-th parent set, ``(parent, hop)`` flattened in C order;
    every set has the same number of parents, and each block starts at a
    64-byte-aligned address. ``counts`` (shared) holds the events at those
    cells, ``grid_cells`` is ``node_count * bin_count``, ``totals[b]`` the
    grid-wide feature sums of set ``b`` in the same order, and ``charges[b]``
    the EM update's denominators ``totals * bin_width``, 1 where a total
    vanishes. ``cell_rows`` and ``width_rows`` are aligned work rows, one per
    point a call may score.
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


def type_batch(cache: FeatureCache, event_type: int, parent_sets, points: int = 0) -> TypeBatch:
    """The :class:`TypeBatch` of ``event_type`` with equally long ``parent_sets``.

    It has work rows for ``points`` points (default: one per set). Raises
    :class:`InvalidInputError` if the sets differ in size or name a type
    outside ``[0, type_count)``.
    """
    sizes = {len(parents) for parents in parent_sets}
    if len(sizes) != 1:
        raise InvalidInputError("a batch needs parent sets of one size")
    for c in (event_type, *(c for parents in parent_sets for c in parents)):
        if not 0 <= c < cache.type_count:
            raise InvalidInputError(f"type {c} out of range for {cache.type_count} types")
    size, hops = sizes.pop(), cache.max_hops + 1
    cells, width = cache.type_cells[event_type], size * hops
    values = cache.values.reshape(-1)  # a view: caches keep their values contiguous
    hop_starts = np.arange(hops) * cache.cell_count
    flat = _aligned_rows(len(parent_sets), cells.shape[0] * width)
    totals = np.empty((len(parent_sets), width))
    for block, row, parents in zip(flat, totals, parent_sets):
        starts = np.array(parents, dtype=np.intp)[:, None] * (hops * cache.cell_count) + hop_starts
        # gathered cell by cell straight into the block, which keeps its aligned address
        # ("clip" does not buffer ``out``; the ids are checked above)
        values.take(cells[:, None, None] + starts, out=block.reshape(cells.shape[0], size, hops),
                    mode="clip")
        row[:] = cache.totals[list(parents)].reshape(-1)
    points = points or len(parent_sets)
    return TypeBatch(
        event_type=event_type,
        flat=flat.reshape(len(parent_sets), cells.shape[0], width),
        counts=cache.type_counts[event_type],
        totals=totals,
        charges=np.where(totals > 0, totals * cache.bin_width, 1.0),
        bin_width=cache.bin_width,
        grid_cells=cache.node_count * cache.bin_count,
        cell_rows=_aligned_rows(points, cells.shape[0]),
        width_rows=_aligned_rows(points, width),
    )


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


def bic_penalty(type_count: int, edge_count: int, per_edge: int, total_events: int) -> float:
    """Complexity penalty ``p * log(m) / 2`` with ``p = type_count + per_edge * edge_count``.

    The conventional count is ``per_edge = max_hops``, although each edge
    actually carries ``max_hops + 1`` alpha values; at ``max_hops = 0`` it
    makes the penalty edge-independent. ``total_events = 0`` yields penalty 0.
    """
    if total_events < 0:
        raise InvalidInputError("total_events must be >= 0")
    if total_events == 0:
        return 0.0
    p = type_count + per_edge * edge_count
    return p * math.log(total_events) / 2.0
