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


def type_log_likelihood(mu, alpha: np.ndarray, data: TypeData) -> tuple[np.ndarray, float]:
    """Intensity at the type's occupied cells and its log-likelihood share.

    The share is ``counts @ log(lam) - dt * (mu * grid_cells + alpha @
    totals)``, or ``-inf`` if ``lam <= 0`` at some cell. Every cell holds
    events of the type, so no cell is masked out.
    """
    lam = mu + data.flat @ alpha
    if np.any(lam <= 0.0):
        return lam, float("-inf")
    integral = data.bin_width * (mu * data.grid_cells + alpha @ data.totals)
    return lam, float(data.counts @ np.log(lam) - integral)


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
