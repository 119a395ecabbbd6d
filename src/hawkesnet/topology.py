"""Undirected node topology and its normalized propagation matrices.

The topology is a simple undirected graph over integer node ids. Influence
between nodes is propagated through powers of the symmetrically normalized
adjacency matrix ``P = D^{-1/2} A D^{-1/2}``; hop ``k`` uses ``P^k``, and
``P^0`` is the identity (no propagation, every node only sees itself).
Isolated nodes get zero rows/columns: they neither send nor receive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "TopologyGraph",
    "build_topology",
    "normalized_adjacency",
    "adjacency_powers",
    "load_edge_list",
    "save_edge_list",
]

_NODES_HINT = re.compile(r"#\s*nodes\s*[:=]\s*(\d+)")


@dataclass(frozen=True)
class TopologyGraph:
    """Immutable undirected topology with cached propagation powers.

    Attributes
    ----------
    node_count:
        Number of nodes; ids are ``0..node_count-1``.
    edges:
        Undirected edges as a frozenset of ``(a, b)`` pairs with ``a < b``.
    adjacency:
        Dense binary adjacency matrix, shape ``(node_count, node_count)``.
    propagation:
        Symmetrically normalized adjacency ``D^{-1/2} A D^{-1/2}``.
    powers:
        Array of shape ``(max_hops + 1, node_count, node_count)`` holding
        ``propagation**k`` for ``k = 0..max_hops``.
    """

    node_count: int
    edges: frozenset[tuple[int, int]]
    adjacency: np.ndarray = field(repr=False)
    propagation: np.ndarray = field(repr=False)
    powers: np.ndarray = field(repr=False)

    @property
    def max_hops(self) -> int:
        return self.powers.shape[0] - 1

    def hop_matrices(self, max_hops: int) -> np.ndarray:
        """Powers ``0..max_hops``, extending the cached stack if needed."""
        if max_hops < 0:
            raise InvalidInputError("max_hops must be >= 0")
        if max_hops <= self.max_hops:
            return self.powers[: max_hops + 1]
        return adjacency_powers(self.propagation, max_hops)


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Return ``D^{-1/2} A D^{-1/2}`` for a binary symmetric adjacency.

    Isolated nodes (degree zero) produce zero rows and columns rather than
    dividing by zero.
    """
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"adjacency must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise InvalidInputError("adjacency must be symmetric")
    if np.any((a != 0.0) & (a != 1.0)):
        raise InvalidInputError("adjacency entries must be 0 or 1")
    if np.any(np.diag(a) != 0.0):
        raise InvalidInputError("adjacency diagonal must be zero (no self-edges)")
    degrees = a.sum(axis=1)
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def adjacency_powers(propagation: np.ndarray, max_hops: int) -> np.ndarray:
    """Stack ``propagation**k`` for ``k = 0..max_hops``."""
    if max_hops < 0:
        raise InvalidInputError("max_hops must be >= 0")
    n = propagation.shape[0]
    try:
        powers = np.empty((max_hops + 1, n, n))
    except (ValueError, MemoryError, OverflowError) as exc:  # numpy refuses the size outright
        raise InvalidInputError(f"cannot allocate {max_hops} propagation hops") from exc
    powers[0] = np.eye(n)
    for k in range(1, max_hops + 1):
        powers[k] = powers[k - 1] @ propagation
    return powers


def _validate_edges(
    node_count: int, edges: object
) -> frozenset[tuple[int, int]]:
    canon: set[tuple[int, int]] = set()
    for edge in edges:  # type: ignore[attr-defined]
        try:
            a, b = int(edge[0]), int(edge[1])
        except (TypeError, ValueError, IndexError) as exc:
            raise InvalidInputError(f"malformed edge {edge!r}") from exc
        if a == b:
            raise InvalidInputError(f"self-edge {a} not allowed in topology")
        if not (0 <= a < node_count and 0 <= b < node_count):
            raise InvalidInputError(
                f"edge ({a}, {b}) out of range for {node_count} nodes"
            )
        canon.add((min(a, b), max(a, b)))
    return frozenset(canon)


def build_topology(
    node_count: int,
    edges: object,
    max_hops: int = 0,
) -> TopologyGraph:
    """Construct a :class:`TopologyGraph` from an undirected edge list.

    Duplicate edges and either orientation of a pair collapse to one
    undirected edge. ``max_hops`` controls how many propagation powers are
    precomputed.
    """
    if node_count < 1:
        raise InvalidInputError("node_count must be >= 1")
    edge_set = _validate_edges(node_count, edges)
    try:
        adjacency = np.zeros((node_count, node_count))
    except (ValueError, MemoryError) as exc:  # numpy refuses the size outright
        raise InvalidInputError(f"cannot allocate a dense topology of {node_count} nodes") from exc
    for a, b in edge_set:
        adjacency[a, b] = 1.0
        adjacency[b, a] = 1.0
    propagation = normalized_adjacency(adjacency)
    powers = adjacency_powers(propagation, max_hops)
    return TopologyGraph(
        node_count=node_count,
        edges=edge_set,
        adjacency=adjacency,
        propagation=propagation,
        powers=powers,
    )


def load_edge_list(
    path: str,
    node_count: int | None = None,
    max_hops: int = 0,
) -> TopologyGraph:
    """Read an undirected edge list file.

    Each non-empty line is ``a,b`` with 0-based integer node ids. Blank
    lines and ``#`` comments are ignored; a ``# nodes: N`` comment supplies
    the node count when the caller does not. Without either, the count is
    inferred as ``max id + 1``.
    """
    edges: list[tuple[int, int]] = []
    hinted: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                match = _NODES_HINT.match(line)
                if match:
                    try:
                        hinted = int(match.group(1))
                    except ValueError as exc:  # past Python's integer digit limit
                        raise InvalidInputError(f"{path}:{lineno}: node count hint too long") from exc
                continue
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected 'a,b', got {raw!r}"
                )
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidInputError(
                    f"{path}:{lineno}: non-integer node id in {raw!r}"
                ) from exc
            edges.append((a, b))
    if node_count is None:
        node_count = hinted
    if node_count is None:
        node_count = max((max(a, b) for a, b in edges), default=-1) + 1
        if node_count == 0:
            raise InvalidInputError(
                f"{path}: empty edge list and no node count given"
            )
    return build_topology(node_count, edges, max_hops=max_hops)


def save_edge_list(path: str, graph: TopologyGraph) -> None:
    """Write the edge list with a ``# nodes:`` hint, one edge per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes: {graph.node_count}\n")
        for a, b in sorted(graph.edges):
            fh.write(f"{a},{b}\n")
