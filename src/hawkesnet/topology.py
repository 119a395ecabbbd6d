"""Undirected node topology and its normalized propagation matrices.

A topology is its node count and its undirected edges over integer node ids.
Influence between nodes is propagated through powers of the symmetrically
normalized adjacency matrix ``P = D^{-1/2} A D^{-1/2}``; hop ``k`` uses
``P^k``, and ``P^0`` is the identity (no propagation, every node only sees
itself). Isolated nodes get zero rows/columns: they neither send nor receive.
:meth:`TopologyGraph.hop_matrices` forms the dense stack ``P^0..P^K`` on
request; nothing is cached.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError

__all__ = ["TopologyGraph", "build_topology", "load_edge_list", "save_edge_list"]

_NODES_HINT = re.compile(r"#\s*nodes\s*[:=]\s*(\d+)")


class TopologyGraph(NamedTuple):
    """Immutable undirected topology.

    Attributes
    ----------
    node_count:
        Number of nodes; ids are ``0..node_count-1``.
    edges:
        Undirected edges as a frozenset of ``(a, b)`` pairs with ``a < b``.
    """

    node_count: int
    edges: frozenset[tuple[int, int]]

    def hop_matrices(self, max_hops: int) -> np.ndarray:
        """Stack ``P**k`` for ``k = 0..max_hops``, shape ``(max_hops + 1, n, n)``.

        ``P = D^{-1/2} A D^{-1/2}``; a degree-zero node has a zero row and
        column rather than a division by zero. Each call returns a new array.
        """
        if max_hops < 0:
            raise InvalidInputError("max_hops must be >= 0")
        n = self.node_count
        try:
            adjacency = np.zeros((n, n))
            powers = np.empty((max_hops + 1, n, n))
        except (ValueError, MemoryError, OverflowError) as exc:  # numpy refuses the size outright
            raise InvalidInputError(
                f"cannot allocate {max_hops} propagation hops over {n} nodes"
            ) from exc
        for a, b in self.edges:
            adjacency[a, b] = 1.0
            adjacency[b, a] = 1.0
        degrees = adjacency.sum(axis=1)
        inv_sqrt = np.zeros_like(degrees)
        nonzero = degrees > 0
        inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
        propagation = inv_sqrt[:, None] * adjacency * inv_sqrt[None, :]
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


def build_topology(node_count: int, edges: object) -> TopologyGraph:
    """Construct a :class:`TopologyGraph` from an undirected edge list.

    Duplicate edges and either orientation of a pair collapse to one
    undirected edge.
    """
    if node_count < 1:
        raise InvalidInputError("node_count must be >= 1")
    return TopologyGraph(node_count=node_count, edges=_validate_edges(node_count, edges))


def load_edge_list(path: str, node_count: int | None = None) -> TopologyGraph:
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
    return build_topology(node_count, edges)


def save_edge_list(path: str, graph: TopologyGraph) -> None:
    """Write the edge list with a ``# nodes:`` hint, one edge per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes: {graph.node_count}\n")
        for a, b in sorted(graph.edges):
            fh.write(f"{a},{b}\n")
