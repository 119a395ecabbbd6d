"""Undirected node topology and its normalized propagation matrices.

A topology is its node count and its undirected edges over integer node ids.
Influence between nodes is propagated through powers of the symmetrically
normalized adjacency matrix ``P = D^{-1/2} A D^{-1/2}``; hop ``k`` uses
``P^k``, and ``P^0`` is the identity (no propagation, every node only sees
itself). Isolated nodes get zero rows/columns: they neither send nor receive.
Nothing is cached; each hop order is formed on request, in one of two forms:

- :meth:`TopologyGraph.hop_matrices`, the dense stack ``P^0..P^K``: the
  chunk build of the features and the simulator contract it with dense
  per-node state.
- :meth:`TopologyGraph.hop_lists`, the nonzeros of each ``P^k`` as
  ``(source, target, weight)`` arrays sorted by source: the event build of
  the features pushes each event along them. They come from the edge list by
  ``K`` sparse products (repeat, sort, ``np.add.reduceat``), so their memory
  follows the nonzeros, never ``n * n``. The product making hop ``k`` meets
  one term per entry ``(s, m)`` of hop ``k - 1`` and neighbour of ``m``; that
  count is known before the product allocates, and one past
  ``LIST_ENTRIES`` is refused there.

Both forms take ``P`` from the same sorted arcs and ``D^{-1/2}`` weights, so
``P**1`` is the same in each bit for bit.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError

__all__ = ["TopologyGraph", "build_topology", "load_edge_list", "save_edge_list"]

_NODES_HINT = re.compile(r"#\s*nodes\s*[:=]\s*(\d+)")
# Most entries one array of TopologyGraph.hop_lists may take: 2**22, 32 MiB
# of float64, about what the dense hop matrices of 2,000 nodes take each.
LIST_ENTRIES = 1 << 22
# Most entries of the dense hop stack TopologyGraph.hop_matrices makes:
# 2**28, 2 GiB of float64, 9,459 nodes at max_hops 2. The feature build
# takes the hop lists past it; the simulator, which has no other form,
# refuses the input.
DENSE_ENTRIES = 1 << 28


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
        A stack past ``DENSE_ENTRIES`` entries is refused before anything of
        its size is allocated, and so is one numpy cannot allocate.
        """
        if max_hops < 0:
            raise InvalidInputError("max_hops must be >= 0")
        n = self.node_count
        try:
            if not self.dense_fits(max_hops):
                raise MemoryError
            propagation = np.zeros((n, n))
            powers = np.empty((max_hops + 1, n, n))
        except MemoryError as exc:
            raise hops_refused(max_hops, n) from exc
        (sources, targets, weights), _ = self._step()
        propagation[sources, targets] = weights
        powers[0] = np.eye(n)
        for k in range(1, max_hops + 1):
            powers[k] = powers[k - 1] @ propagation
        return powers

    def dense_fits(self, max_hops: int) -> bool:
        """Whether :meth:`hop_matrices`' ``(max_hops + 1) * n * n`` entries
        stay within ``DENSE_ENTRIES``."""
        return (max_hops + 1) * self.node_count * self.node_count <= DENSE_ENTRIES

    def hop_lists(self, max_hops: int) -> list:
        """The nonzeros of ``P**k`` for ``k = 0..max_hops``, as one
        ``(sources, targets, weights)`` triple of arrays per hop, sorted by
        (source, target).

        ``P**0`` lists every node, isolated ones included; ``P**1`` carries
        the same weights as :meth:`hop_matrices`, and each further hop is the
        sparse product of the previous one with ``P``, its terms summed in
        the order of the middle node. A node count or a product past
        ``LIST_ENTRIES`` terms is refused before anything of its size is
        allocated, and so is a list numpy cannot allocate.
        """
        if max_hops < 0:
            raise InvalidInputError("max_hops must be >= 0")
        n = self.node_count
        try:
            if n > LIST_ENTRIES:
                raise MemoryError
            step, degrees = self._step()
            starts = np.cumsum(degrees) - degrees
            nodes = np.arange(n)
            lists = [(nodes, nodes, np.ones(n))]
            for _ in range(max_hops):
                lists.append(_times(lists[-1], step, starts, degrees))
        except (ValueError, MemoryError) as exc:
            raise hops_refused(max_hops, n) from exc
        return lists

    def _step(self) -> tuple:
        """The nonzeros of ``P`` as ``(sources, targets, weights)``, each
        edge both ways, sorted by (source, target); and each node's degree."""
        pairs = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2)
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
        sources, targets = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].T
        degrees = np.bincount(sources, minlength=self.node_count)
        inv_sqrt = np.zeros(self.node_count)
        inv_sqrt[degrees > 0] = 1.0 / np.sqrt(degrees[degrees > 0])
        return (sources, targets, inv_sqrt[sources] * inv_sqrt[targets]), degrees


def hops_refused(max_hops: int, node_count: int) -> InvalidInputError:
    """The error for hop forms too large to make."""
    return InvalidInputError(f"cannot allocate {max_hops} propagation hops over {node_count} nodes")


def _times(left: tuple, step: tuple, starts: np.ndarray, degrees: np.ndarray) -> tuple:
    """The nonzeros of ``left @ P``: each entry ``(s, m, w)`` of ``left``
    meets the ``degrees[m]`` entries of row ``m`` of ``P``, which start at
    ``starts[m]`` in ``step``; equal ``(s, t)`` pairs are summed. A product
    of more than ``LIST_ENTRIES`` terms raises ``MemoryError`` before any
    array of its terms is made."""
    sources, middles, weights = left
    fan = degrees[middles]
    if fan.sum() > LIST_ENTRIES:
        raise MemoryError
    at = spread(starts[middles], fan)
    sources = np.repeat(sources, fan)
    targets = step[1][at]
    weights = np.repeat(weights, fan) * step[2][at]
    order = np.lexsort((targets, sources))  # stable: terms stay in middle-node order
    sources, targets, weights = sources[order], targets[order], weights[order]
    first = np.flatnonzero((np.diff(sources, prepend=-1) != 0)
                           | (np.diff(targets, prepend=-1) != 0))
    return sources[first], targets[first], np.add.reduceat(weights, first)


def spread(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``starts[i] .. starts[i] + lengths[i] - 1`` for each ``i``,
    concatenated in order."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


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
