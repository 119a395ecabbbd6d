"""The causal graph over event types and its rate parameters, as plain data.

Neither needs numpy: a graph is a frozenset of edges, and parameters are
tuples of floats. Graph files and metrics therefore load without the compute
layers, and params never share memory with the arrays they were built from.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError
from .values import Frozen, as_number

__all__ = ["CausalGraph", "ThpParams", "as_rates"]


class CausalGraph(Frozen):
    """Directed graph over event types; an edge ``(c, v)`` means c excites v.

    Self-loops are allowed (a type exciting itself). ``edges`` is a frozenset
    of ordered pairs.
    """

    __slots__ = ("type_count", "edges")

    def __init__(self, type_count: int, edges=frozenset()):
        if type_count < 1:
            raise InvalidInputError("type_count must be >= 1")
        edges = frozenset((int(a), int(b)) for a, b in edges)
        for a, b in edges:
            if not (0 <= a < type_count and 0 <= b < type_count):
                raise InvalidInputError(
                    f"edge ({a}, {b}) out of range for {type_count} types"
                )
        self._set(type_count=type_count, edges=edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def parents(self, event_type: int) -> tuple[int, ...]:
        """Cause types of ``event_type``, sorted ascending."""
        return tuple(sorted(c for (c, v) in self.edges if v == event_type))


def as_rates(values, name: str) -> tuple[float, ...]:
    """``values`` (a list, tuple or 1-d array of numbers) as finite, nonnegative floats."""
    if hasattr(values, "tolist"):  # a numpy array, read without importing numpy
        values = values.tolist()
    # a string or a mapping would iterate into characters or keys
    if not isinstance(values, (list, tuple)):
        raise InvalidInputError(f"{name} must be a 1-d sequence of numbers")
    each = f"each of {name}"
    rates = tuple(as_number(x, each) for x in values)
    if not all(math.isfinite(x) and x >= 0 for x in rates):
        raise InvalidInputError(f"{name} must be finite and nonnegative")
    return rates


class ThpParams(Frozen):
    """Rate parameters: background ``mu`` per type, ``alpha`` per edge and hop.

    ``mu`` is a tuple of floats, and ``alpha`` maps each directed edge
    ``(cause, effect)`` to a tuple of ``max_hops + 1`` nonnegative weights,
    one per hop order. Both are copied from the values passed in.
    """

    __slots__ = ("mu", "alpha", "max_hops")

    def __init__(self, mu, alpha: dict, max_hops: int):
        mu = as_rates(mu, "mu")
        if max_hops < 0:
            raise InvalidInputError("max_hops must be >= 0")
        rates = {}
        for edge, values in alpha.items():
            a = as_rates(values, f"alpha[{edge}]")
            if len(a) != max_hops + 1:
                raise InvalidInputError(
                    f"alpha[{edge}] must have length max_hops+1 = {max_hops + 1}"
                )
            rates[(int(edge[0]), int(edge[1]))] = a
        self._set(mu=mu, alpha=rates, max_hops=max_hops)

    @property
    def type_count(self) -> int:
        return len(self.mu)

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
