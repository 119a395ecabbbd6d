"""Greedy structure search over causal graphs with per-type score caching.

The penalized score decomposes over event types (each type's likelihood
share depends only on its own parent set, and the penalty is linear in the
edge count), so a move's score needs refits only for the types whose parent
sets changed: one type for an edge addition or deletion, two for a reversal.
The search state keeps the current graph as per-type parent tuples and
fits; a move is scored from ``Move.changed_types`` alone, without building
the candidate graph. Fits are memoized by (type, parent set); with
deterministic per-(type, parent-set) EM seeds a cache hit is bit-identical
to a fresh refit.

The search starts from the empty graph and repeatedly applies the best
strictly improving single move (add / delete / reverse); ties go to the
first move in canonical (source, target, kind) order. It stops when no move
strictly improves the score.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field

from .em import EmConfig, TypeFit, assemble_params, fit_type, type_seed
from .errors import InvalidInputError
from .features import FeatureCache
from .likelihood import CausalGraph, ThpParams, edge_count_penalty

__all__ = [
    "Move",
    "SearchState",
    "SearchResult",
    "vicinity_moves",
    "vicinity",
    "apply_move",
    "score_candidate",
    "hill_climb",
]

_KIND_ORDER = {"add": 0, "delete": 1, "reverse": 2}
_EDGE_DELTA = {"add": 1, "delete": -1, "reverse": 0}


@dataclass(frozen=True)
class Move:
    """A single edit: add or delete ``edge``, or replace it by its reverse."""

    kind: str
    edge: tuple

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise InvalidInputError(f"unknown move kind {self.kind!r}")

    def changed_types(self) -> tuple[int, ...]:
        src, dst = self.edge
        if self.kind == "reverse":
            return (dst, src) if dst != src else (dst,)
        return (dst,)

    def describe(self) -> str:
        src, dst = self.edge
        return f"{self.kind} {src}->{dst}"


def apply_move(graph: CausalGraph, move: Move) -> CausalGraph:
    src, dst = move.edge
    if move.kind == "add":
        if (src, dst) in graph.edges:
            raise InvalidInputError(f"cannot add existing edge {move.edge}")
        return graph.with_edge((src, dst))
    if move.kind == "delete":
        if (src, dst) not in graph.edges:
            raise InvalidInputError(f"cannot delete absent edge {move.edge}")
        return graph.without_edge((src, dst))
    if (src, dst) not in graph.edges or src == dst or (dst, src) in graph.edges:
        raise InvalidInputError(f"cannot reverse edge {move.edge}")
    return graph.with_reversed((src, dst))


def vicinity_moves(graph: CausalGraph, allow_cycles: bool = True) -> list[Move]:
    """All legal single moves, in canonical (source, target, kind) order.

    With ``allow_cycles=False`` the graph must be acyclic, and moves whose
    result contains a directed cycle (self-loops included) are dropped.
    """
    moves: list[Move] = []
    n = graph.type_count
    for src in range(n):
        for dst in range(n):
            edge = (src, dst)
            if edge not in graph.edges:
                moves.append(Move("add", edge))
            else:
                moves.append(Move("delete", edge))
                if src != dst and (dst, src) not in graph.edges:
                    moves.append(Move("reverse", edge))
    if not allow_cycles:
        moves = _acyclic_moves(graph, moves)
    return moves


def _acyclic_moves(graph: CausalGraph, moves: list[Move]) -> list[Move]:
    """The moves that keep the acyclic ``graph`` acyclic, from reachability alone.

    Adding ``c -> v`` closes a cycle iff ``c == v`` or ``v`` reaches ``c``;
    reversing ``c -> v`` closes one iff ``c`` reaches ``v`` through another
    child; deleting an edge never does.
    """
    children: list[list[int]] = [[] for _ in range(graph.type_count)]
    for a, b in graph.edges:
        children[a].append(b)
    reach = []  # reach[a]: the types a path of one edge or more leads to from a
    for root in range(graph.type_count):
        seen: set = set()
        stack = [root]
        while stack:
            for child in children[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        reach.append(seen)
    if any(v in reach[v] for v in range(graph.type_count)):
        raise InvalidInputError("an acyclic vicinity needs an acyclic graph")

    def keeps_acyclic(move: Move) -> bool:
        src, dst = move.edge
        if move.kind == "add":
            return src != dst and src not in reach[dst]
        if move.kind == "reverse":  # dst is not in reach[dst]: the edge itself never counts
            return not any(dst in reach[w] for w in children[src])
        return True

    return [m for m in moves if keeps_acyclic(m)]


def vicinity(graph: CausalGraph, allow_cycles: bool = True) -> list[CausalGraph]:
    """Neighbor graphs reachable by one move, in canonical move order."""
    return [apply_move(graph, m) for m in vicinity_moves(graph, allow_cycles)]


def _parents_after(parents: list, move: Move, event_type: int) -> tuple[int, ...]:
    """Sorted parents of a type the move changes, after the move."""
    src, dst = move.edge
    after = set(parents[event_type])
    if move.kind == "add":
        after.add(src)
    elif move.kind == "delete" or event_type == dst:
        after.discard(src)  # a reversal takes src from dst's parents ...
    else:
        after.add(dst)  # ... and gives dst to src's
    return tuple(sorted(after))


@dataclass
class SearchState:
    """The current graph as per-type parent tuples and fits, plus the fit memo.

    ``fits[v]`` is the memoized fit of type ``v`` with parents ``parents[v]``.
    """

    em_config: EmConfig
    seed: int
    parents: list
    fits: list
    edge_count: int = 0
    memo: dict = field(default_factory=dict)

    @classmethod
    def empty(cls, cache: FeatureCache, em_config: EmConfig, seed: int) -> "SearchState":
        """The state at the empty graph, every type fitted without parents."""
        state = cls(em_config, seed, parents=[()] * cache.type_count, fits=[])
        state.fits = [state.fit_for(v, (), cache) for v in range(cache.type_count)]
        return state

    def fit_for(self, event_type: int, parents, cache: FeatureCache) -> TypeFit:
        key = (event_type, tuple(parents))
        if key not in self.memo:
            seed = type_seed(self.seed, event_type, parents)
            self.memo[key] = fit_type(event_type, parents, cache, self.em_config, seed)
        return self.memo[key]

    def apply(self, move: Move, cache: FeatureCache) -> None:
        """Make the graph after ``move`` current (its fits are memo hits)."""
        for v in move.changed_types():
            self.parents[v] = _parents_after(self.parents, move, v)
            self.fits[v] = self.fit_for(v, self.parents[v], cache)
        self.edge_count += _EDGE_DELTA[move.kind]


def score_candidate(move: Move | None, state: SearchState, cache: FeatureCache) -> float:
    """Penalized score of the current graph after ``move`` (``None``: as is).

    Only the types the move changes get new shares, from the memo or a
    refit. The shares are summed in type order, so the score is the same
    float a full rescore of the candidate graph gives.
    """
    shares = [f.log_lik for f in state.fits]
    edge_count = state.edge_count
    if move is not None:
        for v in move.changed_types():
            shares[v] = state.fit_for(v, _parents_after(state.parents, move, v), cache).log_lik
        edge_count += _EDGE_DELTA[move.kind]
    total = 0.0
    for share in shares:
        total += share
    return total - edge_count_penalty(
        len(shares), edge_count, cache.max_hops, cache.total_events
    )


@dataclass(frozen=True)
class SearchResult:
    graph: CausalGraph
    params: ThpParams
    score: float
    log_lik: float
    rounds: int
    trajectory: tuple
    fit_evaluations: int
    type_fits: tuple = field(repr=False)


def hill_climb(
    cache: FeatureCache,
    *,
    em_config: EmConfig = EmConfig(),
    seed: int = 0,
    allow_cycles: bool = True,
    progress=None,
    trace_path: str | None = None,
) -> SearchResult:
    """Greedy single-move ascent from the empty graph.

    ``progress`` is an optional callable taking one line of text per round;
    ``trace_path`` appends one JSON object per round.
    """
    state = SearchState.empty(cache, em_config, seed)
    graph = CausalGraph(cache.type_count)
    score = score_candidate(None, state, cache)

    trajectory = [score]
    rounds = 0
    with open(trace_path, "w", encoding="utf-8") if trace_path else nullcontext() as trace:
        while True:
            best_move = None
            best_score = score
            for move in vicinity_moves(graph, allow_cycles):
                candidate = score_candidate(move, state, cache)
                if candidate > best_score:  # strict: ties keep the earlier move
                    best_move, best_score = move, candidate
            if best_move is None:
                break
            rounds += 1
            graph = apply_move(graph, best_move)
            state.apply(best_move, cache)
            score = best_score
            trajectory.append(score)
            if progress is not None:
                progress(
                    f"round={rounds} move={best_move.describe()} "
                    f"edges={graph.edge_count} score={score:.6f}"
                )
            if trace is not None:
                entry = {"round": rounds, "move": best_move.kind, "edge": list(best_move.edge),
                         "edges": graph.edge_count, "score": score}
                trace.write(json.dumps(entry, sort_keys=True) + "\n")

    fits = tuple(state.fits)
    return SearchResult(
        graph=graph,
        params=assemble_params(fits, cache.max_hops),
        score=score,
        log_lik=float(sum(f.log_lik for f in fits)),
        rounds=rounds,
        trajectory=tuple(trajectory),
        fit_evaluations=len(state.memo),
        type_fits=fits,
    )
