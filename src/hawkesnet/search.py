"""Greedy structure search over causal graphs with per-type score caching.

The penalized score decomposes over event types (each type's likelihood
share depends only on its own parent set, and the penalty is linear in the
edge count), so a move's score needs refits only for the types whose parent
sets changed: one type for an edge addition or deletion, two for a reversal.
The search state keeps the current graph as per-type parent tuples and
fits; a move is scored from ``Move.changed_types`` alone, without building
the candidate graph. Fits are memoized by (type, parent set); a fit is a
pure function of (data, type, parents), so a cache hit is bit-identical to a
fresh refit.

Each round first screens its add moves (safe screening in the sense of
El Ghaoui, Viallon & Rabbani 2012, *Pacific J. Optim.* 8:667). Type
``v``'s share is concave in its rates, and ``v``'s current fit with a new
parent ``c``'s channels at 0 is a point of the enlarged parent set that
scores exactly ``v``'s current share. Cover's bound at that point
(``added[c]`` of :func:`hawkesnet.em.duality_gap`) therefore caps how
far the enlarged set's optimum, and so any fit of it, can rise above the
current share. When that bound plus a rounding margin of ``1e-9 * (|share|
+ 1)`` stays below one edge's charge ``K ln(m) / 2``, the move ``c -> v``
cannot raise the score, so it can never be the round's best strictly
improving move: it scores ``-inf`` and is not fitted. The margin is
needed: when ``c`` has no feature mass at ``v``'s cells the bound is tight,
and on README-shaped inputs the computed gain exceeded it by up to 2.6e-13
nats. The screen is thus exact: the climb, its scores and its trajectory
are those of the unscreened search bit for bit, and only the fits fall. One
matrix-vector product per (type, current parent set) bounds every candidate
parent at once; the same call gives the type's own gap, so the result's
``fit_gaps`` certify the final fits at no extra cost. Reversing ``v -> c``
gives ``v`` the same new parent ``c`` on top of deleting ``v -> c``, at the
deletion's edge count, so the same bound screens it: it then scores below
that deletion, which the round scores, and cannot be the best move either.
Deletions, types without events, and every move at K=0 (where an edge costs
nothing) are never screened. ``score_candidate`` and ``_move_scores``
always fit.

Then the round collects the (type, parent set) keys its other moves miss in
the memo and fits them with :func:`hawkesnet.em.fit_batch`, grouped by type
and parent count, in chunks of at most ``_BATCH_CELLS`` occupied cells. A
fit does not depend on the batch it lands in, so the grouping changes no
score. Then every move's row of per-type shares is summed left to right in
type order, all rows in one ``cumsum``: the same float as summing the
candidate graph's shares one by one.

The search starts from the empty graph and repeatedly applies the best
strictly improving single move (add / delete / reverse); ties go to the
first move in canonical (source, target, kind) order. It stops when no move
strictly improves the score.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .em import EmConfig, TypeFit, assemble_params, duality_gap, fit_batch, fit_type
from .errors import InvalidInputError
from .features import FeatureCache
from .graph import CausalGraph, ThpParams
from .likelihood import bic_penalty

__all__ = [
    "Move",
    "SearchState",
    "SearchResult",
    "vicinity_moves",
    "apply_move",
    "score_candidate",
    "hill_climb",
]

_KIND_ORDER = {"add": 0, "delete": 1, "reverse": 2}
_EDGE_DELTA = {"add": 1, "delete": -1, "reverse": 0}
# Largest number of occupied cells, summed over its parent sets, that one
# batched fit holds. A batch's feature blocks take cells * parents * (K+1)
# doubles, about 2.4 MB here at 3 parents and K=2, which keeps a pass's
# working set near the L2 cache while letting README-shaped types (about
# 100-200 cells) fit a whole round in one batch.
_BATCH_CELLS = 1 << 15
# Rounding margin of the screen: a move is screened only if its bound plus
# _SCREEN_MARGIN * (|share| + 1), with the target type's current share,
# stays below one edge's charge.
_SCREEN_MARGIN = 1e-9


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


def _parents_after(parents: list, move: Move, event_type: int) -> tuple[int, ...]:
    """Sorted parents of a type the move changes, after the move."""
    src, dst = move.edge
    before = parents[event_type]
    if move.kind == "add":
        return tuple(sorted(before + (src,)))
    if move.kind == "delete" or event_type == dst:
        # a reversal takes src from dst's parents ...
        return tuple(p for p in before if p != src)
    return tuple(sorted(before + (dst,)))  # ... and gives dst to src's


@dataclass
class SearchState:
    """The current graph as per-type parent tuples and fits, plus the fit memo.

    ``fits[v]`` is the memoized fit of type ``v`` with parents ``parents[v]``;
    ``batches`` counts the batched fits made so far; ``gaps`` memoizes
    :func:`hawkesnet.em.duality_gap` of the fits by (type, parents).
    """

    em_config: EmConfig
    parents: list
    fits: list
    edge_count: int = 0
    memo: dict = field(default_factory=dict)
    batches: int = 0
    gaps: dict = field(default_factory=dict)

    @classmethod
    def empty(cls, cache: FeatureCache, em_config: EmConfig) -> "SearchState":
        """The state at the empty graph, every type fitted without parents."""
        state = cls(em_config, parents=[()] * cache.type_count, fits=[])
        keys = [(v, ()) for v in range(cache.type_count)]
        state.fit_missing(keys, cache)
        state.fits = [state.memo[key] for key in keys]
        return state

    def fit_missing(self, keys, cache: FeatureCache) -> None:
        """Fit the ``(type, parents)`` keys the memo lacks, batch by batch.

        A batch holds parent sets of one type and one size, as many as fit
        in ``_BATCH_CELLS`` occupied cells.
        """
        groups: dict = {}
        for key in keys:
            if key not in self.memo:
                groups.setdefault((key[0], len(key[1])), {})[key[1]] = None
        for (event_type, _), sets in groups.items():
            cells = cache.type_counts[event_type].shape[0]
            size = max(1, _BATCH_CELLS // max(cells, 1))
            sets = list(sets)
            for start in range(0, len(sets), size):
                chunk = sets[start : start + size]
                fits = fit_batch(event_type, chunk, cache, self.em_config)
                self.batches += 1
                for parents, fit in zip(chunk, fits):
                    self.memo[(event_type, parents)] = fit

    def fit_for(self, event_type: int, parents, cache: FeatureCache) -> TypeFit:
        key = (event_type, tuple(parents))
        if key not in self.memo:
            self.memo[key] = fit_type(event_type, parents, cache, self.em_config)
            self.batches += 1
        return self.memo[key]

    def gap(self, event_type: int, cache: FeatureCache) -> tuple:
        """``duality_gap`` of the type's current fit: ``(gap, added)``."""
        key = (event_type, self.parents[event_type])
        if key not in self.gaps:
            self.gaps[key] = duality_gap(self.fits[event_type], cache)
        return self.gaps[key]

    def apply(self, move: Move, cache: FeatureCache) -> None:
        """Make the graph after ``move`` current (its fits are memo hits)."""
        for v in move.changed_types():
            self.parents[v] = _parents_after(self.parents, move, v)
            self.fits[v] = self.fit_for(v, self.parents[v], cache)
        self.edge_count += _EDGE_DELTA[move.kind]


def _move_scores(moves: list, state: SearchState, cache: FeatureCache) -> np.ndarray:
    """Penalized score of the current graph after each move (``None``: as is).

    The shares the moves change are fitted first, in batches; then each
    move's row of per-type shares is summed left to right in type order,
    all rows in one reduction, so every score is the same float a full
    rescore of the candidate graph gives.
    """
    changed = [
        (row, (v, _parents_after(state.parents, move, v)))
        for row, move in enumerate(moves)
        if move is not None
        for v in move.changed_types()
    ]
    keys = [key for _, key in changed]
    state.fit_missing(keys, cache)
    shares = np.tile([f.log_lik for f in state.fits], (len(moves), 1))
    rows, types = [row for row, _ in changed], [v for v, _ in keys]
    shares[rows, types] = [state.memo[key].log_lik for key in keys]
    deltas = [0 if move is None else _EDGE_DELTA[move.kind] for move in moves]
    penalty = {
        delta: bic_penalty(
            cache.type_count, state.edge_count + delta, cache.max_hops, cache.total_events
        )
        for delta in set(deltas)
    }
    return np.cumsum(shares, axis=1)[:, -1] - np.array([penalty[d] for d in deltas])


def _unscreened(moves: list, state: SearchState, cache: FeatureCache) -> list:
    """Indices of the ``moves`` left to fit and score after the screen.

    An add move ``c -> v`` is screened when its bound at ``v``'s current fit
    (``added[c]`` of :func:`hawkesnet.em.duality_gap`), plus the rounding
    margin, stays below one edge's charge: no fit of the enlarged set can
    then raise the score. A reversal ``v -> c`` is screened on the same
    bound. ``state.gap`` computes the bounds once per (type, current
    parents). Types without events are never screened.
    """
    penalty = [
        bic_penalty(cache.type_count, state.edge_count + d, cache.max_hops, cache.total_events)
        for d in (0, 1)
    ]
    charge = penalty[1] - penalty[0]
    ruled_out = {}  # per target type: whether the screen rules out each new parent
    kept = []
    for i, move in enumerate(moves):
        if move.kind != "delete":
            # the type that gains a parent, and that parent
            parent, gains = move.edge if move.kind == "add" else move.edge[::-1]
            if gains not in ruled_out:
                _, added = state.gap(gains, cache)
                margin = _SCREEN_MARGIN * (abs(state.fits[gains].log_lik) + 1.0)
                screens = cache.type_counts[gains].shape[0] > 0
                ruled_out[gains] = (screens & (added + margin < charge)).tolist()
            if ruled_out[gains][parent]:
                continue
        kept.append(i)
    return kept


def score_candidate(move: Move | None, state: SearchState, cache: FeatureCache) -> float:
    """Penalized score of the current graph after ``move`` (``None``: as is).

    The round's reduction applied to one move: only the types the move
    changes get new shares, from the memo or a refit.
    """
    return float(_move_scores([move], state, cache)[0])


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
    em_maps: int  # EM maps of the memoized fits
    nonconverged_fits: int  # memoized fits the map cap stopped
    screened_moves: int  # add moves the screen ruled out, summed over rounds
    fit_gaps: tuple  # duality_gap of each final type fit: how far below its optimum


def hill_climb(
    cache: FeatureCache,
    *,
    em_config: EmConfig = EmConfig(),
    allow_cycles: bool = True,
    progress=None,
    trace_path: str | None = None,
) -> SearchResult:
    """Greedy single-move ascent from the empty graph.

    ``progress`` is an optional callable taking one line of text per round,
    with the fits and batches that round made; ``trace_path`` appends one
    JSON object per round.
    """
    state = SearchState.empty(cache, em_config)
    graph = CausalGraph(cache.type_count)
    score = score_candidate(None, state, cache)

    trajectory = [score]
    rounds = screened = 0
    with open(trace_path, "w", encoding="utf-8") if trace_path else nullcontext() as trace:
        while True:
            fits, batches = len(state.memo), state.batches
            moves = vicinity_moves(graph, allow_cycles)
            kept = _unscreened(moves, state, cache)
            screened += len(moves) - len(kept)
            scores = np.full(len(moves), -np.inf)
            scores[kept] = _move_scores([moves[i] for i in kept], state, cache)
            better = np.flatnonzero(scores > score)
            if better.size == 0:
                break
            best = better[np.argmax(scores[better])]  # ties keep the earlier move
            best_move, score = moves[best], float(scores[best])
            rounds += 1
            graph = apply_move(graph, best_move)
            state.apply(best_move, cache)
            trajectory.append(score)
            if progress is not None:
                progress(
                    f"round={rounds} move={best_move.describe()} "
                    f"edges={graph.edge_count} score={score:.6f} "
                    f"fits={len(state.memo) - fits} batches={state.batches - batches}"
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
        em_maps=sum(f.iterations - (not f.converged) for f in state.memo.values()),
        nonconverged_fits=sum(not f.converged for f in state.memo.values()),
        screened_moves=screened,
        fit_gaps=tuple(state.gap(v, cache)[0] for v in range(cache.type_count)),
    )
