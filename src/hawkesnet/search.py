"""Greedy structure search over causal graphs with per-type score caching.

The penalized score decomposes over event types (each type's likelihood
share depends only on its own parent set, and the penalty is linear in the
edge count), so a move's score needs refits only for the types whose parent
sets changed: one type for an edge addition or deletion, two for a reversal.
The search state keeps the current graph as per-type parent tuples and
fits; a move, the pair ``(kind, (source, target))``, is scored from the
types it changes alone, without building the candidate graph. Fits are
memoized by (type, parent set); a fit is a pure function of (data, type,
parents), so a cache hit is bit-identical to a fresh refit.

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
improving move: it is not fitted. The margin is needed: when ``c`` has no
feature mass at ``v``'s cells the bound is tight, and on README-shaped
inputs the computed gain exceeded it by up to 2.6e-13 nats. The screen is
thus exact: the climb, its scores and its trajectory are those of the
unscreened search bit for bit, and only the fits fall. One matrix-vector
product per (type, current parent set) bounds every candidate parent at
once; the same call gives the type's own gap, so the result's ``fit_gaps``
certify the final fits at no extra cost. Reversing ``v -> c`` gives ``v``
the same new parent ``c`` on top of deleting ``v -> c``, at the deletion's
edge count, so the same bound screens it: it then scores below that
deletion, which the round scores, and cannot be the best move either.
Deletions, and every move when an edge costs nothing (K=0), are never
screened. ``score_candidate`` always fits.

Moves that touch a type without events take no part in the search: each
climb drops them from the legal moves once. Such a type's share is 0.0
whatever its parents, and as a parent it has no feature mass, so the move
nets minus one edge's charge at K >= 1, and at K=0 only EM rounding could
make it look like a gain. They are never fitted, screened or counted; such
a type is fitted only without parents, in the empty graph.

Rounds are incremental, after the score-delta cache of greedy network
search (Chickering 2002, *JMLR* 3:507). The search keeps every move's share
gain (the changed types' new shares minus their current ones) in a
``(source, target, kind)`` array across rounds; a move changes only its
target's parent set, and a reversal its source's too, so after a move only
the gains of moves touching a type it changed go stale. Each round
recomputes the legal and screened masks (reachability too, for an acyclic
search), fits the parent sets of the stale or newly open gains in batches
with :func:`hawkesnet.em.fit_batch`, grouped by type and parent count, in
chunks of at most ``_BATCH_CELLS`` occupied cells (a fit does not depend on
its batch, so the grouping changes no score), and takes the best gain net
of the penalty change with one ``argmax``. A gain sums the shares in
another order than the candidate graph's score does, so every move whose
approximate score lies within a rounding margin of the best one is scored
exactly: its row of per-type shares is summed left to right in type order,
all rows in one ``cumsum``, the same float as summing the candidate graph's
shares one by one. The exact best is among them, so the pick is that of
scoring every move.

Fits stop early where their move provably cannot win: branch and bound
over EM maps, in the spirit of lazy greedy evaluation with upper bounds
(Minoux 1978). A round runs its batches best first, by the screen's bound
on the move's gain (deletions last), and gives each fit a floor: the share
it must still be able to reach for its move to net more than zero, and to
come within the rounding margin of ``top``, the best net known exactly of
an add or delete into a type the move changes (from fits converged earlier
in this round, in its own batch too; never from earlier rounds). A
move's net does not change while it stays open, since penalty changes are
the same in every round, and a move ``top`` counts stays open as long as
the fit's move does: a change to that type's parents makes both stale. So
a fit whose Cover bound (see :mod:`hawkesnet.em`) falls below its floor
belongs to a move that is never picked while it stays open; it is kept in
the memo as a :class:`~hawkesnet.em.PausedFit`, and the move has no net,
only ``gains`` holding its bound. Before the pick, every paused move whose
bound still reaches within the rounding margin of the round's best net (of
zero, if no move raises the score) has its fits fitted again from the
start and run to the end, which happens only when a move that bounded it
closed, as an acyclic search's legal moves do. A paused move's net therefore lies below the best by more
than the margin, so it is never among the moves scored exactly in a round
that picks a move: the pick, every score, the trace, the fits counted and
the gaps are those of running every fit to the end, and only the EM maps
fall.

The search starts from the empty graph and repeatedly applies the best
strictly improving single move (add / delete / reverse); ties go to the
first move in canonical (source, target, kind) order. It stops when no move
strictly improves the score.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# fit_type stays importable here: the benchmark's tracer (perfbench/tracing.py) wraps it by name
from .em import (  # noqa: F401
    _SCREEN_MARGIN,
    EmConfig,
    PausedFit,
    TypeFit,
    assemble_params,
    duality_gap,
    fit_batch,
    fit_type,
)
from .features import FeatureCache
from .graph import CausalGraph, ThpParams
from .likelihood import bic_penalty

__all__ = [
    "SearchState",
    "SearchResult",
    "score_candidate",
    "hill_climb",
]

# move kinds in canonical order, and the edge count each adds
_KINDS = ("add", "delete", "reverse")
_EDGE_DELTA = {"add": 1, "delete": -1, "reverse": 0}
# Largest number of occupied cells, summed over its parent sets, that one
# batched fit holds. A batch's feature blocks take cells * parents * (K+1)
# doubles, about 2.4 MB here at 3 parents and K=2, which keeps a pass's
# working set near the L2 cache while letting README-shaped types (about
# 100-200 cells) fit a whole round in one batch.
_BATCH_CELLS = 1 << 15
# Rounding margins (em._SCREEN_MARGIN): a move is screened only if its bound
# plus _SCREEN_MARGIN * (|share| + 1), with the target type's current share,
# stays below one edge's charge. A round scores exactly every move whose
# approximate score is within _SCREEN_MARGIN * (sum |shares| + |best gain| +
# penalty + 1) of the best (_near_margin), far above the 2^-53 * types
# relative error of either way of summing.


def _changed(parents: list, move) -> tuple:
    """``(type, sorted parents after)`` of each type ``move`` changes."""
    kind, (src, dst) = move
    if kind == "add":
        return ((dst, tuple(sorted(parents[dst] + (src,)))),)
    dropped = (dst, tuple(p for p in parents[dst] if p != src))
    if kind == "delete":
        return (dropped,)
    return dropped, (src, tuple(sorted(parents[src] + (dst,))))


def _near_margin(spread: float, best: float, penalty: float) -> float:
    """How far below the best approximate score a round scores moves
    exactly; ``spread`` sums the magnitudes of the current shares."""
    return _SCREEN_MARGIN * (spread + abs(best) + penalty + 1.0)


class SearchState:
    """The current graph as per-type parent tuples and fits, plus the fit memo.

    ``fits[v]`` is the memoized fit of type ``v`` with parents ``parents[v]``;
    the memo holds a :class:`~hawkesnet.em.TypeFit` per finished fit and a
    :class:`~hawkesnet.em.PausedFit` per fit stopped early. ``batches``
    counts the batches that started new fits so far; ``paused`` and
    ``resumed`` are the keys that ever stopped early and were ever fitted
    again;
    ``gaps`` memoizes :func:`hawkesnet.em.duality_gap` of the fits by
    (type, parents).
    """

    def __init__(self, em_config: EmConfig, parents: list, fits: list, edge_count: int = 0,
                 memo: dict | None = None, batches: int = 0, gaps: dict | None = None,
                 paused: set | None = None, resumed: set | None = None):
        self.em_config = em_config
        self.parents = parents
        self.fits = fits
        self.edge_count = edge_count
        self.memo = {} if memo is None else memo
        self.batches = batches
        self.gaps = {} if gaps is None else gaps
        self.paused = set() if paused is None else paused
        self.resumed = set() if resumed is None else resumed

    @classmethod
    def empty(cls, cache: FeatureCache, em_config: EmConfig) -> "SearchState":
        """The state at the empty graph, every type fitted without parents."""
        state = cls(em_config, parents=[()] * cache.type_count, fits=[])
        keys = [(v, ()) for v in range(cache.type_count)]
        state.fit_missing(keys, cache)
        state.fits = [state.memo[key] for key in keys]
        return state

    def fit_missing(self, keys, cache: FeatureCache, floors=None) -> None:
        """Fit the ``(type, parents)`` keys the memo lacks or holds paused, batch by batch.

        A batch holds parent sets of one type and one size, as many as fit
        in ``_BATCH_CELLS`` occupied cells; batches run in the order of
        their first keys in ``keys``, and a paused fit is fitted again from
        the start (a fit is a pure function of its key, so it ends as if
        never stopped). ``floors``, if given, is called with a batch's keys
        and the shares of its fits converged so far, by position, and
        returns the keys' floors (see :func:`hawkesnet.em.fit_batch`);
        without it every fit finishes.
        """
        keys, groups = list(keys), {}
        for key in keys:
            if not isinstance(self.memo.get(key), TypeFit):
                groups.setdefault((key[0], len(key[1])), {})[key] = None
        batches = []
        for (event_type, _), group in groups.items():
            size = max(1, _BATCH_CELLS // max(cache.type_counts[event_type].shape[0], 1))
            group = list(group)
            batches += [group[start : start + size] for start in range(0, len(group), size)]
        first = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        for batch in sorted(batches, key=lambda batch: first[batch[0]]):
            fits = fit_batch(batch[0][0], [parents for _, parents in batch], cache, self.em_config,
                             None if floors is None else lambda shares, batch=batch: floors(batch, shares))
            self.batches += any(key not in self.memo for key in batch)
            for key, fit in zip(batch, fits):
                if key in self.memo:
                    self.resumed.add(key)
                self.memo[key] = fit
                if isinstance(fit, PausedFit):
                    self.paused.add(key)

    def gap(self, event_type: int, cache: FeatureCache) -> tuple:
        """``duality_gap`` of the type's current fit: ``(gap, added)``."""
        key = (event_type, self.parents[event_type])
        if key not in self.gaps:
            self.gaps[key] = duality_gap(self.fits[event_type], cache)
        return self.gaps[key]

    def apply(self, move) -> tuple:
        """Make the graph after ``move`` current (its fits must be memoized);
        returns the types it changed."""
        changed = _changed(self.parents, move)
        for v, parents in changed:
            self.parents[v], self.fits[v] = parents, self.memo[(v, parents)]
        kind, _ = move
        self.edge_count += _EDGE_DELTA[kind]
        return tuple(v for v, _ in changed)


def _exact_scores(moves: list, state: SearchState, cache: FeatureCache) -> np.ndarray:
    """Penalized score of the current graph after each move (``None``: as is).

    Every changed share must be memoized. Each move's row of per-type
    shares is summed left to right in type order, all rows in one
    reduction, so every score is the same float a full rescore of the
    candidate graph gives.
    """
    shares = np.tile([f.log_lik for f in state.fits], (len(moves), 1))
    deltas = []
    for row, move in enumerate(moves):
        if move is None:
            deltas.append(0)
            continue
        kind, _ = move
        deltas.append(_EDGE_DELTA[kind])
        for v, parents in _changed(state.parents, move):
            shares[row, v] = state.memo[(v, parents)].log_lik
    penalty = {
        delta: bic_penalty(
            cache.type_count, state.edge_count + delta, cache.max_hops, cache.total_events
        )
        for delta in set(deltas)
    }
    return np.cumsum(shares, axis=1)[:, -1] - np.array([penalty[d] for d in deltas])


def score_candidate(move, state: SearchState, cache: FeatureCache) -> float:
    """Penalized score of the current graph after ``move`` (``None``: as is).

    The round's exact reduction applied to one move: only the types the
    move changes get new shares, from the memo or a refit.
    """
    changed = () if move is None else _changed(state.parents, move)
    state.fit_missing(changed, cache)
    return float(_exact_scores([move], state, cache)[0])


def _legal(edges: np.ndarray, allow_cycles: bool) -> np.ndarray:
    """Which ``(source, target, kind)`` moves are legal on the graph ``edges``.

    With ``allow_cycles=False`` the graph is acyclic, and a move is legal
    only if its result is too: adding ``c -> v`` closes a cycle iff
    ``c == v`` or ``v`` reaches ``c``; reversing ``c -> v`` closes one iff
    ``c`` reaches ``v`` through another child; deleting never does.
    """
    n = edges.shape[0]
    other = ~np.eye(n, dtype=bool)
    add, reverse = ~edges, edges & ~edges.T & other
    if not allow_cycles:
        reach = edges.copy()  # reach[a, b]: a path of one edge or more leads from a to b
        for _ in range(max(n - 1, 1).bit_length()):
            reach |= reach @ reach
        add = add & other & ~reach.T
        reverse = reverse & ~(edges @ reach)
    return np.stack((add, edges, reverse), axis=-1)


def _keys(move: tuple, parents: list) -> tuple:
    """The ``(type, parents)`` fits that ``move``, ``(source, target, kind)``, needs."""
    return _changed(parents, (_KINDS[move[2]], move[:2]))


def _gain(keys: tuple, state: SearchState) -> tuple:
    """``(finished, gain)`` of a move that needs the fits ``keys``: its share
    gain once they have all finished; until then a bound on it, with each
    paused fit's bound in place of its share (``inf`` for a fit not made)."""
    gain, finished = 0, True
    for key in keys:
        fit = state.memo.get(key)
        if isinstance(fit, TypeFit):
            share = fit.log_lik
        else:
            finished, share = False, math.inf if fit is None else fit.bound
        gain += share - state.fits[key[0]].log_lik
    return finished, gain


def _floor(move: tuple, key: tuple, keys: tuple, state: SearchState, least: float, charges) -> float:
    """The share ``key``'s fit must reach for ``move`` (``(source, target,
    kind)``, needing the fits ``keys``) to gain at least ``least`` net of its
    charge.

    The move's other fit, if any, counts with its share, or its bound while
    paused; while it is not fitted at all, no floor holds (``-inf``).
    """
    others = 0.0
    for other in keys:
        if other != key:
            fit = state.memo.get(other)
            if fit is None:
                return -math.inf
            others += (fit.log_lik if isinstance(fit, TypeFit) else fit.bound) - state.fits[other[0]].log_lik
    return least + charges[move[2]] + state.fits[key[0]].log_lik - others


class _Gains:
    """Each move's share gain, kept across rounds.

    ``gains[c, v, k]`` is the new shares minus the current ones of the types
    that move ``(kind k, (c, v))`` changes, current where ``known``. Where
    the move is ``paused`` it waits on a fit that stopped early, and
    ``gains`` holds only a bound on its gain (see :func:`_gain`).
    """

    def __init__(self, type_count: int):
        n = type_count
        self.gains = np.zeros((n, n, len(_KINDS)))
        self.known = np.zeros((n, n, len(_KINDS)), dtype=bool)
        self.paused = np.zeros((n, n, len(_KINDS)), dtype=bool)

    def forget(self, types) -> None:
        """Mark stale what depends on the parents of ``types``."""
        for v in types:
            self.known[:, v] = self.known[v, :, 2] = False

    def _take(self, keys: dict, state: SearchState) -> None:
        """Record the gain of each move in ``keys``, which maps it to its fits."""
        if keys:
            taken = [_gain(needed, state) for needed in keys.values()]
            index = tuple(np.array(list(keys)).T)
            self.gains[index] = [gain for _, gain in taken]
            self.paused[index] = [not finished for finished, _ in taken]

    def net(self, state: SearchState, cache: FeatureCache, legal: np.ndarray) -> tuple:
        """``(net, screened, updated)``: each move's score change net of the
        penalty change, flat in canonical order and ``-inf`` where the move is
        illegal, screened or paused; the legal moves screened; the gains
        recomputed.

        The stale moves' fits run best first and stop once their bound
        shows the move cannot be picked while it stays open (see the module
        notes); a paused move whose bound still reaches the round's best has
        its paused fits fitted again to the end, until none is left.
        """
        n = cache.type_count
        current = bic_penalty(n, state.edge_count, cache.max_hops, cache.total_events)
        charges = np.array([
            bic_penalty(n, state.edge_count + _EDGE_DELTA[kind], cache.max_hops, cache.total_events)
            for kind in _KINDS
        ]) - current
        # bounds[v, c]: the screen's bound on giving v the parent c, plus the rounding margin
        bounds = np.full((n, n), np.inf)
        if charges[0] > 0.0:  # an edge that costs nothing screens nothing
            gainers = legal[:, :, 0].any(axis=0) | legal[:, :, 2].any(axis=1)
            for v in np.flatnonzero(gainers).tolist():
                margin = _SCREEN_MARGIN * (abs(state.fits[v].log_lik) + 1.0)
                bounds[v] = state.gap(v, cache)[1] + margin
        ruled = bounds < charges[0]  # ruled[v, c]: no fit of v with the parent c can pay
        # an add c -> v gives v the parent c, a reversal of c -> v gives c the parent v
        closed = np.stack((ruled.T, np.zeros_like(ruled), ruled), axis=-1) & legal
        open_ = legal & ~closed
        stale = open_ & ~self.known
        spread = sum(abs(f.log_lik) for f in state.fits)

        def least(best: float) -> float:
            # a net below this is never picked, and never scored exactly in a
            # round that picks a move (there the best net is positive)
            best = max(best, 0.0)
            return best - _near_margin(spread, best, current)

        keys = {tuple(m): None for m in np.argwhere(stale).tolist()}
        users: dict = {}  # key -> the stale moves that need its fit
        for m in keys:
            keys[m] = _keys(m, state.parents)
            for key in keys[m]:
                users.setdefault(key, []).append(m)
        # top[v]: the best net known this round of an add or delete into v,
        # which stays open as long as every move that changes v's parents does
        top = [-math.inf] * n
        charge, cur = charges.tolist(), [f.log_lik for f in state.fits]

        def floors(batch: list, shares: dict) -> list:
            t = batch[0][0]  # a batch holds fits of one type; only top[t] moves while it runs
            for j, share in shares.items():  # a converged fit of an add or delete sets its move's net
                for m in users[batch[j]]:
                    if m[2] < 2:
                        top[t] = max(top[t], share - cur[t] - charge[m[2]])
            level, given = least(top[t]), []
            for key in batch:
                floor = math.inf
                for m in users[key]:  # an add or delete needs no other fit
                    floor = min(floor, level + charge[m[2]] + cur[t] if m[2] < 2 else _floor(
                        m, key, keys[m], state, least(max(top[v] for v, _ in keys[m])), charge))
                given.append(floor)
            return given

        def priority(m: tuple) -> float:
            c, v, k = m
            return -math.inf if k == 1 else (bounds[v, c] if k == 0 else bounds[c, v]) - charge[k]

        order = sorted(keys, key=priority, reverse=True)
        state.fit_missing([key for m in order for key in keys[m] if key not in state.memo], cache, floors)
        self._take(keys, state)
        self.known |= stale
        while True:  # refit the paused fits of moves that may still score near the best
            nets, waiting = self.gains - charges, open_ & self.paused
            net = np.where(open_ & ~waiting, nets, -np.inf)
            reaching = np.argwhere(waiting & (nets >= least(net.max()))).tolist()
            if not reaching:
                break
            # rare (a move that bounded them closed)
            state.fit_missing([key for m in reaching for key in _keys(tuple(m), state.parents)], cache)
            self._take({m: _keys(m, state.parents) for m in map(tuple, np.argwhere(waiting).tolist())}, state)
        return net.reshape(-1), int(closed.sum()), int(stale.sum())


class SearchResult(NamedTuple):
    graph: CausalGraph
    params: ThpParams
    score: float
    log_lik: float
    rounds: int
    trajectory: tuple
    fit_evaluations: int
    type_fits: tuple
    em_maps: int  # EM maps of the memoized fits, paused ones included; a fit fitted again counts once
    nonconverged_fits: int  # finished memoized fits the map cap stopped
    screened_moves: int  # add moves the screen ruled out, summed over rounds
    fit_gaps: tuple  # duality_gap of each final type fit: how far below its optimum
    trace: tuple  # one dict per round, as ``learn --trace`` writes it
    paused_fits: int  # memoized fits that stopped early at least once
    resumed_fits: int  # of those, the fits a later round fitted again from the start


def hill_climb(
    cache: FeatureCache,
    *,
    em_config: EmConfig = EmConfig(),
    allow_cycles: bool = True,
    progress=None,
) -> SearchResult:
    """Greedy single-move ascent from the empty graph.

    ``progress`` is an optional callable taking one line of text per round,
    with the fits and batches that round made, the gains it recomputed and
    the moves it scored exactly. The result's ``trace`` holds one JSON-ready
    entry per round: its number, the move's kind and edge, and the edge
    count and score after it.
    """
    n = cache.type_count
    state = SearchState.empty(cache, em_config)
    score = score_candidate(None, state, cache)
    gains = _Gains(n)
    edges = np.zeros((n, n), dtype=bool)  # edges[c, v]: the edge c -> v
    fired = np.array([counts.shape[0] > 0 for counts in cache.type_counts])
    between = (fired[:, None] & fired)[:, :, None]  # moves between types with events
    trajectory = [score]
    trace = []
    rounds = screened = 0
    while True:
        fits, batches = len(state.memo), state.batches
        net, ruled_out, updated = gains.net(state, cache, _legal(edges, allow_cycles) & between)
        screened += ruled_out
        best = net.max(initial=-np.inf)
        if best == -np.inf:
            break
        current = bic_penalty(n, state.edge_count, cache.max_hops, cache.total_events)
        spread = sum(abs(f.log_lik) for f in state.fits)
        near = np.flatnonzero(net >= best - _near_margin(spread, best, current))
        moves = [(_KINDS[i % 3], divmod(i // 3, n)) for i in near.tolist()]
        exact = _exact_scores(moves, state, cache)
        better = np.flatnonzero(exact > score)
        if better.size == 0:
            break
        pick = better[np.argmax(exact[better])]  # ties keep the earlier move
        best_move, score = moves[pick], float(exact[pick])
        rounds += 1
        gains.forget(state.apply(best_move))
        kind, (src, dst) = best_move
        edges[src, dst] = kind == "add"
        if kind == "reverse":
            edges[dst, src] = True
        trajectory.append(score)
        trace.append({"round": rounds, "move": kind, "edge": [src, dst],
                      "edges": state.edge_count, "score": score})
        if progress is not None:
            progress(
                f"round={rounds} move={kind} {src}->{dst} "
                f"edges={state.edge_count} score={score:.6f} "
                f"fits={len(state.memo) - fits} batches={state.batches - batches} "
                f"updated={updated} rescored={len(moves)}"
            )

    fits = tuple(state.fits)
    return SearchResult(
        graph=CausalGraph(n, [tuple(e) for e in np.argwhere(edges).tolist()]),
        params=assemble_params(fits, cache.max_hops),
        score=score,
        log_lik=float(sum(f.log_lik for f in fits)),
        rounds=rounds,
        trajectory=tuple(trajectory),
        fit_evaluations=len(state.memo),
        type_fits=fits,
        em_maps=sum(f.iterations - (not f.converged) if isinstance(f, TypeFit) else f.maps
                    for f in state.memo.values()),
        nonconverged_fits=sum(isinstance(f, TypeFit) and not f.converged for f in state.memo.values()),
        screened_moves=screened,
        fit_gaps=tuple(state.gap(v, cache)[0] for v in range(cache.type_count)),
        trace=tuple(trace),
        paused_fits=len(state.paused),
        resumed_fits=len(state.resumed),
    )
