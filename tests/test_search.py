"""Greedy structure search: moves, score caching, and recovery."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesnet.em import EmConfig, PausedFit, duality_gap, fit_type
from hawkesnet.errors import InvalidInputError
from hawkesnet.features import build_features
from hawkesnet.graph import CausalGraph
from hawkesnet.kernels import ExponentialKernel
from hawkesnet.likelihood import bic_penalty
import hawkesnet.search as search_mod
from hawkesnet.search import (
    SearchState,
    _SCREEN_MARGIN,
    _exact_scores,
    _legal,
    hill_climb,
    score_candidate,
)
from hawkesnet.simulate import SimConfig, generate_benchmark

from .helpers import assert_same_fit, random_instance, with_edge
from .oracles import (
    Move,
    apply_move,
    has_cycle,
    oracle_hill_climb,
    oracle_unscreened,
    parents_after,
    vicinity_moves,
)

RNG = np.random.default_rng


def test_vicinity_of_empty_graph_counts():
    moves = vicinity_moves(CausalGraph(3))
    assert len(moves) == 9
    assert all(m.kind == "add" for m in moves)
    # self-loops are legal moves by default
    assert Move("add", (1, 1)) in moves
    acyclic = vicinity_moves(CausalGraph(3), allow_cycles=False)
    assert len(acyclic) == 6
    assert all(m.edge[0] != m.edge[1] for m in acyclic)


def test_vicinity_with_one_edge():
    g = CausalGraph(3, [(0, 1)])
    moves = vicinity_moves(g)
    kinds = {}
    for m in moves:
        kinds.setdefault(m.kind, []).append(m.edge)
    assert sorted(kinds["add"]) == sorted(
        [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    )
    assert kinds["delete"] == [(0, 1)]
    assert kinds["reverse"] == [(0, 1)]
    assert len(moves) == 10


def test_vicinity_canonical_order():
    g = CausalGraph(3, [(0, 1), (2, 0)])
    moves = vicinity_moves(g)
    keys = [(m.edge[0], m.edge[1], {"add": 0, "delete": 1, "reverse": 2}[m.kind]) for m in moves]
    assert keys == sorted(keys)


def test_reverse_requires_absent_opposite():
    g = CausalGraph(3, [(0, 1), (1, 0)])
    moves = vicinity_moves(g)
    assert not any(m.kind == "reverse" for m in moves)
    with pytest.raises(InvalidInputError):
        apply_move(g, Move("reverse", (0, 1)))


def test_apply_move_validates():
    g = CausalGraph(2, [(0, 1)])
    with pytest.raises(InvalidInputError):
        apply_move(g, Move("add", (0, 1)))
    with pytest.raises(InvalidInputError):
        apply_move(g, Move("delete", (1, 0)))
    with pytest.raises(InvalidInputError):
        apply_move(g, Move("reverse", (1, 1)))
    with pytest.raises(InvalidInputError):
        Move("swap", (0, 1))
    assert apply_move(g, Move("reverse", (0, 1))).edges == frozenset({(1, 0)})


def test_dag_mode_filters_cycle_creating_moves():
    g = CausalGraph(3, [(0, 1), (1, 2)])
    moves = vicinity_moves(g, allow_cycles=False)
    edges_added = [m.edge for m in moves if m.kind == "add"]
    assert (2, 0) not in edges_added
    assert (1, 0) not in edges_added
    assert (0, 2) in edges_added
    neighbors = [apply_move(g, m) for m in moves]
    assert all(not has_cycle(n) for n in neighbors)


@st.composite
def dags(draw):
    """A random DAG: edges a -> b with a before b in a random type order."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return CausalGraph(n, [p for p, k in zip(pairs, keep) if k])


def _mask_moves(graph: CausalGraph, allow_cycles: bool) -> list:
    """The moves ``hill_climb``'s legal mask allows, in canonical order."""
    edges = np.zeros((graph.type_count, graph.type_count), dtype=bool)
    for a, b in graph.edges:
        edges[a, b] = True
    legal = _legal(edges, allow_cycles)
    return [Move(("add", "delete", "reverse")[k], (c, v)) for c, v, k in np.argwhere(legal).tolist()]


@given(dags())
def test_dag_mode_filter_equals_building_every_neighbor(graph):
    every = vicinity_moves(graph)
    want = [m for m in every if not has_cycle(apply_move(graph, m))]
    assert vicinity_moves(graph, allow_cycles=False) == want
    assert _mask_moves(graph, False) == want and _mask_moves(graph, True) == every


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
def test_legal_mask_equals_vicinity_moves(drawn):
    # any graph, self-loops and two-cycles included
    graph = CausalGraph(*drawn)
    assert _mask_moves(graph, True) == vicinity_moves(graph)


def test_dag_mode_rejects_a_cyclic_graph():
    for graph in (CausalGraph(3, [(0, 1), (1, 2), (2, 0)]), CausalGraph(2, [(1, 1)])):
        with pytest.raises(InvalidInputError):
            vicinity_moves(graph, allow_cycles=False)
        assert vicinity_moves(graph)  # the cyclic search takes any graph


def test_changed_types():
    assert Move("add", (0, 1)).changed_types() == (1,)
    assert Move("delete", (2, 2)).changed_types() == (2,)
    assert Move("reverse", (0, 1)).changed_types() == (1, 0)
    assert Move("add", (0, 1)).describe() == "add 0->1"


def _tiny_search_setup(seed=0):
    config = SimConfig(
        node_count=4,
        avg_topology_degree=1.5,
        type_count=3,
        causal_avg_indegree=1.0,
        target_event_count=800,
        mu_range=(5e-4, 1e-3),
        alpha_range=(0.03, 0.05),
        kernel=ExponentialKernel(0.2),
        max_hops=1,
        bin_width=1.0,
        seed=seed,
    )
    data = generate_benchmark(config)
    cache = build_features(data.dataset(), data.topology, config.kernel, config.max_hops)
    return data, cache


def test_cached_scores_equal_fresh_refits():
    _, cache = _tiny_search_setup()
    em = EmConfig(max_iterations=30)
    result = hill_climb(cache, em_config=em)
    # recompute the winning graph's score from scratch, no memo involved
    total = 0.0
    for v in range(result.graph.type_count):
        parents = result.graph.parents(v)
        fresh = fit_type(v, parents, cache, em)
        total += fresh.log_lik
    total -= bic_penalty(
        cache.type_count, result.graph.edge_count, cache.max_hops, cache.total_events
    )
    assert result.score == total  # bit-identical, not merely close


def test_move_scores_equal_full_rescores():
    # every move kind, self-loops included, scored from the changed types
    # must give the float a full rescore of the candidate graph gives
    _, cache = _tiny_search_setup(seed=19)
    em = EmConfig(max_iterations=20)
    state = SearchState.empty(cache, em)
    graph = CausalGraph(cache.type_count)
    for move in (Move("add", (0, 1)), Move("add", (1, 2)), Move("add", (2, 2))):
        score_candidate(move, state, cache)  # fits the move's shares
        graph = apply_move(graph, move)
        state.apply(move)
    moves = vicinity_moves(graph)
    assert {m.kind for m in moves} == {"add", "delete", "reverse"}
    shares = {}
    for move in moves:
        candidate = apply_move(graph, move)
        total = 0.0
        for v in range(candidate.type_count):
            key = (v, candidate.parents(v))
            if key not in shares:
                shares[key] = fit_type(*key, cache, em).log_lik
            total += shares[key]
        total -= bic_penalty(
            cache.type_count, candidate.edge_count, cache.max_hops, cache.total_events
        )
        assert score_candidate(move, state, cache) == total, move


def test_hill_climb_trajectory_strictly_improves():
    _, cache = _tiny_search_setup(seed=3)
    result = hill_climb(cache, em_config=EmConfig(max_iterations=30))
    traj = list(result.trajectory)
    assert len(traj) == result.rounds + 1
    assert all(b > a for a, b in zip(traj, traj[1:]))
    assert result.score == traj[-1]


def test_hill_climb_deterministic_across_runs():
    _, cache = _tiny_search_setup(seed=5)
    em = EmConfig(max_iterations=25)
    a = hill_climb(cache, em_config=em)
    b = hill_climb(cache, em_config=em)
    assert a.graph.edges == b.graph.edges
    assert a.score == b.score
    assert a.trajectory == b.trajectory
    np.testing.assert_array_equal(a.params.mu, b.params.mu)
    for edge in a.graph.edges:
        np.testing.assert_array_equal(a.params.alpha[edge], b.params.alpha[edge])


def test_result_params_share_no_memory_with_the_type_fits():
    _, cache = _tiny_search_setup(seed=5)
    result = hill_climb(cache, em_config=EmConfig(max_iterations=25))
    assert result.graph.edges
    before = {edge: tuple(a) for edge, a in result.params.alpha.items()}
    for f in result.type_fits:
        assert not any(np.shares_memory(f.alpha, a) for a in result.params.alpha.values())
        f.alpha[...] = 7.0  # the memo's fits stay private to the search result
    assert {edge: tuple(a) for edge, a in result.params.alpha.items()} == before


def test_dag_mode_yields_acyclic_result():
    _, cache = _tiny_search_setup(seed=9)
    result = hill_climb(
        cache, em_config=EmConfig(max_iterations=25), allow_cycles=False
    )
    assert not has_cycle(result.graph)


def test_progress_and_trace_output():
    _, cache = _tiny_search_setup(seed=13)
    lines = []
    result = hill_climb(
        cache,
        em_config=EmConfig(max_iterations=25),
        progress=lines.append,
    )
    assert len(lines) == result.rounds
    fits = 0
    for i, line in enumerate(lines, start=1):
        assert line.startswith(f"round={i} move=")
        fields = dict(field.split("=") for field in line.split(" ")[3:])
        assert set(fields) == {"edges", "score", "fits", "batches", "updated", "rescored"}
        assert int(fields["batches"]) <= int(fields["fits"])  # no batch is empty
        assert int(fields["rescored"]) >= 1  # the applied move was scored exactly
        fits += int(fields["fits"])
    # the empty graph's fits and the last, non-improving round print no line
    assert fits < result.fit_evaluations
    entries = [json.loads(json.dumps(e)) for e in result.trace]  # JSON-ready as is
    assert entries == list(result.trace)
    assert len(entries) == result.rounds
    assert [e["round"] for e in entries] == list(range(1, result.rounds + 1))
    assert entries[-1]["score"] == pytest.approx(result.score)
    assert [e["score"] for e in entries] == list(result.trajectory[1:])
    assert set(entries[0]) == {"round", "move", "edge", "edges", "score"}


def test_memoization_avoids_repeat_fits(monkeypatch):
    _, cache = _tiny_search_setup(seed=15)
    calls = []
    batches = []
    stopped = set()
    import hawkesnet.search as search_mod

    original = search_mod.fit_batch

    def counting_fit_batch(event_type, parent_sets, *args, **kwargs):
        batches.append(len(parent_sets))
        fits = original(event_type, parent_sets, *args, **kwargs)
        for parents, fit_ in zip(parent_sets, fits):
            key = (event_type, tuple(parents))
            # a key starts again only after its first start stopped early, and at most once
            assert calls.count(key) == 0 or calls.count(key) == 1 and key in stopped
            calls.append(key)
            if isinstance(fit_, PausedFit):
                stopped.add(key)
        return fits

    monkeypatch.setattr(search_mod, "fit_batch", counting_fit_batch)
    result = hill_climb(cache, em_config=EmConfig(max_iterations=20))
    assert result.fit_evaluations == len(set(calls))
    assert result.resumed_fits == len(calls) - len(set(calls)) <= result.paused_fits == len(stopped)
    assert max(batches) > 1  # a round's moves are fitted together


def _state_copy(state: SearchState) -> SearchState:
    return SearchState(state.em_config, list(state.parents), list(state.fits), state.edge_count,
                       dict(state.memo), state.batches, dict(state.gaps), set(state.paused),
                       set(state.resumed))


@pytest.mark.parametrize("setup", ["tiny", "desk"])
@pytest.mark.parametrize("allow_cycles", [True, False])
def test_each_round_keeps_the_gain_of_every_legal_move(monkeypatch, allow_cycles, setup):
    # a round recomputes only the gains the last move made stale, yet every
    # legal move must carry its current gain, be one the screen rules out, or
    # wait on a paused fit while it scores too far below the round's best to
    # be scored exactly
    cache = _tiny_search_setup(seed=17)[1] if setup == "tiny" else _desk_cache()
    rounds = []
    original = search_mod._Gains.net

    def recording(self, state, cache_, legal):
        net, screened, updated = original(self, state, cache_, legal)
        rounds.append((net.copy(), _state_copy(state), screened))
        return net, screened, updated

    monkeypatch.setattr(search_mod._Gains, "net", recording)
    result = hill_climb(cache, em_config=EmConfig(max_iterations=20), allow_cycles=allow_cycles)
    assert len(rounds) == result.rounds + 1 >= 2  # the last round finds no improving move
    graph = CausalGraph(cache.type_count)
    n, paused = cache.type_count, 0
    for i, (net, state, screened) in enumerate(rounds):
        moves = vicinity_moves(graph, allow_cycles)
        kept = set(oracle_unscreened(moves, state, cache))
        score = result.trajectory[i]
        flat = [(m.edge[0] * n + m.edge[1]) * 3 + ("add", "delete", "reverse").index(m.kind) for m in moves]
        # a paused move nets less than the best by more than the margin, or,
        # where no move improves (the last round), less than zero
        best = max(net.max(), 0.0)
        near = best - search_mod._near_margin(sum(abs(f.log_lik) for f in state.fits), best, bic_penalty(
            n, state.edge_count, cache.max_hops, cache.total_events))
        # scoring resumes paused fits, so find the moves waiting on one first
        waiting = [any(isinstance(state.memo.get((v, parents_after(state.parents, move, v))), PausedFit)
                       for v in move.changed_types()) for move in moves]
        for j, (move, index, waits) in enumerate(zip(moves, flat, waiting)):
            if j not in kept:  # skipped: the screen rules it out
                assert net[index] == -np.inf, move
                continue
            fresh = score_candidate(move, state, cache)
            if waits:
                paused += 1
                assert net[index] == -np.inf and fresh - score < near, move
                continue
            margin = _SCREEN_MARGIN * (sum(abs(f.log_lik) for f in state.fits) + abs(fresh) + 1.0)
            assert abs(net[index] - (fresh - score)) <= margin, move
        assert screened == len(moves) - len(kept)
        assert np.isneginf(np.delete(net, flat)).all()  # no illegal move is open
        if i < result.rounds:
            entry = result.trace[i]
            graph = apply_move(graph, Move(entry["move"], tuple(entry["edge"])))
    assert graph.edges == result.graph.edges
    assert paused > 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 10**6), max_size=4))
def test_round_scores_equal_score_candidate(seed, picks):
    # the round fits its missing shares in batches; score_candidate fits
    # each move's shares alone, on a state that walked the same moves
    inst = random_instance(RNG(seed), max_nodes=3, max_types=3, max_bins=25, min_events=8)
    em = EmConfig(max_iterations=15)
    batched = SearchState.empty(inst.cache, em)
    alone = SearchState.empty(inst.cache, em)
    graph = CausalGraph(inst.cache.type_count)
    for pick in picks:
        moves = vicinity_moves(graph)
        move = moves[pick % len(moves)]
        graph = apply_move(graph, move)
        for state in (batched, alone):
            score_candidate(move, state, inst.cache)
            state.apply(move)
    moves = vicinity_moves(graph)
    batched.fit_missing([key for move in moves for key in search_mod._changed(batched.parents, move)],
                        inst.cache)
    scores = _exact_scores(moves, batched, inst.cache)
    for move, score in zip(moves, scores.tolist()):
        assert score == score_candidate(move, alone, inst.cache), move


def test_score_candidate_consistency():
    rng = RNG(19)
    inst = random_instance(rng, max_nodes=3, max_types=3, max_bins=25, min_events=8)
    state = SearchState.empty(inst.cache, EmConfig(max_iterations=20))
    empty = CausalGraph(inst.graph.type_count)
    s1 = score_candidate(None, state, inst.cache)
    s2 = score_candidate(None, state, inst.cache)
    assert s1 == s2
    # adding an edge only changes the target type's share
    candidate = with_edge(empty, (0, 0))
    s3 = score_candidate(Move("add", (0, 0)), state, inst.cache)
    fits_before = dict(state.memo)
    assert (0, (0,)) in fits_before
    types, hops, events = inst.cache.type_count, inst.cache.max_hops, inst.cache.total_events
    penalty_delta = bic_penalty(types, candidate.edge_count, hops, events) - bic_penalty(
        types, empty.edge_count, hops, events
    )
    share_delta = (
        state.memo[(0, (0,))].log_lik - state.memo[(0, ())].log_lik
    )
    assert s3 - s1 == pytest.approx(share_delta - penalty_delta, rel=1e-12, abs=1e-9)


def test_exhaustive_search_agreement():
    # small enough to enumerate every directed graph exactly
    _, cache = _tiny_search_setup(seed=21)
    em = EmConfig(max_iterations=40)
    types = cache.type_count
    all_edges = list(itertools.product(range(types), repeat=2))
    memo = {}

    def type_share(v, parents):
        key = (v, tuple(sorted(parents)))
        if key not in memo:
            memo[key] = fit_type(v, key[1], cache, em).log_lik
        return memo[key]

    best_score = -np.inf
    for mask in range(2 ** len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
        g = CausalGraph(types, edges)
        score = sum(
            type_share(v, g.parents(v)) for v in range(types)
        ) - bic_penalty(types, g.edge_count, cache.max_hops, cache.total_events)
        if score > best_score:
            best_score = score
    result = hill_climb(cache, em_config=em)
    assert result.score <= best_score + 1e-9
    # the greedy optimum matches the exhaustive one on this instance
    assert result.score == pytest.approx(best_score, abs=1e-6)


def test_recovers_planted_edge():
    data, cache = _tiny_search_setup(seed=2)
    truth = data.causal_graph.edges
    result = hill_climb(cache, em_config=EmConfig(max_iterations=60))
    # the strongly excited edges should be found at this signal strength
    assert truth <= result.graph.edges or len(truth & result.graph.edges) >= max(
        1, len(truth) - 1
    )


def _desk_cache(extra_types=0):
    """The acceptance desk config at seed 0: 10 nodes, 5 types, ~6000 events,
    K=2; ``extra_types`` more types declared after them, without events."""
    config = SimConfig(
        node_count=10,
        avg_topology_degree=1.5,
        type_count=5,
        causal_avg_indegree=1.0,
        target_event_count=6000,
        mu_range=(5e-5, 1e-4),
        alpha_range=(0.03, 0.05),
        kernel=ExponentialKernel(0.2),
        max_hops=2,
        bin_width=5.0,
        seed=0,
    )
    data = generate_benchmark(config)
    dataset = data.dataset()
    dataset = dataset._replace(type_count=dataset.type_count + extra_types)
    return build_features(dataset, data.topology, config.kernel, config.max_hops)


def _climb_recording_screen(cache, em):
    """``oracle_hill_climb``, plus each screened move with a copy of the state it was screened in."""
    screened = []

    def recording(moves, state, cache_):
        kept = oracle_unscreened(moves, state, cache_)
        copy = SearchState(state.em_config, list(state.parents), list(state.fits), state.edge_count)
        screened.extend((moves[i], copy) for i in sorted(set(range(len(moves))) - set(kept)))
        return kept

    return oracle_hill_climb(cache, em_config=em, screen=recording), screened


@pytest.mark.parametrize("setup", ["tiny", "desk"])
def test_screened_moves_cannot_improve_and_change_nothing(setup):
    cache = _tiny_search_setup(seed=3)[1] if setup == "tiny" else _desk_cache()
    em = EmConfig()
    result = hill_climb(cache, em_config=em)
    oracle, screened = _climb_recording_screen(cache, em)
    assert screened and result.screened_moves == oracle.screened_moves == len(screened)
    shares = {}
    for move, state in screened:
        # an add c -> v gives v the parent c; reversing v -> c gives it too,
        # on top of the deletion of v -> c
        parent, gains = move.edge if move.kind == "add" else move.edge[::-1]
        current = state.fits[gains]
        parents = tuple(sorted(current.parents + (parent,)))
        if (gains, parents) not in shares:
            shares[gains, parents] = fit_type(gains, parents, cache, em).log_lik
        # the fitted share stays under the bound the screen used ...
        gap = duality_gap(current, cache)[1][parent]
        margin = _SCREEN_MARGIN * (abs(current.log_lik) + 1.0)
        assert shares[gains, parents] <= current.log_lik + gap + margin, move
        # ... so the move never beats keeping the graph (an add) or deleting
        # the edge (a reversal), and scoring it still fits it
        rival = None if move.kind == "add" else Move("delete", move.edge)
        kept = score_candidate(rival, state, cache)
        fitted = score_candidate(move, state, cache)
        after = {gains: shares[gains, parents]}
        if rival is not None:
            after[parent] = fit_type(parent, parents_after(state.parents, rival, parent), cache, em).log_lik
        total = sum(after.get(v, f.log_lik) for v, f in enumerate(state.fits))
        total -= bic_penalty(
            cache.type_count, state.edge_count + (move.kind == "add"), cache.max_hops,
            cache.total_events,
        )
        assert fitted == total and not fitted > kept, move

    # the search without the screen: the same climb, bit for bit, with more fits
    plain = oracle_hill_climb(cache, em_config=em, screen=lambda moves, *args: list(range(len(moves))))
    assert plain.screened_moves == 0
    assert plain.graph.edges == result.graph.edges
    assert (plain.score, plain.log_lik, plain.trajectory) == (
        result.score, result.log_lik, result.trajectory
    )
    assert plain.fit_gaps == result.fit_gaps
    assert result.fit_gaps == tuple(duality_gap(f, cache)[0] for f in result.type_fits)
    assert plain.fit_evaluations > result.fit_evaluations


def test_nothing_is_screened_when_an_edge_costs_nothing():
    # at K=0 the paper's penalty charges nothing per edge
    result = hill_climb(_desk_cache().truncated(0))
    assert result.rounds >= 1 and result.screened_moves == 0


@pytest.mark.parametrize("hops", [2, 0])
def test_types_without_events_take_no_part_in_the_search(hops):
    # the two highest type ids have no events: no move touches them, so the
    # climb is the one without them, plus one empty-graph fit per extra type
    extra = 2
    alone = hill_climb(_desk_cache().truncated(hops))
    result, state = _with_state(hill_climb, _desk_cache(extra).truncated(hops))
    fired = alone.graph.type_count
    for v, parents in state.memo:
        assert parents == () if v >= fired else all(c < fired for c in parents), (v, parents)
    assert result.fit_evaluations == alone.fit_evaluations + extra
    assert result.graph.edges == alone.graph.edges
    assert [(e["move"], e["edge"]) for e in result.trace] == [(e["move"], e["edge"]) for e in alone.trace]


def _with_state(climb, cache, **kwargs):
    """``climb(cache, **kwargs)`` and the :class:`SearchState` it searched with."""
    states = []
    empty = SearchState.empty.__func__

    def recording(cls, *args):
        states.append(empty(cls, *args))
        return states[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SearchState, "empty", classmethod(recording))
        result = climb(cache, **kwargs)
    return result, states[0]


def _assert_same_climb(cache, **kwargs):
    """``hill_climb`` against ``oracle_hill_climb``, which runs every fit to
    the end: every field equal, floats bit for bit, but the EM maps (and the
    capped fits among them) of the fits that stopped early. Resumed to the
    end, those fits are the oracle's, bit for bit. Returns the climb."""
    a, state = _with_state(hill_climb, cache, **kwargs)
    b, oracle = _with_state(oracle_hill_climb, cache, **kwargs)
    assert a.graph.edges == b.graph.edges
    assert (a.score, a.log_lik, a.rounds, a.trajectory, a.trace) == (
        b.score, b.log_lik, b.rounds, b.trajectory, b.trace)
    assert (a.fit_evaluations, a.screened_moves, a.fit_gaps) == (
        b.fit_evaluations, b.screened_moves, b.fit_gaps)
    assert a.em_maps <= b.em_maps and a.nonconverged_fits <= b.nonconverged_fits
    paused = [key for key, fit in state.memo.items() if isinstance(fit, PausedFit)]
    assert a.resumed_fits <= a.paused_fits and len(paused) <= a.paused_fits
    assert (a.em_maps < b.em_maps) == bool(paused)
    state.fit_missing(paused, cache)
    assert state.memo.keys() == oracle.memo.keys()
    for key, fit in state.memo.items():
        assert_same_fit(fit, oracle.memo[key])
    assert sum(f.iterations - (not f.converged) for f in state.memo.values()) == b.em_maps
    return a


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.booleans(), st.integers(1, 40))
def test_hill_climb_equals_oracle_hill_climb(seed, allow_cycles, flat, cap):
    # the incremental climb against the one that scores every legal move each
    # round: same graph, scores, trace, fits, screen and gaps
    inst = random_instance(RNG(seed), max_nodes=4, max_types=4, max_bins=30, min_events=8,
                           event_rate=0.5)
    cache = inst.cache.truncated(0) if flat else inst.cache
    _assert_same_climb(cache, em_config=EmConfig(max_iterations=cap), allow_cycles=allow_cycles)


@pytest.mark.parametrize("seed", [4, 41])
def test_paused_fits_resume_when_the_move_that_bounded_them_closes(seed):
    # in an acyclic search an add that bounded a paused fit can become
    # illegal while the paused move stays open; its fit is then resumed
    inst = random_instance(RNG(seed), max_nodes=4, max_types=4, max_bins=30, min_events=8,
                           event_rate=0.5)
    result = _assert_same_climb(inst.cache.truncated(0), allow_cycles=False)
    assert result.resumed_fits > 0


@pytest.mark.parametrize("allow_cycles", [True, False])
@pytest.mark.parametrize("hops", [2, 0])
def test_desk_climb_equals_oracle_hill_climb(allow_cycles, hops):
    # fits stop early at K=2 and at K=0, where nothing is screened
    result = _assert_same_climb(_desk_cache().truncated(hops), allow_cycles=allow_cycles)
    assert result.paused_fits > 0
