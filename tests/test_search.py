"""Greedy structure search: moves, score caching, and recovery."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesnet.em import EmConfig, duality_gap, fit_type
from hawkesnet.errors import InvalidInputError
from hawkesnet.features import build_features
from hawkesnet.graph import CausalGraph
from hawkesnet.kernels import ExponentialKernel
from hawkesnet.likelihood import bic_penalty
from hawkesnet.search import (
    Move,
    SearchState,
    _SCREEN_MARGIN,
    _move_scores,
    _parents_after,
    apply_move,
    hill_climb,
    score_candidate,
    vicinity_moves,
)
from hawkesnet.simulate import SimConfig, generate_benchmark

from .helpers import random_instance
from .oracles import has_cycle

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


@given(dags())
def test_dag_mode_filter_equals_building_every_neighbor(graph):
    every = vicinity_moves(graph)
    want = [m for m in every if not has_cycle(apply_move(graph, m))]
    assert vicinity_moves(graph, allow_cycles=False) == want


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
        graph = apply_move(graph, move)
        state.apply(move, cache)
    moves = vicinity_moves(graph)
    assert {m.kind for m in moves} == {"add", "delete", "reverse"}
    for move in moves:
        candidate = apply_move(graph, move)
        total = 0.0
        for v in range(candidate.type_count):
            total += state.fit_for(v, candidate.parents(v), cache).log_lik
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


def test_progress_and_trace_output(tmp_path):
    _, cache = _tiny_search_setup(seed=13)
    lines = []
    trace_path = tmp_path / "trace.jsonl"
    result = hill_climb(
        cache,
        em_config=EmConfig(max_iterations=25),
        progress=lines.append,
        trace_path=str(trace_path),
    )
    assert len(lines) == result.rounds
    fits = 0
    for i, line in enumerate(lines, start=1):
        assert line.startswith(f"round={i} move=")
        fields = dict(field.split("=") for field in line.split(" ")[3:])
        assert set(fields) == {"edges", "score", "fits", "batches"}
        assert int(fields["batches"]) <= int(fields["fits"])  # no batch is empty
        fits += int(fields["fits"])
    # the empty graph's fits and the last, non-improving round print no line
    assert fits < result.fit_evaluations
    entries = [json.loads(s) for s in trace_path.read_text().splitlines()]
    assert len(entries) == result.rounds
    assert [e["round"] for e in entries] == list(range(1, result.rounds + 1))
    assert entries[-1]["score"] == pytest.approx(result.score)
    assert set(entries[0]) == {"round", "move", "edge", "edges", "score"}


def test_memoization_avoids_repeat_fits(monkeypatch):
    _, cache = _tiny_search_setup(seed=15)
    calls = []
    batches = []
    import hawkesnet.search as search_mod

    original = search_mod.fit_batch

    def counting_fit_batch(event_type, parent_sets, *args, **kwargs):
        batches.append(len(parent_sets))
        calls.extend((event_type, tuple(parents)) for parents in parent_sets)
        return original(event_type, parent_sets, *args, **kwargs)

    monkeypatch.setattr(search_mod, "fit_batch", counting_fit_batch)
    result = hill_climb(cache, em_config=EmConfig(max_iterations=20))
    assert len(calls) == len(set(calls))  # no key is ever fitted twice
    assert result.fit_evaluations == len(calls)
    assert max(batches) > 1  # a round's moves are fitted together


@pytest.mark.parametrize("allow_cycles", [True, False])
def test_each_round_scores_every_legal_move_once(monkeypatch, tmp_path, allow_cycles):
    _, cache = _tiny_search_setup(seed=17)
    import hawkesnet.search as search_mod

    rounds, scored = [], []
    original_screen, original_scores = search_mod._unscreened, search_mod._move_scores

    def recording_screen(moves, *args):
        kept = original_screen(moves, *args)
        rounds.append((list(moves), [moves[i] for i in kept]))
        return kept

    def recording_move_scores(moves, *args, **kwargs):
        scored.append(list(moves))
        return original_scores(moves, *args, **kwargs)

    monkeypatch.setattr(search_mod, "_unscreened", recording_screen)
    monkeypatch.setattr(search_mod, "_move_scores", recording_move_scores)
    trace_path = tmp_path / "trace.jsonl"
    result = hill_climb(
        cache,
        em_config=EmConfig(max_iterations=20),
        allow_cycles=allow_cycles,
        trace_path=str(trace_path),
    )
    entries = [json.loads(s) for s in trace_path.read_text().splitlines()]
    assert len(entries) == result.rounds >= 1
    graph = CausalGraph(cache.type_count)
    expected = []
    for entry in entries:
        expected.append(vicinity_moves(graph, allow_cycles))
        graph = apply_move(graph, Move(entry["move"], tuple(entry["edge"])))
    expected.append(vicinity_moves(graph, allow_cycles))  # the final, non-improving round
    # every legal move is screened or scored, once; the first call scores the empty graph
    assert [moves for moves, _ in rounds] == expected
    assert scored == [[None]] + [kept for _, kept in rounds]
    assert graph.edges == result.graph.edges


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
        batched.apply(move, inst.cache)
        alone.apply(move, inst.cache)
    moves = vicinity_moves(graph)
    scores = _move_scores(moves, batched, inst.cache)
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
    candidate = empty.with_edge((0, 0))
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


def _desk_cache():
    """The acceptance desk config at seed 0: 10 nodes, 5 types, ~6000 events, K=2."""
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
    return build_features(data.dataset(), data.topology, config.kernel, config.max_hops)


def _climb_recording_screen(monkeypatch, cache, em):
    """``hill_climb``, plus each screened move with a copy of the state it was screened in."""
    import hawkesnet.search as search_mod

    original = search_mod._unscreened
    screened = []

    def recording(moves, state, *args):
        kept = original(moves, state, *args)
        copy = SearchState(state.em_config, list(state.parents), list(state.fits), state.edge_count)
        screened.extend((moves[i], copy) for i in sorted(set(range(len(moves))) - set(kept)))
        return kept

    with monkeypatch.context() as patch:
        patch.setattr(search_mod, "_unscreened", recording)
        result = hill_climb(cache, em_config=em)
    return result, screened


@pytest.mark.parametrize("setup", ["tiny", "desk"])
def test_screened_moves_cannot_improve_and_change_nothing(monkeypatch, setup):
    cache = _tiny_search_setup(seed=3)[1] if setup == "tiny" else _desk_cache()
    em = EmConfig()
    result, screened = _climb_recording_screen(monkeypatch, cache, em)
    assert screened and result.screened_moves == len(screened)
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
            after[parent] = state.fit_for(parent, _parents_after(state.parents, rival, parent), cache).log_lik
        total = sum(after.get(v, f.log_lik) for v, f in enumerate(state.fits))
        total -= bic_penalty(
            cache.type_count, state.edge_count + (move.kind == "add"), cache.max_hops,
            cache.total_events,
        )
        assert fitted == total and not fitted > kept, move

    # the search without the screen: the same climb, bit for bit, with more fits
    import hawkesnet.search as search_mod

    monkeypatch.setattr(search_mod, "_unscreened", lambda moves, *args: list(range(len(moves))))
    plain = hill_climb(cache, em_config=em)
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
