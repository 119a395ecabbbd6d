"""Symmetric normalization, hop powers, and edge-list files."""

from __future__ import annotations

import itertools
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hawkesnet import topology
from hawkesnet.errors import InvalidInputError
from hawkesnet.topology import (
    LIST_ENTRIES,
    TopologyGraph,
    build_topology,
    load_edge_list,
    save_edge_list,
)

from .oracles import oracle_normalized_adjacency, oracle_powers


def _dense_adjacency(topo: TopologyGraph) -> np.ndarray:
    adjacency = np.zeros((topo.node_count, topo.node_count))
    for a, b in topo.edges:
        adjacency[a, b] = adjacency[b, a] = 1.0
    return adjacency


def test_path_graph_normalization():
    powers = build_topology(3, [(0, 1), (1, 2)]).hop_matrices(2)
    prop = powers[1]
    assert prop[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert prop[1, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert prop[0, 2] == 0.0
    # two-hop mass reaches the far end of the path
    assert powers[2][0, 2] == pytest.approx(0.5, abs=1e-12)


def test_triangle_normalization():
    topo = build_topology(3, [(0, 1), (1, 2), (0, 2)])
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(topo.hop_matrices(1)[1], expected, atol=1e-12)


def test_isolated_node_rows_are_zero():
    powers = build_topology(4, [(0, 1)]).hop_matrices(2)
    np.testing.assert_array_equal(powers[1][2], np.zeros(4))
    np.testing.assert_array_equal(powers[1][:, 3], np.zeros(4))
    # isolated nodes stay unreachable at every positive hop
    for k in (1, 2):
        np.testing.assert_array_equal(powers[k][2], np.zeros(4))
        np.testing.assert_array_equal(powers[k][:, 3], np.zeros(4))


def test_zero_hop_matrix_is_identity():
    powers = build_topology(5, [(0, 1), (2, 3)]).hop_matrices(0)
    assert powers.shape == (1, 5, 5)
    np.testing.assert_array_equal(powers[0], np.eye(5))


def test_empty_graph_normalization():
    topo = build_topology(3, [])
    assert topo.edges == frozenset()
    powers = topo.hop_matrices(2)
    np.testing.assert_array_equal(powers[1], np.zeros((3, 3)))
    np.testing.assert_array_equal(powers[2], np.zeros((3, 3)))
    np.testing.assert_array_equal(powers[0], np.eye(3))


def test_duplicate_and_reversed_edges_collapse():
    topo = build_topology(3, [(0, 1), (1, 0), (0, 1)])
    assert topo.edges == frozenset({(0, 1)})
    assert topo == build_topology(3, [(0, 1)])


def test_build_rejects_bad_edges():
    with pytest.raises(InvalidInputError):
        build_topology(3, [(1, 1)])
    with pytest.raises(InvalidInputError):
        build_topology(3, [(0, 3)])
    with pytest.raises(InvalidInputError):
        build_topology(0, [])


@st.composite
def edge_sets(draw, max_nodes=7):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, edges


@given(edge_sets())
def test_normalization_matches_oracle(case):
    n, edges = case
    topo = build_topology(n, edges)
    np.testing.assert_allclose(
        topo.hop_matrices(1)[1],
        oracle_normalized_adjacency(_dense_adjacency(topo)),
        atol=1e-12,
    )


@given(edge_sets(), st.integers(min_value=0, max_value=4))
def test_powers_match_dense_matrix_power(case, max_hops):
    n, edges = case
    topo = build_topology(n, edges)
    powers = topo.hop_matrices(max_hops)
    assert powers.shape == (max_hops + 1, n, n)
    expected = oracle_powers(oracle_normalized_adjacency(_dense_adjacency(topo)), max_hops)
    for k in range(max_hops + 1):
        np.testing.assert_allclose(powers[k], expected[k], atol=1e-10)


@given(edge_sets(), st.integers(min_value=0, max_value=4))
def test_hop_lists_are_the_nonzeros_of_the_hop_matrices(case, max_hops):
    n, edges = case
    topo = build_topology(n, edges)
    powers = topo.hop_matrices(max_hops)
    lists = topo.hop_lists(max_hops)
    assert len(lists) == max_hops + 1
    for power, (sources, targets, weights) in zip(powers, lists):
        # sorted by (source, target), each pair once
        assert np.all(np.diff(sources * n + targets) > 0)
        np.testing.assert_array_equal(np.stack([sources, targets], axis=1), np.argwhere(power))
        np.testing.assert_allclose(weights, power[sources, targets], rtol=1e-12, atol=0)
    # P**0 lists every node, isolated ones included, and P**1 is P itself
    np.testing.assert_array_equal(lists[0][0], np.arange(n))
    np.testing.assert_array_equal(lists[0][2], np.ones(n))
    if max_hops:
        np.testing.assert_array_equal(lists[1][2], powers[1][lists[1][0], lists[1][1]])


def test_hop_lists_of_isolated_nodes_and_negative_order():
    topo = build_topology(4, [(0, 1)])
    sources, targets, weights = topo.hop_lists(2)[2]
    np.testing.assert_array_equal(sources, [0, 1])
    np.testing.assert_array_equal(targets, [0, 1])
    np.testing.assert_array_equal(weights, [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        topo.hop_lists(-1)


def test_hop_lists_refuse_lists_past_their_bound():
    # refused from the edge list alone, the same on every host: a complete
    # topology's second product meets n * (n - 1)**2 terms, and a node count
    # past LIST_ENTRIES makes P**0 too long
    complete = build_topology(200, itertools.combinations(range(200), 2))
    assert complete.walks(2)[1][2].sum() == 200 * 199**2 > LIST_ENTRIES
    assert len(complete.hop_lists(1)) == 2
    with pytest.raises(InvalidInputError, match="cannot allocate"):
        complete.hop_lists(2)
    with pytest.raises(InvalidInputError, match="cannot allocate"):
        build_topology(LIST_ENTRIES + 1, [(0, 1)]).hop_lists(0)


def test_walks_count_walks_from_each_node_with_edges():
    topo = build_topology(5, [(0, 1), (1, 2)])  # a path, and two isolated nodes
    nodes, counts = topo.walks(3)
    np.testing.assert_array_equal(nodes, [0, 1, 2])
    adjacency = _dense_adjacency(topo)[np.ix_([0, 1, 2], [0, 1, 2])]
    expected = [np.linalg.matrix_power(adjacency, k).sum(axis=1) for k in range(4)]
    np.testing.assert_array_equal(counts, expected)


@given(edge_sets())
def test_propagation_symmetric_with_bounded_spectrum(case):
    n, edges = case
    powers = build_topology(n, edges).hop_matrices(3)
    np.testing.assert_allclose(powers[1], powers[1].T, atol=0)
    eigenvalues = np.linalg.eigvalsh(powers[1])
    assert np.max(np.abs(eigenvalues)) <= 1.0 + 1e-9
    for k in range(4):
        np.testing.assert_allclose(powers[k], powers[k].T, atol=1e-10)


def test_hop_matrices_five_hops_match_matrix_power():
    topo = build_topology(4, [(0, 1), (1, 2), (2, 3)])
    powers = topo.hop_matrices(5)
    assert powers.shape == (6, 4, 4)
    np.testing.assert_array_equal(powers[:2], topo.hop_matrices(1))
    np.testing.assert_allclose(
        powers[5], np.linalg.matrix_power(powers[1], 5), atol=1e-10
    )


def test_hop_matrices_shape_and_negative_order():
    topo = build_topology(3, [(0, 1)])
    assert topo.hop_matrices(4).shape == (5, 3, 3)
    with pytest.raises(InvalidInputError):
        topo.hop_matrices(-1)


def test_hop_matrices_are_fresh_arrays():
    topo = build_topology(3, [(0, 1), (1, 2)])
    first = topo.hop_matrices(2)
    expected = first.copy()
    first[:] = -1.0
    np.testing.assert_array_equal(topo.hop_matrices(2), expected)


def test_topology_holds_only_its_edges():
    topo = build_topology(3, [(0, 1)])
    assert list(TopologyGraph._fields) == ["node_count", "edges"]
    assert topo == TopologyGraph(3, frozenset({(0, 1)}))
    assert topo != build_topology(4, [(0, 1)])
    assert hash(topo) == hash(build_topology(3, [(1, 0)]))


def test_public_names_are_pinned_and_called():
    assert sorted(topology.__all__) == [
        "TopologyGraph", "build_topology", "load_edge_list", "save_edge_list",
    ]
    package = Path(topology.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "topology.py":
            with path.open("rb") as source:
                used.update(tok.string for tok in tokenize.tokenize(source.readline)
                            if tok.type == tokenize.NAME)
    assert [name for name in topology.__all__ if name not in used] == []


def test_edge_list_round_trip(tmp_path):
    topo = build_topology(5, [(0, 1), (2, 4)])
    path = tmp_path / "topo.txt"
    save_edge_list(path, topo)
    loaded = load_edge_list(path)
    assert loaded.node_count == 5
    assert loaded.edges == topo.edges
    assert loaded == topo


def test_edge_list_node_hint_preserves_isolated_tail(tmp_path):
    path = tmp_path / "topo.txt"
    path.write_text("# nodes: 6\n0,1\n")
    loaded = load_edge_list(path)
    assert loaded.node_count == 6

    bare = tmp_path / "bare.txt"
    bare.write_text("0,1\n3,2\n")
    assert load_edge_list(bare).node_count == 4


def test_edge_list_comments_blanks_and_overrides(tmp_path):
    path = tmp_path / "topo.txt"
    path.write_text("# comment\n\n0,1\n\n# another\n1,2\n")
    loaded = load_edge_list(path, node_count=7)
    assert loaded.node_count == 7
    assert loaded.edges == frozenset({(0, 1), (1, 2)})


def test_edge_list_malformed_lines(tmp_path):
    path = tmp_path / "topo.txt"
    path.write_text("0;1\n")
    with pytest.raises(InvalidInputError):
        load_edge_list(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(InvalidInputError):
        load_edge_list(empty)
    assert load_edge_list(empty, node_count=3).edges == frozenset()
