"""Tests of the benchmark's input generator.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import math
import os
import statistics
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import gen  # noqa: E402

SMALL = gen.Shape(
    nodes=4, types=3, degree=1.5, indegree=1.0,
    mu_range=(0.002, 0.004), alpha_range=(0.1, 0.2),
    delta=0.5, dt=1.0, k=2, bins=20_000,
)


def read_all(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_mean_event_count_matches_branching_expectation():
    # each seed draws its own graph and parameters, so compare each count
    # with its own expectation m0 (I - B)^-1 1; the horizon is long enough
    # that children dropped past its end change the mean by ~1e-4
    ratios = []
    for seed in range(200):
        inst = gen.generate(SMALL, seed)
        expected = gen.expected_events(SMALL, inst.edges, inst.mu, inst.alpha, inst.topology)
        ratios.append(inst.event_count / expected)
    mean = statistics.fmean(ratios)
    stderr = statistics.stdev(ratios) / math.sqrt(len(ratios))
    assert abs(mean - 1.0) < 4 * stderr, (mean, stderr)
    assert stderr < 0.01


def test_offspring_exceed_immigrants_by_the_branching_factor():
    # without excitation the count is the immigrant count alone
    flat = replace(SMALL, alpha_range=(0.0, 0.0))
    inst = gen.generate(flat, 3)
    immigrants = gen.expected_events(flat, inst.edges, inst.mu, inst.alpha, inst.topology)
    assert immigrants == pytest.approx(float(inst.mu.sum()) * SMALL.nodes * SMALL.bins)
    excited = gen.generate(SMALL, 3)
    assert excited.event_count > inst.event_count


def test_fixed_seed_reproduces_identical_bytes(tmp_path):
    for out in ("a", "b"):
        gen.write_instance(gen.generate(SMALL, 11), str(tmp_path / out))
    gen.write_instance(gen.generate(SMALL, 12), str(tmp_path / "c"))
    first = read_all(tmp_path / "a")
    assert sorted(first) == ["events.csv", "ground_truth.json", "topology.txt"]
    assert first == read_all(tmp_path / "b")
    assert first["events.csv"] != read_all(tmp_path / "c")["events.csv"]


def test_graphs_have_the_stated_edge_counts_and_no_cycles():
    shape = replace(SMALL, nodes=40, types=20, indegree=1.5)
    for seed in range(5):
        inst = gen.generate(shape, seed)
        assert len(inst.topology) == 30 and all(a < b for a, b in inst.topology)
        assert len(inst.edges) == 30
        # acyclic: repeatedly strip types with no incoming edge
        edges, alive = set(inst.edges), set(range(shape.types))
        while alive:
            roots = {v for v in alive if not any(c in alive and w == v for c, w in edges)}
            assert roots, "cycle in the causal graph"
            alive -= roots


def test_parameters_are_stratified_over_their_ranges():
    inst = gen.generate(SMALL, 5)
    lo, hi = SMALL.mu_range
    slot = np.floor((np.sort(inst.mu) - lo) / (hi - lo) * SMALL.types)
    assert slot.tolist() == list(range(SMALL.types))


def test_outputs_load_with_the_package_readers(tmp_path):
    from hawkesnet.events import discretize, load_events_csv
    from hawkesnet.fileio import load_graph_json
    from hawkesnet.topology import load_edge_list

    inst = gen.generate(SMALL, 2)
    gen.write_instance(inst, str(tmp_path))
    records = load_events_csv(str(tmp_path / "events.csv"))
    dataset = discretize(records, SMALL.dt, SMALL.bins * SMALL.dt, node_count=SMALL.nodes, type_count=SMALL.types)
    assert dataset.total_events == inst.event_count
    assert dataset.bin_count == SMALL.bins
    topology = load_edge_list(str(tmp_path / "topology.txt"))
    assert topology.node_count == SMALL.nodes and topology.edges == frozenset(inst.topology)
    truth = load_graph_json(str(tmp_path / "ground_truth.json"))
    assert truth.graph.edges == frozenset(inst.edges)
    np.testing.assert_array_equal(truth.params.mu, inst.mu)
    np.testing.assert_allclose(gen.hop_powers(SMALL.nodes, inst.topology, SMALL.k), topology.hop_matrices(SMALL.k))
