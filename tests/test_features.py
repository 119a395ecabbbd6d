"""Feature cache: propagated decayed histories at occupied cells."""

from __future__ import annotations

import ast
import importlib.util
import itertools
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesnet import features
from hawkesnet.errors import InvalidInputError, UnderGenerationWarning, UnsupportedKernelError
from hawkesnet.events import discretize, event_table
from hawkesnet.features import aligned_rows, build_features
from hawkesnet.kernels import ExponentialKernel, GaussianKernel
from hawkesnet.likelihood import type_batch
from hawkesnet.simulate import SimConfig, generate_benchmark
from hawkesnet.topology import build_topology

from .helpers import (
    dense_to_dataset,
    random_instance,
    random_symmetric_edges,
    rows_to_table,
    type_cell_coords,
)
from .oracles import oracle_blockwise_features, oracle_chunked_features, oracle_features

RNG = np.random.default_rng
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _two_node_cache(max_hops=1):
    """One type-0 event at (node 0, bin 0), one type-1 event at (node 1, bin 1).

    Returns the dataset and its cache.
    """
    topo = build_topology(2, [(0, 1)])
    records = rows_to_table([(0, 0, 0.5), (1, 1, 1.5)])
    ds = discretize(records, 1.0, 2.0, node_count=2, type_count=2)
    return ds, build_features(ds, topo, ExponentialKernel(0.11), max_hops)


def _feature(ds, cache, event_type, cause, hop, node, time_bin):
    """The hop feature of ``cause`` at ``event_type``'s cell ``(node, time_bin)``."""
    nodes, bins = type_cell_coords(ds, event_type)
    (i,) = np.flatnonzero((nodes == node) & (bins == time_bin))
    return cache.type_values[event_type][cause * (cache.max_hops + 1) + hop, i]


def test_one_hop_feature_worked_example():
    ds, cache = _two_node_cache()
    # the neighbor's decayed history, one bin back, at type 1's cell
    assert _feature(ds, cache, 1, 0, 1, 1, 1) == pytest.approx(0.895834, abs=1e-6)
    # hop 0 sees nothing: node 1 had no earlier type-0 events
    assert _feature(ds, cache, 1, 0, 0, 1, 1) == 0.0
    # the source cell itself has no history at bin 0
    assert _feature(ds, cache, 0, 0, 0, 0, 0) == 0.0
    assert _feature(ds, cache, 0, 0, 1, 0, 0) == 0.0


def test_hop_zero_is_own_node_history():
    topo = build_topology(3, [(0, 1), (1, 2)])
    records = rows_to_table([
        (0, 0, 0.5),
        (0, 0, 1.5),
        (0, 1, 2.5),
        (2, 0, 2.5),
    ])
    ds = discretize(records, 1.0, 4.0, node_count=3, type_count=2)
    cache = build_features(ds, topo, ExponentialKernel(0.5), 2)
    expected = math.exp(-0.5 * 2) + math.exp(-0.5 * 1)
    assert _feature(ds, cache, 1, 0, 0, 0, 2) == pytest.approx(expected, rel=1e-12)


def test_cell_bookkeeping():
    _, cache = _two_node_cache()
    assert cache.cell_count == 2
    np.testing.assert_array_equal(cache.cell_bins, [0, 1])
    np.testing.assert_array_equal(cache.cell_nodes, [0, 1])
    # each type keeps its own cell only
    assert [values.shape for values in cache.type_values] == [(4, 1), (4, 1)]
    np.testing.assert_array_equal(cache.type_counts[0], [1.0])
    np.testing.assert_array_equal(cache.type_counts[1], [1.0])
    # a cell without events is not cached
    assert not ((cache.cell_nodes == 0) & (cache.cell_bins == 1)).any()


def test_features_for_slices_match_values():
    # a type's likelihood batch holds a single parent's rows
    rng = RNG(7)
    inst = random_instance(rng, max_nodes=4, max_types=3, max_bins=12, min_events=5)
    cache = inst.cache
    hops = cache.max_hops + 1
    for v in range(cache.type_count):
        batch = type_batch(cache, v, [(0,)])
        cells = cache.type_counts[v].shape[0]
        assert cache.type_values[v].shape == (cache.type_count * hops, cells)
        np.testing.assert_array_equal(batch.counts, cache.type_counts[v])
        np.testing.assert_array_equal(batch.flat[0], cache.type_values[v][:hops])
        assert all(row.ctypes.data % 64 == 0 for row in cache.type_values[v])
        assert cache.type_values[v].strides[0] % 64 == 0
        empty = type_batch(cache, v, [()]).flat
        assert len(empty) == 1 and empty[0].shape == (0, cells)
    last = cache.type_count - 1
    batch = type_batch(cache, 0, [(last, 0)])
    np.testing.assert_array_equal(batch.totals[0], cache.totals[[last, 0]].reshape(-1))


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=10_000))
def test_values_and_totals_match_loop_oracle(seed):
    rng = RNG(seed)
    inst = random_instance(rng, max_nodes=4, max_types=3, max_bins=15, min_events=2)
    cache = inst.cache
    dense_values, dense_totals = oracle_features(
        inst.dense, inst.topology.hop_matrices(1)[1], inst.max_hops, inst.bin_width, inst.decay
    )
    for v in range(cache.type_count):
        for i, (node, t) in enumerate(zip(*type_cell_coords(inst.dataset, v))):
            np.testing.assert_allclose(
                cache.type_values[v][:, i].reshape(cache.type_count, -1),
                dense_values[:, :, node, t],
                rtol=1e-9,
                atol=1e-12,
            )
    np.testing.assert_allclose(cache.totals, dense_totals, rtol=1e-9, atol=1e-12)


def _gapped_dataset(rng):
    """Runs of bins at 1-100% occupancy, split by gaps longer than a chunk.

    Each gap decays the history by more than ``_MAX_SPAN_EXPONENT``, so every
    gap ends a chunk and the state has to carry across it.
    """
    nodes = int(rng.integers(1, 5))
    types = int(rng.integers(1, 4))
    # decay*dt >= 0.25 keeps gaps under ~2,500 bins: the reference multiplies
    # by r once per bin, so its own rounding drift grows with the gap length
    rate = float(np.exp(rng.uniform(math.log(0.25), math.log(20.0))))
    occupancy = 10 ** rng.uniform(-2.0, 0.0)
    records = []
    start = 0
    for _ in range(int(rng.integers(1, 4))):
        run = int(rng.integers(1, 400))
        occupied = np.flatnonzero(rng.random(run) < occupancy)
        if occupied.size == 0:
            occupied = rng.integers(run, size=1)
        for b in start + occupied:
            for _ in range(int(rng.integers(1, nodes * types + 1))):
                records.append((int(rng.integers(nodes)), int(rng.integers(types)), b + 0.5))
        gap = features._MAX_SPAN_EXPONENT * rng.uniform(1.0, 1.2) / rate
        start += run + math.ceil(gap)
    ds = discretize(rows_to_table(records), 1.0, float(start), node_count=nodes, type_count=types)
    return ds, ExponentialKernel(rate)


def _built(build, ds, topo, kernel, hops):
    """The cache of ``build``, ``"chunks"`` or ``"events"``, whichever build
    ``build_features`` would pick."""
    form = topo.hop_matrices(hops) if build == "chunks" else topo.hop_lists(hops)
    return features._framed(build, form, ds, kernel, features._cells(ds))


def _builds(ds):
    """``(build, chunk budget)``: each build by name, the chunk loop also in
    chunks of about three cells."""
    return [
        ("chunks", features._CHUNK_ELEMENTS),
        ("chunks", 3 * ds.type_count * ds.node_count),
        ("events", features._CHUNK_ELEMENTS),
    ]


@given(st.integers(min_value=0, max_value=10_000))
def test_build_matches_blockwise_oracle(seed):
    rng = RNG(seed)
    ds, kernel = _gapped_dataset(rng)
    hops = int(rng.integers(0, 3))
    topo = build_topology(ds.node_count, random_symmetric_edges(rng, ds.node_count))
    ref = oracle_blockwise_features(ds, topo, kernel, hops)
    for build, elements in _builds(ds):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "_CHUNK_ELEMENTS", elements)
            cache = _built(build, ds, topo, kernel, hops)
        np.testing.assert_array_equal(cache.cell_bins, ref.cell_bins)
        np.testing.assert_array_equal(cache.cell_nodes, ref.cell_nodes)
        # values deep in the gaps leave the normal range; below 1e-300 only
        # the two routes' underflow differs
        for values, expected in zip(cache.type_values, ref.type_values, strict=True):
            np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(cache.totals, ref.totals, rtol=1e-12)


def _assert_same_cache(cache, ref):
    for got, want in zip(cache.type_values, ref.type_values, strict=True):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(cache.type_counts, ref.type_counts, strict=True):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(cache.totals, ref.totals)


@given(st.integers(min_value=0, max_value=10_000))
def test_build_equals_chunked_scatter_oracle(seed):
    # the chunk loop on the instances of test_build_matches_blockwise_oracle,
    # bit for bit: the event build sums in another order
    rng = RNG(seed)
    ds, kernel = _gapped_dataset(rng)
    hops = int(rng.integers(0, 3))
    topo = build_topology(ds.node_count, random_symmetric_edges(rng, ds.node_count))
    for elements in (features._CHUNK_ELEMENTS, 3 * ds.type_count * ds.node_count):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "_CHUNK_ELEMENTS", elements)
            cache = _built("chunks", ds, topo, kernel, hops)
            ref = oracle_chunked_features(ds, topo, kernel, hops)
        _assert_same_cache(cache, ref)


@pytest.mark.parametrize(
    "nodes, types, bins, events, decay",
    [
        (40, 20, 4000, 300, 1.0),  # README-shaped: 40 nodes, 20 types, few bins occupied
        (10, 5, 1500, 11_000, 0.2),  # dense-learn-shaped: every bin occupied
    ],
)
def test_build_equals_chunked_scatter_oracle_on_benchmark_shapes(nodes, types, bins, events, decay):
    rng = RNG(5)
    records = event_table(rng.integers(0, nodes, events), rng.integers(0, types, events),
                          rng.uniform(0.0, bins, events))
    ds = discretize(records, 1.0, float(bins), node_count=nodes, type_count=types)
    topo = build_topology(nodes, random_symmetric_edges(rng, nodes, 1.5 / nodes))
    kernel = ExponentialKernel(decay)
    _assert_same_cache(_built("chunks", ds, topo, kernel, 2),
                       oracle_chunked_features(ds, topo, kernel, 2))
    # and whichever build build_features picks, against the sweep of every bin
    cache = build_features(ds, topo, kernel, 2)
    ref = oracle_blockwise_features(ds, topo, kernel, 2)
    for values, expected in zip(cache.type_values, ref.type_values, strict=True):
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(cache.totals, ref.totals, rtol=1e-12)


@pytest.mark.parametrize("decay", [1e-6, 50.0])
def test_long_horizon_is_numerically_safe(decay):
    # 1e7 bins: r = exp(-decay) is within 1e-6 of 1, or r^j underflows to 0
    bins = 10_000_000
    rng = RNG(17)
    topo = build_topology(3, [(0, 1), (1, 2)])
    event_bins = np.sort(rng.integers(0, bins, size=5000))
    event_nodes = rng.integers(0, 3, size=5000)
    event_types = rng.integers(0, 2, size=5000)
    records = event_table(event_nodes, event_types, event_bins + 0.5)
    ds = discretize(records, 1.0, float(bins), node_count=3, type_count=2)
    # closed-form geometric tail of each event over the rest of the horizon
    r = math.exp(-decay)
    tail = [
        r * math.expm1(-decay * (bins - 1 - b)) / math.expm1(-decay) for b in event_bins
    ]
    summary = np.zeros((2, 3))
    for v in range(2):
        for n in range(3):
            mine = (event_types == v) & (event_nodes == n)
            summary[v, n] = math.fsum(t for t, m in zip(tail, mine) if m)
    expected = summary @ topo.hop_matrices(2).sum(axis=2).T

    for build in ("chunks", "events"):
        started = time.perf_counter()
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            cache = _built(build, ds, topo, ExponentialKernel(decay), 2)
        elapsed = time.perf_counter() - started
        assert all(np.isfinite(values).all() for values in cache.type_values)
        assert np.isfinite(cache.totals).all()
        np.testing.assert_allclose(cache.totals, expected, rtol=1e-10)

        # hop 0 is the node's own decayed history, summed directly
        for w in range(2):
            cell_nodes, cell_bins = type_cell_coords(ds, w)
            for i in rng.choice(cell_nodes.shape[0], size=10, replace=False):
                node, t = int(cell_nodes[i]), int(cell_bins[i])
                for v in range(2):
                    before = (event_types == v) & (event_nodes == node) & (event_bins < t)
                    direct = math.fsum(math.exp(-decay * (t - b)) for b in event_bins[before])
                    got = cache.type_values[w][v * (cache.max_hops + 1), i]
                    assert got == pytest.approx(direct, rel=1e-10, abs=1e-300)
        assert elapsed < 10.0


@pytest.mark.parametrize("build", ["chunks", "events"])
def test_a_decay_near_the_float_limit_gives_zero_features_without_a_warning(build):
    # decay * dt = 1e308: r = 0, so every feature and total is 0; a lag of
    # two bins or more times the rate overflows to -inf, as it may
    rows = [(n, v, b + 0.5) for b in (0, 1, 3, 9) for n in range(3) for v in range(2)]
    ds = discretize(rows_to_table(rows), 1.0, 12.0, node_count=3, type_count=3)
    topo = build_topology(3, [(0, 1), (1, 2)])
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        cache = _built(build, ds, topo, ExponentialKernel(1e308), 2)
    assert [values.shape for values in cache.type_values] == [(9, 12), (9, 12), (9, 0)]
    assert not any(values.any() for values in cache.type_values)
    assert not cache.totals.any()


def test_truncated_cache_equals_fresh_build():
    rng = RNG(3)
    dense = rng.poisson(0.3, size=(4, 3, 20))
    silent = dense.copy()
    silent[:, 1] = 0  # type 1 has no events
    topo = build_topology(4, [(0, 1), (1, 2), (2, 3)])
    kernel = ExponentialKernel(0.2)
    for counts in (dense, silent):
        ds = dense_to_dataset(counts, 1.0)
        # each build, the chunk loop also across many chunks of about three cells
        for build, elements in _builds(ds):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(features, "_CHUNK_ELEMENTS", elements)
                _assert_truncation_exact(build, ds, topo, kernel)


def _nan_rows(rows, width):
    block = aligned_rows(rows, width)
    block.fill(np.nan)
    return block


def test_each_fill_writes_every_block_entry(monkeypatch):
    # the blocks start NaN-filled, and the event build's queries take one
    # cause per group: a NaN left by a fill, or by truncated, fails the
    # comparisons of test_truncated_cache_equals_fresh_build
    monkeypatch.setattr(features, "aligned_rows", _nan_rows)
    monkeypatch.setattr(features, "_QUERY_ELEMENTS", 1)
    test_truncated_cache_equals_fresh_build()


def _assert_truncation_exact(build, ds, topo, kernel):
    full = _built(build, ds, topo, kernel, 3)
    silent = np.bincount(ds.types, minlength=ds.type_count) == 0
    assert not any(np.isnan(values).any() for values in full.type_values)
    for hops in (0, 1, 2):
        fresh = _built(build, ds, topo, kernel, hops)
        view = full.truncated(hops)
        assert view.max_hops == hops
        assert not any(np.isnan(values).any() for values in view.type_values + fresh.type_values)
        # aligned rows laid out as the fresh build's, and byte for byte its rows
        for got, want in zip(view.type_values, fresh.type_values, strict=True):
            assert got.strides == want.strides and all(row.ctypes.data % 64 == 0 for row in got)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        assert view.totals.tobytes() == fresh.totals.tobytes()
        assert not view.totals[silent].any()
    assert full.truncated(3) is full
    with pytest.raises(InvalidInputError):
        full.truncated(4)
    with pytest.raises(InvalidInputError):
        full.truncated(-1)


def test_empty_dataset_builds_empty_cache():
    ds = discretize(rows_to_table([]), 1.0, 10.0, node_count=3, type_count=2)
    topo = build_topology(3, [(0, 1)])
    cache = build_features(ds, topo, ExponentialKernel(1.0), 2)
    assert cache.cell_count == 0
    np.testing.assert_array_equal(cache.totals, np.zeros((2, 3)))
    assert [values.shape for values in cache.type_values] == [(6, 0), (6, 0)]
    batch = type_batch(cache, 0, [(0, 1)])
    assert len(batch.flat) == 1 and batch.flat[0].shape == (6, 0)
    assert batch.counts.shape == (0,)


def test_a_cache_past_the_budget_is_refused_before_a_block_is_made(monkeypatch):
    # types 0 and 2 of 4 have events, at 10 and 9 cells: the blocks hold
    # 4 * 3 rows over 16, 8, 16 and 8 padded cells, and the budget is exact
    rows = [(0, 0, b + 0.5) for b in range(10)] + [(1, 2, b + 0.5) for b in range(9)]
    ds = discretize(rows_to_table(rows), 1.0, 10.0, node_count=3, type_count=4)
    topo = build_topology(3, [(0, 1)])
    cache = build_features(ds, topo, ExponentialKernel(1.0), 2)
    entries = sum(values.shape[0] * values.strides[0] // values.itemsize for values in cache.type_values)
    assert entries == 4 * 3 * (16 + 8 + 16 + 8)
    monkeypatch.setattr(features, "DENSE_ENTRIES", entries)
    build_features(ds, topo, ExponentialKernel(1.0), 2)
    monkeypatch.setattr(features, "DENSE_ENTRIES", entries - 1)
    monkeypatch.setattr(features, "aligned_rows", lambda *_: pytest.fail("a feature block was made"))
    with pytest.raises(InvalidInputError, match="cannot allocate the features of 4 types at 2 "
                                                "propagation hops over 19 cells"):
        build_features(ds, topo, ExponentialKernel(1.0), 2)


def test_rejects_non_exponential_kernel():
    ds = discretize(rows_to_table([(0, 0, 0.5)]), 1.0, 2.0)
    topo = build_topology(1, [])
    with pytest.raises(UnsupportedKernelError):
        build_features(ds, topo, GaussianKernel(10.0, 4.0), 0)


def test_rejects_mismatched_dimensions():
    ds = discretize(rows_to_table([(0, 0, 0.5)]), 1.0, 2.0, node_count=2)
    topo = build_topology(3, [(0, 1)])
    with pytest.raises(InvalidInputError):
        build_features(ds, topo, ExponentialKernel(1.0), 1)
    with pytest.raises(InvalidInputError):
        build_features(
            discretize(rows_to_table([]), 1.0, 2.0, node_count=3),
            topo,
            ExponentialKernel(1.0),
            -1,
        )


def test_totals_cover_all_cells_not_just_occupied():
    # a single early event radiates into every later bin; occupied cells
    # alone would massively undercount the integral term
    topo = build_topology(2, [(0, 1)])
    ds = discretize(rows_to_table([(0, 0, 0.5)]), 1.0, 100.0, node_count=2, type_count=1)
    cache = build_features(ds, topo, ExponentialKernel(0.1), 1)
    r = math.exp(-0.1)
    expected = r * (1 - r**99) / (1 - r)  # geometric tail over bins 1..99
    assert cache.totals[0, 0] == pytest.approx(expected, rel=1e-10)
    assert cache.totals[0, 1] == pytest.approx(expected, rel=1e-10)


def test_event_build_without_rows_or_neighbours():
    kernel = ExponentialKernel(1.0)
    topo = build_topology(3, [(0, 1)])
    empty = discretize(rows_to_table([]), 1.0, 10.0, node_count=3, type_count=2)
    cache = _built("events", empty, topo, kernel, 2)
    assert cache.cell_count == 0
    np.testing.assert_array_equal(cache.totals, np.zeros((2, 3)))
    assert [values.shape for values in cache.type_values] == [(6, 0), (6, 0)]
    # events only at the isolated node: hops 1 and 2 push no row at all
    ds = discretize(rows_to_table([(2, 0, 0.5), (2, 1, 3.5), (2, 0, 7.5)]), 1.0, 10.0,
                    node_count=3, type_count=2)
    ref = oracle_blockwise_features(ds, topo, kernel, 2)
    cache = _built("events", ds, topo, kernel, 2)
    for values, expected in zip(cache.type_values, ref.type_values, strict=True):
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(cache.totals, ref.totals, rtol=1e-12, atol=0)


def _perfbench_value(name):
    """The literal assigned to ``name`` in perfbench/run.py, read without
    running it; a ``gen.Shape(...)`` call as the dict of its arguments."""
    for node in ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name]:
            if isinstance(node.value, ast.Call):
                return {kw.arg: ast.literal_eval(kw.value) for kw in node.value.keywords}
            return ast.literal_eval(node.value)
    raise LookupError(name)


def _perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _choice(ds, topo, max_hops):
    return features.choose_build(ds, topo, max_hops, features._cells(ds)[0])[0]


@pytest.mark.parametrize("seed", [23, 5])
def test_build_choice_on_benchmark_inputs(seed):
    gen = _perfbench_gen()
    for name, expected in (("README", "events"), ("DENSE", "chunks")):
        shape = gen.Shape(**_perfbench_value(name))
        inst = gen.generate(shape, seed)
        records = event_table(inst.nodes, inst.types, (inst.bins + 0.5) * shape.dt)
        ds = discretize(records, shape.dt, shape.bins * shape.dt, node_count=shape.nodes,
                        type_count=shape.types)
        topo = build_topology(shape.nodes, inst.topology)
        assert _choice(ds, topo, shape.k) == expected
    # desk-pipeline simulates the desk config for 60,000 bins
    config = SimConfig.from_dict({**_perfbench_value("DESK"), "max_bins": 60_000,
                                  "target_event_count": 10**9, "seed": seed})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderGenerationWarning)
        data = generate_benchmark(config)
    assert _choice(data.dataset(), data.topology, config.max_hops) == "events"


@pytest.mark.parametrize("max_hops", [2, 8])
@pytest.mark.parametrize("nodes", [40, 400, 2000])
def test_build_choice_at_readme_scale(nodes, max_hops):
    data = generate_benchmark(SimConfig(seed=7, node_count=nodes))
    assert _choice(data.dataset(), data.topology, max_hops) == "events"


def test_dense_topology_takes_the_chunk_build():
    # Few events on a complete topology: the work comparison favours the
    # event build, but its second hop's product would meet n**3 terms.
    n = 300
    topo = build_topology(n, itertools.combinations(range(n), 2))
    rng = np.random.default_rng(0)
    records = event_table(rng.integers(0, n, 200), rng.integers(0, 5, 200),
                          rng.random(200) * 1000.0)
    ds = discretize(records, 1.0, 1000.0, node_count=n, type_count=5)
    assert _choice(ds, topo, 1) == "events"
    assert _choice(ds, topo, 2) == "chunks"
    assert build_features(ds, topo, ExponentialKernel(1.0), 2).build == "chunks"


def test_many_hops_on_a_ring_take_the_event_build():
    # a ring's 20th hop has 2**20 walks from each node but at most 10
    # entries per source: the lists stay small, and the event build runs
    n = 10
    topo = build_topology(n, [(i, (i + 1) % n) for i in range(n)])
    rng = np.random.default_rng(3)
    records = event_table(rng.integers(0, n, 200), rng.integers(0, 3, 200),
                          rng.random(200) * 1000.0)
    ds = discretize(records, 1.0, 1000.0, node_count=n, type_count=3)
    kernel = ExponentialKernel(0.1)
    cache = build_features(ds, topo, kernel, 20)
    assert cache.build == "events"
    ref = _built("chunks", ds, topo, kernel, 20)
    for values, expected in zip(cache.type_values, ref.type_values, strict=True):
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(cache.totals, ref.totals, rtol=1e-12, atol=0)
