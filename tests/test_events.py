"""Discretization of the event table and the CSV format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hawkesnet.errors import InvalidInputError
from hawkesnet.events import (
    discretize,
    load_events_csv,
    save_events_csv,
)

from .helpers import dataset_to_dense, rows_to_table


def test_floor_binning():
    records = rows_to_table([(0, 0, 0.4), (0, 0, 0.6)])
    ds = discretize(records, 0.5, 1.0, node_count=1, type_count=1)
    assert ds.bin_count == 2
    np.testing.assert_array_equal(ds.bins, [0, 1])
    np.testing.assert_array_equal(ds.counts, [1, 1])


def test_bin_count_rounds_partial_bins_up():
    ds = discretize(rows_to_table([]), 1.0, 10.0, node_count=1, type_count=1)
    assert ds.bin_count == 10
    ds = discretize(rows_to_table([]), 1.0, 10.2, node_count=1, type_count=1)
    assert ds.bin_count == 11
    assert ds.horizon_end == pytest.approx(11.0)


def test_horizon_shorter_than_a_bin_is_one_bin():
    ds = discretize(rows_to_table([(0, 0, 0.0)]), 1.0, 1e-10)
    assert ds.bin_count == 1
    assert ds.total_events == 1 and ds.bins.tolist() == [0]


def test_events_in_final_partial_bin_are_kept():
    ds = discretize(
        rows_to_table([(0, 0, 10.1)]), 1.0, 10.2, node_count=1, type_count=1
    )
    assert ds.total_events == 1
    assert ds.bins[0] == 10


def test_window_boundaries_rejected():
    with pytest.raises(InvalidInputError):
        discretize(rows_to_table([(0, 0, 5.0)]), 1.0, 5.0)
    with pytest.raises(InvalidInputError):
        discretize(rows_to_table([(0, 0, -0.1)]), 1.0, 5.0)
    # zero is inside the window
    ds = discretize(rows_to_table([(0, 0, 0.0)]), 1.0, 5.0)
    assert ds.bins[0] == 0


def test_dimension_validation():
    with pytest.raises(InvalidInputError):
        discretize(rows_to_table([(2, 0, 1.0)]), 1.0, 5.0, node_count=2, type_count=1)
    with pytest.raises(InvalidInputError):
        discretize(rows_to_table([(0, 3, 1.0)]), 1.0, 5.0, node_count=2, type_count=3)
    with pytest.raises(InvalidInputError):
        discretize(rows_to_table([]), 0.0, 5.0)
    with pytest.raises(InvalidInputError):
        discretize(rows_to_table([]), 1.0, -1.0)


def test_dimensions_inferred_from_records():
    ds = discretize(rows_to_table([(3, 1, 0.5), (0, 4, 1.5)]), 1.0, 2.0)
    assert ds.node_count == 4
    assert ds.type_count == 5


def test_duplicate_cells_collapse():
    records = rows_to_table([(1, 0, 2.2), (1, 0, 2.9), (1, 0, 2.5)])
    ds = discretize(records, 1.0, 5.0, node_count=2, type_count=1)
    assert ds.counts.tolist() == [3]
    assert ds.count_at(1, 0, 2) == 3
    assert ds.count_at(0, 0, 2) == 0
    assert ds.count_at(1, 0, 3) == 0


def test_rows_sorted_by_type_bin_node():
    records = rows_to_table([
        (1, 1, 0.5),
        (0, 0, 3.5),
        (1, 0, 0.5),
        (0, 0, 0.5),
    ])
    ds = discretize(records, 1.0, 4.0, node_count=2, type_count=2)
    order = list(zip(ds.types.tolist(), ds.bins.tolist(), ds.nodes.tolist()))
    assert order == sorted(order)
    assert ds.type_rows(0) == slice(0, 3)
    assert ds.type_rows(1) == slice(3, 4)


def test_events_per_type_and_totals():
    records = rows_to_table([(0, 0, 0.5)] * 3 + [(0, 2, 1.5)])
    ds = discretize(records, 1.0, 2.0, node_count=1, type_count=3)
    np.testing.assert_array_equal(ds.events_per_type(), [3, 0, 1])
    assert ds.total_events == 4


def test_empty_dataset():
    ds = discretize(rows_to_table([]), 1.0, 5.0, node_count=3, type_count=2)
    assert ds.total_events == 0
    assert ds.nodes.shape == (0,)
    np.testing.assert_array_equal(ds.events_per_type(), [0, 0])


record_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.0, max_value=9.99, exclude_max=True),
    ),
    max_size=60,
)


@given(record_lists, st.randoms())
def test_permutation_invariance(rows, shuffler):
    records = rows_to_table(rows)
    ds1 = discretize(records, 0.7, 10.0, node_count=4, type_count=3)
    shuffled = list(rows)
    shuffler.shuffle(shuffled)
    ds2 = discretize(rows_to_table(shuffled), 0.7, 10.0, node_count=4, type_count=3)
    for name in ("nodes", "types", "bins", "counts"):
        np.testing.assert_array_equal(getattr(ds1, name), getattr(ds2, name))


@given(record_lists)
def test_counts_match_histogram_oracle(rows):
    records = rows_to_table(rows)
    ds = discretize(records, 0.7, 10.0, node_count=4, type_count=3)
    dense = dataset_to_dense(ds)
    expected = np.zeros_like(dense)
    for (n, v, t) in rows:
        b = min(int(t // 0.7), ds.bin_count - 1)
        expected[n, v, b] += 1
    np.testing.assert_array_equal(dense, expected)
    assert ds.total_events == len(rows)


def test_csv_round_trip(tmp_path):
    records = rows_to_table([(0, 1, 0.25), (3, 0, 7.125)])
    path = tmp_path / "events.csv"
    save_events_csv(path, records)
    np.testing.assert_array_equal(load_events_csv(path), records)


def test_csv_timestamps_survive_exactly(tmp_path):
    stamps = [0.1, 1.0 / 3.0, 123456.789012345]
    records = rows_to_table((0, 0, t) for t in stamps)
    path = tmp_path / "events.csv"
    save_events_csv(path, records)
    loaded = load_events_csv(path)
    assert [r.timestamp for r in loaded] == stamps


def test_csv_header_required(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("0,1,2.5\n")
    with pytest.raises(InvalidInputError):
        load_events_csv(path)


def test_csv_malformed_rows(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("node,event_type,timestamp\n0,1\n")
    with pytest.raises(InvalidInputError):
        load_events_csv(path)
    path.write_text("node,event_type,timestamp\n0,one,2.0\n")
    with pytest.raises(InvalidInputError):
        load_events_csv(path)


def test_csv_empty_file_is_empty_dataset(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("")
    assert len(load_events_csv(path)) == 0
    path.write_text("node,event_type,timestamp\n")
    assert len(load_events_csv(path)) == 0


def test_nan_timestamp_is_outside_the_window():
    with pytest.raises(InvalidInputError):
        discretize(rows_to_table([(0, 0, float("nan"))]), 1.0, 5.0)


def test_grid_beyond_int64_cell_ids_rejected():
    # cell ids are (type * bins + bin) * nodes + node in int64
    for horizon in (1e300, float("inf")):
        with pytest.raises(InvalidInputError):
            discretize(rows_to_table([]), 1.0, horizon)
    with pytest.raises(InvalidInputError):
        discretize(rows_to_table([]), 1.0, 1e18, node_count=3, type_count=2)
    ds = discretize(rows_to_table([(2, 1, 5e16)]), 1.0, 1e17, node_count=3, type_count=2)
    assert (ds.nodes[0], ds.types[0], ds.bins[0]) == (2, 1, 5 * 10**16)


def test_csv_is_written_with_crlf_and_repr(tmp_path):
    path = tmp_path / "events.csv"
    save_events_csv(path, rows_to_table([(0, 1, 0.1), (3, 0, 2.0)]))
    assert path.read_bytes() == b"node,event_type,timestamp\r\n0,1,0.1\r\n3,0,2.0\r\n"


def test_csv_accepts_crlf_quotes_and_blank_lines(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(
        b'\r\n"node", event_type ,timestamp\r\n"1","0","2.5"\r\n  \r\n0, 1,0.5\r\n\t\n'
    )
    table = load_events_csv(path)
    assert table.node.tolist() == [1, 0]
    assert table.event_type.tolist() == [0, 1]
    assert table.timestamp.tolist() == [2.5, 0.5]


@pytest.mark.parametrize(
    "row",
    [
        "1_0,0,1.0",  # int() would read 10
        "99999999999999999999,0,1.0",  # beyond int64
        "1.0,0,1.0",
        "0,0,nan",
        "0,0,inf",
        "0,0,-inf",
        "0,0,1e400",  # overflows to inf
    ],
)
def test_csv_rejects_bad_ids_and_non_finite_timestamps(tmp_path, row):
    path = tmp_path / "events.csv"
    path.write_text(f"node,event_type,timestamp\n0,0,0.5\n{row}\n")
    with pytest.raises(InvalidInputError):
        load_events_csv(path)
