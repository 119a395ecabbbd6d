"""Fuzzing the events CSV through ``hawkesnet learn``: exit 0 or 2, never a traceback."""

from __future__ import annotations

import tempfile

from hypothesis import given
from hypothesis import strategies as st

from hawkesnet.cli import main

HEADERS = [
    "node,event_type,timestamp",
    ' "node", event_type ,timestamp',
    "timestamp,event_type,node",
    "node,event_type",
    "node,event_type,timestamp,extra",
    "",
]
HOSTILE = [
    "nan", "inf", "-inf", "-1", "1.0", "1_0", "12345678901234567890",
    "99999999999999999999", "", " ", '"', '"1"', '"1,2"', "0x1", "one", "1e400",
]
NON_UTF8 = [b"\xff", b"\xc3\x28", b"\x80abc", b"\xed\xa0\x80"]

valid_rows = st.builds(
    lambda n, v, t: f"{n},{v},{t!r}",
    st.integers(0, 3),
    st.integers(0, 2),
    st.floats(0.0, 50.0),
)
fields = st.one_of(st.sampled_from(HOSTILE), st.integers(0, 3).map(str))
hostile_rows = st.lists(fields, min_size=1, max_size=5).map(",".join)
lines = st.one_of(valid_rows, valid_rows, hostile_rows, st.sampled_from(["", "   ", "\t"]))


@st.composite
def event_files(draw) -> bytes:
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [draw(st.sampled_from(HEADERS)), *draw(st.lists(lines, max_size=12))]
    data = newline.join(rows).encode("utf-8") + newline.encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NON_UTF8)) + data[at:]
    return data


@given(event_files())
def test_learn_on_fuzzed_events_exits_zero_or_two(data):
    # --nodes and --types pinned: dimensions inferred from a huge valid id
    # would size arrays by that id
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/events.csv"
        with open(path, "wb") as fh:
            fh.write(data)
        code = main(
            [
                "learn", "--events", path, "--out", f"{tmp}/out",
                "--no-topology", "--nodes", "4", "--types", "3",
            ]
        )
    assert code in (0, 2)
