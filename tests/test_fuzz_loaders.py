"""Fuzzing the edge-list, graph-JSON and config loaders through the CLI.

Any input must end in exit 0, 2 (invalid input) or 4 (I/O), never in a
traceback. Sizes (node ids and count hints, hop orders, type counts,
horizons) are drawn small or past what numpy can index (2**32 nodes, 2**64
otherwise), never in between: a valid mid-sized value asks for real work,
not a parse error. EM iteration caps stay small for the same reason.
"""

from __future__ import annotations

import copy
import json
import tempfile

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hawkesnet.cli import main

NON_UTF8 = [b"\xff", b"\xc3\x28", b"\x80abc", b"\xed\xa0\x80"]
EVENTS = "node,event_type,timestamp\n0,0,0.5\n1,1,2.5\n2,0,3.5\n0,1,7.5\n1,0,9.5\n"
TOPOLOGY = "# nodes: 3\n0,1\n1,2\n"
GRAPH = {
    "format_version": 1, "type_count": 2, "k": 1, "delta": 1.0, "dt": 1.0,
    "node_count": 3, "score": None, "seed": 0, "config": {},
    "edges": [{"from": 0, "to": 1, "alpha": [0.1, 0.2]}], "mu": [0.1, 0.2],
}

HOSTILE_TEXT = [
    "-1", "", " ", "1.5", "0x1", "one", "1_0", "1e3", '"1"', "nan", "inf",
    "4294967296", "99999999999999999999", "9" * 5000, "٣", "0,1", "#",
]
ids = st.one_of(st.integers(0, 4).map(str), st.sampled_from(HOSTILE_TEXT))
HOSTILE_JSON = [
    None, True, False, -1, 0, 1, 2.5, float("nan"), float("inf"), "", "x", "1",
    ".", [], [1], [1, 2], [[0.1, 0.2]], {}, {"a": 1}, [None, "x"],
]
# a fresh copy per draw: a drawn list or dict is mutated in place below, and
# a shared one could end up holding itself
small_values = st.one_of(st.sampled_from(HOSTILE_JSON).map(copy.deepcopy), st.integers(-2, 4))
json_values = st.one_of(small_values, st.just(2**64))


def _mangle(draw, data: bytes) -> bytes:
    """Maybe cut the bytes short or splice in an undecodable sequence."""
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NON_UTF8)) + data[at:]
    return data


@st.composite
def edge_lists(draw) -> bytes:
    line = st.one_of(
        st.builds(lambda a, b: f"{a},{b}", ids, ids),
        ids.map(lambda n: f"# nodes: {n}"),
        st.lists(ids, min_size=1, max_size=4).map(",".join),
        st.sampled_from(["", "   ", "# comment", "#nodes=2", "\t", "\x0c"]),
    )
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(draw(st.lists(line, max_size=8))) + newline
    return _mangle(draw, text.encode("utf-8"))


@st.composite
def json_documents(draw, base: dict) -> bytes:
    doc = json.loads(json.dumps(base))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=4)):
        if draw(st.booleans()):
            doc[key] = draw(json_values)
        else:
            doc.pop(key, None)
    root = draw(st.sampled_from(["doc", "doc", "doc", "list", "nested", "scalar"]))
    if root == "list":
        doc = [doc]
    elif root == "nested":  # past json's recursion limit, or not
        depth = draw(st.sampled_from([50, 100_000]))
        return _mangle(draw, ("[" * depth + "]" * depth).encode())
    elif root == "scalar":
        doc = draw(json_values)
    return _mangle(draw, json.dumps(doc).encode("utf-8"))


@st.composite
def graph_docs(draw) -> bytes:
    base = json.loads(json.dumps(GRAPH))
    edges = draw(st.lists(st.one_of(
        st.just({"from": 0, "to": 1, "alpha": [0.1, 0.2]}),
        st.fixed_dictionaries({"from": json_values, "to": json_values}),
        st.fixed_dictionaries({"from": st.integers(0, 2), "to": st.integers(0, 2),
                               "alpha": json_values}),
        json_values,
    ), max_size=3))
    if draw(st.booleans()):
        base["edges"] = edges
    return draw(json_documents(base))


LEARN_CONFIG = {
    "seed": 0,
    "learn": {
        "k": 1, "delta": 0.5, "dt": 1.0, "allow_cycles": True, "k_sweep": False,
        "horizon_end": 12.0, "nodes": 3, "types": 2, "no_topology": False,
        "em": {"max_iterations": 20, "rel_tolerance": 1e-6},
    },
    "evaluate": {},
}


@st.composite
def configs(draw) -> bytes:
    base = json.loads(json.dumps(LEARN_CONFIG))
    section = base["learn"]
    for key in draw(st.lists(st.sampled_from(sorted(section)), max_size=4)):
        section[key] = draw(json_values)
    if isinstance(section.get("em"), dict):
        for key in draw(st.lists(st.sampled_from(["max_iterations", "rel_tolerance", "bogus"]),
                                 max_size=2)):
            section["em"][key] = draw(small_values)
    for key in draw(st.lists(st.sampled_from(["events", "topology"]), max_size=2)):
        section[key] = draw(json_values)
    for key in draw(st.lists(st.sampled_from(["predicted", "truth"]), max_size=2)):
        base["evaluate"][key] = draw(json_values)
    return draw(json_documents(base))


SIMULATE_CONFIG = {
    "simulate": {
        "node_count": 3, "type_count": 2, "avg_topology_degree": 1.0,
        "causal_avg_indegree": 1.0, "target_event_count": 20, "max_bins": 500,
        "mu_range": [0.01, 0.02], "alpha_range": [0.03, 0.05],
        "kernel": {"type": "exponential", "delta": 0.5}, "max_hops": 1,
        "bin_width": 1.0, "explosion_guard": 1e6, "seed": 0,
    },
}


@st.composite
def simulate_configs(draw) -> bytes:
    base = json.loads(json.dumps(SIMULATE_CONFIG))
    section = base["simulate"]
    for key in draw(st.lists(st.sampled_from(sorted(section)), max_size=4)):
        section[key] = draw(small_values)
    if isinstance(section.get("kernel"), dict) and draw(st.booleans()):
        kernel = draw(st.sampled_from(["exponential", "gaussian", "uniform", "x", 1]))
        section["kernel"] = {"type": kernel, draw(st.sampled_from(
            ["delta", "decay", "mean", "std", "start", "scale"])): draw(small_values)}
    return draw(json_documents(base))


def _run(tmp: str, files: dict, argv: list) -> int:
    for name, data in files.items():
        with open(f"{tmp}/{name}", "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
    return main([arg.format(tmp=tmp) for arg in argv])


@given(edge_lists())
@example(b"# nodes: " + b"9" * 5000 + b"\n0,1\n")  # past Python's integer digit limit
@example(b"0,1\n0," + b"9" * 300 + b"\n")  # a node count too large for a float
def test_learn_on_fuzzed_edge_lists_exits_zero_or_two(data):
    with tempfile.TemporaryDirectory() as tmp:
        code = _run(tmp, {"events.csv": EVENTS, "topology.txt": data}, [
            "learn", "--events", "{tmp}/events.csv", "--topology", "{tmp}/topology.txt",
            "--k", "1", "--out", "{tmp}/out",
        ])
    assert code in (0, 2)


@pytest.mark.parametrize("side", ["predicted", "truth"])
@given(data=graph_docs())
def test_evaluate_on_fuzzed_graph_json_exits_zero_or_two(side, data):
    files = {"predicted.json": json.dumps(GRAPH), "truth.json": json.dumps(GRAPH)}
    files[f"{side}.json"] = data
    with tempfile.TemporaryDirectory() as tmp:
        code = _run(tmp, files, [
            "evaluate", "--predicted", "{tmp}/predicted.json",
            "--truth", "{tmp}/truth.json", "--out", "{tmp}/out",
        ])
    assert code in (0, 2)


@given(configs(), st.booleans())
def test_learn_and_evaluate_on_fuzzed_configs_exit_zero_two_or_four(data, flags):
    # without the path flags, the config's own (possibly hostile) paths are used
    files = {"events.csv": EVENTS, "topology.txt": TOPOLOGY, "config.json": data,
             "g.json": json.dumps(GRAPH)}
    learn_paths = ["--events", "{tmp}/events.csv", "--topology", "{tmp}/topology.txt"]
    graph_paths = ["--predicted", "{tmp}/g.json", "--truth", "{tmp}/g.json"]
    with tempfile.TemporaryDirectory() as tmp:
        learn = _run(tmp, files, ["learn", "--config", "{tmp}/config.json", "--out",
                                  "{tmp}/out", *(learn_paths if flags else [])])
        evaluate = _run(tmp, files, ["evaluate", "--config", "{tmp}/config.json",
                                     *(graph_paths if flags else [])])
    assert learn in (0, 2, 4)
    assert evaluate in (0, 2, 4)


@given(simulate_configs())
def test_simulate_on_fuzzed_configs_exits_zero_two_three_or_four(data):
    # exit 3: a drawn alpha range can make the process explode
    with tempfile.TemporaryDirectory() as tmp:
        code = _run(tmp, {"config.json": data},
                    ["simulate", "--config", "{tmp}/config.json", "--out", "{tmp}/out"])
    assert code in (0, 2, 3, 4)
