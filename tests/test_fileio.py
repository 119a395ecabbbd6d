"""Graph JSON documents, manifests, deterministic serialization."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from hawkesnet.cli import main
from hawkesnet.errors import InvalidInputError
from hawkesnet.fileio import (
    FORMAT_VERSION,
    GraphDocument,
    load_graph_json,
    read_json,
    save_graph_json,
    sha256_file,
    write_json,
    write_manifest,
)
from hawkesnet.graph import CausalGraph, ThpParams


def _sample():
    graph = CausalGraph(3, [(0, 1), (2, 2)])
    params = ThpParams(
        mu=np.array([0.1, 0.2, 0.3]),
        alpha={
            (0, 1): np.array([0.01, 0.02]),
            (2, 2): np.array([0.03, 0.04]),
        },
        max_hops=1,
    )
    return graph, params


# what the writer wrote when it first copied the payload into Python values
NUMPY_PAYLOAD_JSON = """\
{
  "array": [
    [
      1.0,
      2.5e-300
    ],
    [
      Infinity,
      3.0
    ]
  ],
  "bool": true,
  "float": 0.1,
  "int": 3,
  "nested": [
    0.3333333333333333,
    [
      7,
      [
        false,
        "x"
      ]
    ]
  ]
}
"""


def test_write_json_handles_numpy_types(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {
        "int": np.int64(3),
        "float": np.float64(0.1),
        "bool": np.bool_(True),
        "array": np.array([[1.0, 2.5e-300], [np.inf, 3.0]]),
        "nested": (np.float64(1 / 3), (np.int32(7), [np.bool_(False), "x"])),
    })
    assert path.read_bytes() == NUMPY_PAYLOAD_JSON.encode("utf-8")


def test_write_json_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, {"z": 1, "a": [np.float64(2.5)]})
    write_json(p2, {"a": [2.5], "z": 1})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    assert read_json(p1) == {"a": [2.5], "z": 1}


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInputError):
        read_json(path)


@pytest.mark.parametrize("size", [0, 12, (1 << 20) + 1])  # the last crosses a 1 MiB read chunk
def test_sha256_file_matches_hashlib(tmp_path, size):
    blob = (b"hello events" * (size // 12 + 1))[:size]
    path = tmp_path / "blob.bin"
    path.write_bytes(blob)
    assert sha256_file(path) == hashlib.sha256(blob).hexdigest()


def test_graph_json_round_trip(tmp_path):
    graph, params = _sample()
    path = tmp_path / "graph.json"
    save_graph_json(
        path,
        graph,
        params,
        delta=0.5,
        bin_width=2.0,
        node_count=7,
        score=-123.25,
        seed=3,
        config={"k": 1},
    )
    doc = load_graph_json(path)
    assert isinstance(doc, GraphDocument)
    assert doc.graph.edges == graph.edges
    assert doc.params is not None
    np.testing.assert_array_equal(doc.params.mu, params.mu)
    for edge in graph.edges:
        np.testing.assert_array_equal(doc.params.alpha[edge], params.alpha[edge])
    assert doc.params.max_hops == 1
    assert doc.meta["delta"] == 0.5
    assert doc.meta["dt"] == 2.0
    assert doc.meta["node_count"] == 7
    assert doc.meta["score"] == -123.25
    assert doc.meta["seed"] == 3
    assert doc.meta["config"] == {"k": 1}


def test_graph_json_schema_fields(tmp_path):
    graph, params = _sample()
    path = tmp_path / "graph.json"
    save_graph_json(path, graph, params, delta=1.0, bin_width=1.0, node_count=4)
    data = json.loads(path.read_text())
    assert data["format_version"] == FORMAT_VERSION
    assert set(data) == {
        "format_version", "type_count", "k", "delta", "dt", "node_count",
        "score", "seed", "config", "edges", "mu",
    }
    assert data["edges"] == [
        {"from": 0, "to": 1, "alpha": [0.01, 0.02]},
        {"from": 2, "to": 2, "alpha": [0.03, 0.04]},
    ]
    assert data["mu"] == [0.1, 0.2, 0.3]
    assert data["k"] == 1


def test_graph_json_without_params(tmp_path):
    graph, _ = _sample()
    path = tmp_path / "bare.json"
    save_graph_json(path, graph, None)
    doc = load_graph_json(path)
    assert doc.params is None
    assert doc.graph.edges == graph.edges


def test_graph_json_infers_hops_from_alpha_lengths(tmp_path):
    graph, params = _sample()
    path = tmp_path / "graph.json"
    save_graph_json(path, graph, params)
    data = json.loads(path.read_text())
    del data["k"]
    path.write_text(json.dumps(data))
    doc = load_graph_json(path)
    assert doc.params is not None
    assert doc.params.max_hops == 1


def test_graph_json_validation(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"format_version": 99, "type_count": 2, "edges": []}))
    with pytest.raises(InvalidInputError):
        load_graph_json(path)
    path.write_text(json.dumps({"format_version": 1, "type_count": 2}))
    with pytest.raises(InvalidInputError):
        load_graph_json(path)
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "type_count": 2,
                "edges": [{"from": 0}],
            }
        )
    )
    with pytest.raises(InvalidInputError):
        load_graph_json(path)
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "type_count": 2,
                "mu": [0.1, 0.1],
                "edges": [
                    {"from": 0, "to": 1, "alpha": [0.1]},
                    {"from": 1, "to": 0, "alpha": [0.1, 0.2]},
                ],
            }
        )
    )
    with pytest.raises(InvalidInputError):
        load_graph_json(path)
    # without mu the document holds no params, but its alpha must still be rates
    path.write_text(json.dumps({"format_version": 1, "type_count": 2,
                                "edges": [{"from": 0, "to": 1, "alpha": "12"}]}))
    with pytest.raises(InvalidInputError):
        load_graph_json(path)
    # integer fields take JSON integers: no strings, booleans or fractions
    for bad in (
        {"type_count": "3", "edges": []},
        {"type_count": True, "edges": []},
        {"type_count": 2.5, "edges": []},
        {"type_count": 2, "edges": [{"from": "0", "to": 1}]},
        {"type_count": 2, "edges": [{"from": 0.9, "to": 1}]},
        {"type_count": 2, "edges": [{"from": False, "to": True}]},
        {"type_count": 2, "k": "0", "mu": [0.1, 0.1], "edges": [{"from": 0, "to": 1, "alpha": [0.1]}]},
        {"type_count": 2, "k": 0.5, "mu": [0.1, 0.1], "edges": [{"from": 0, "to": 1, "alpha": [0.1]}]},
        {"type_count": 2, "mu": [True, 0.1], "edges": []},
    ):
        path.write_text(json.dumps({"format_version": 1, **bad}))
        with pytest.raises(InvalidInputError):
            load_graph_json(path)
    path.write_text(json.dumps({"format_version": 1, "type_count": 2.0, "edges": [{"from": 1.0, "to": 0}]}))
    doc = load_graph_json(path)
    assert doc.graph.type_count == 2 and doc.graph.edges == frozenset({(1, 0)})


# none is a list of two finite, nonnegative numbers; "12" must not read as the rates 1 and 2
MALFORMED_RATES = [
    0.5, "12", "0.1", {"a": 1}, [[0.1, 0.2]], [0.1], [0.1, 0.2, 0.3], ["0.1", "0.2"],
    [-0.1, 0.2], [float("nan"), 0.2], [float("inf"), 0.2],
]


@pytest.mark.parametrize("with_k", [True, False])
@pytest.mark.parametrize("field", ["mu", "alpha"])
@pytest.mark.parametrize("value", MALFORMED_RATES, ids=repr)
def test_evaluate_exits_two_on_malformed_rates(tmp_path, capsys, value, field, with_k):
    # without k, the second edge's alpha fixes the hop count
    good = {"format_version": 1, "type_count": 2, "k": 1, "mu": [0.1, 0.2],
            "edges": [{"from": 0, "to": 1, "alpha": [0.1, 0.2]},
                      {"from": 1, "to": 0, "alpha": [0.3, 0.4]}]}
    bad = json.loads(json.dumps(good))
    if field == "mu":
        bad["mu"] = value
    else:
        bad["edges"][0]["alpha"] = value
    if not with_k:
        del bad["k"]
    (tmp_path / "good.json").write_text(json.dumps(good))
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    argv = ["evaluate", "--predicted", str(tmp_path / "bad.json"), "--truth", str(tmp_path / "good.json")]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_manifest_digests(tmp_path):
    (tmp_path / "x.txt").write_text("alpha\n")
    (tmp_path / "y.txt").write_text("beta\n")
    write_manifest(tmp_path, "simulate", 7, {"dt": 1.0}, ["y.txt", "x.txt"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["config"] == {"dt": 1.0}
    assert list(manifest["files"]) == ["x.txt", "y.txt"]  # sorted
    for name in ("x.txt", "y.txt"):
        assert manifest["files"][name] == f"sha256:{sha256_file(tmp_path / name)}"
