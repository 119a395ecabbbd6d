"""On-disk formats: graph JSON documents and run manifests.

The same JSON schema serves the simulator's ground truth and the learner's
output: ``edges`` as ``[{"from": c, "to": v, "alpha": [k0..kK]}, ...]``
plus ``mu``, ``score``, ``k`` and ``delta``. Documents embed the seed and a
semantic config echo but never filesystem paths, so two identical runs into
different directories produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from .errors import InvalidInputError
from .graph import CausalGraph, ThpParams, as_rates
from .values import as_number

__all__ = [
    "GraphDocument",
    "write_json",
    "sha256_file",
    "save_graph_json",
    "load_graph_json",
    "write_manifest",
]

FORMAT_VERSION = 1


def write_json(path: str, payload: dict) -> None:
    """Deterministic JSON dump: sorted keys, two-space indent, newline EOF.

    A numpy scalar or array is written as its ``tolist()`` value, so this
    module never imports numpy.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda value: value.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path: str) -> dict:
    """The JSON object in ``path``; anything else is an :class:`InvalidInputError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # ValueError also covers integers past the digit limit, RecursionError deep nesting
        except (ValueError, RecursionError) as exc:
            raise InvalidInputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path}: the JSON root must be an object")
    return data


def sha256_file(path: str) -> str:
    import hashlib  # loads OpenSSL: only commands that hash a file pay for it

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class GraphDocument(NamedTuple):
    """A parsed graph JSON file."""

    graph: CausalGraph
    params: ThpParams | None
    meta: dict


def save_graph_json(
    path: str,
    graph: CausalGraph,
    params: ThpParams | None,
    *,
    delta: float | None = None,
    bin_width: float | None = None,
    node_count: int | None = None,
    score: float | None = None,
    seed: int | None = None,
    config: dict | None = None,
) -> None:
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "type_count": graph.type_count,
        "k": params.max_hops if params is not None else None,
        "delta": delta,
        "dt": bin_width,
        "node_count": node_count,
        "score": score,
        "seed": seed,
        "config": config or {},
        "edges": [],
        "mu": params.mu if params is not None else None,
    }
    for c, v in sorted(graph.edges):
        entry: dict = {"from": c, "to": v}
        if params is not None:
            entry["alpha"] = params.alpha[(c, v)]
        payload["edges"].append(entry)
    write_json(path, payload)


def load_graph_json(path: str) -> GraphDocument:
    data = read_json(path)
    try:
        return _graph_document(path, data)
    except InvalidInputError:
        raise
    except (TypeError, ValueError, OverflowError, IndexError) as exc:  # a field of the wrong shape
        raise InvalidInputError(f"{path}: malformed graph document ({exc!r})") from exc


def _graph_document(path: str, data: dict) -> GraphDocument:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise InvalidInputError(
            f"{path}: unsupported format_version {version!r}"
        )
    if "type_count" not in data or "edges" not in data:
        raise InvalidInputError(f"{path}: missing type_count or edges")
    type_count = as_number(data["type_count"], f"{path}: type_count", integer=True)
    edges = []
    alpha = {}
    have_alpha = True
    for entry in data["edges"]:
        try:
            edge = tuple(as_number(entry[end], end, integer=True) for end in ("from", "to"))
        except (KeyError, TypeError, InvalidInputError) as exc:
            raise InvalidInputError(f"{path}: malformed edge entry {entry!r} ({exc})") from exc
        edges.append(edge)
        if "alpha" in entry:  # checked even where the document holds no params
            alpha[edge] = as_rates(entry["alpha"], f"{path}: alpha of edge {edge}")
        else:
            have_alpha = False
    graph = CausalGraph(type_count, frozenset(edges))
    params = None
    if data.get("mu") is not None and have_alpha:
        max_hops = data.get("k")
        if max_hops is None:
            lengths = {len(a) for a in alpha.values()}
            if len(lengths) > 1:
                raise InvalidInputError(f"{path}: inconsistent alpha lengths")
            max_hops = (lengths.pop() - 1) if lengths else 0
        else:
            max_hops = as_number(max_hops, f"{path}: k", integer=True)
        params = ThpParams(mu=data["mu"], alpha=alpha, max_hops=max_hops)
        params.validate_for(graph)
    meta = {
        k: data.get(k)
        for k in ("k", "delta", "dt", "node_count", "score", "seed", "config")
    }
    return GraphDocument(graph=graph, params=params, meta=meta)


def write_manifest(
    out_dir: str,
    command: str,
    seed: int | None,
    config: dict,
    file_names,
) -> None:
    """Manifest with the config echo and a digest of each produced file."""
    files = {
        name: f"sha256:{sha256_file(os.path.join(out_dir, name))}"
        for name in sorted(file_names)
    }
    write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "format_version": FORMAT_VERSION,
            "command": command,
            "seed": seed,
            "config": config,
            "files": files,
        },
    )
