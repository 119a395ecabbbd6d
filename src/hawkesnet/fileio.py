"""On-disk formats: graph JSON documents and run manifests.

The same JSON schema serves the simulator's ground truth and the learner's
output: ``edges`` as ``[{"from": c, "to": v, "alpha": [k0..kK]}, ...]``
plus ``mu``, ``score``, ``k`` and ``delta``. Documents embed the seed and a
semantic config echo but never filesystem paths, so two identical runs into
different directories produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .likelihood import CausalGraph, ThpParams

__all__ = [
    "GraphDocument",
    "jsonable",
    "write_json",
    "sha256_file",
    "save_graph_json",
    "load_graph_json",
    "write_manifest",
]

FORMAT_VERSION = 1


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples for json.dump."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: str, payload: dict) -> None:
    """Deterministic JSON dump: sorted keys, two-space indent, newline EOF."""
    text = json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class GraphDocument:
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
    type_count = int(data["type_count"])
    edges = []
    alpha = {}
    have_alpha = True
    for entry in data["edges"]:
        try:
            edge = (int(entry["from"]), int(entry["to"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"{path}: malformed edge entry {entry!r}") from exc
        edges.append(edge)
        if "alpha" in entry:
            alpha[edge] = np.asarray(entry["alpha"], dtype=float)
        else:
            have_alpha = False
    graph = CausalGraph(type_count, frozenset(edges))
    params = None
    if data.get("mu") is not None and have_alpha:
        max_hops = data.get("k")
        if max_hops is None:
            lengths = {a.shape[0] for a in alpha.values()}
            if len(lengths) > 1:
                raise InvalidInputError(f"{path}: inconsistent alpha lengths")
            max_hops = (lengths.pop() - 1) if lengths else 0
        params = ThpParams(
            mu=np.asarray(data["mu"], dtype=float),
            alpha=alpha,
            max_hops=int(max_hops),
        )
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
