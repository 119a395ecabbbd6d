"""The benchmark's traced run patches package names by attribute lookup.

``perfbench/tracing.py`` wraps layer entry points of ``hawkesnet.cli`` and
``hawkesnet.search`` by name, so a rename would break only a traced
benchmark run; this keeps the names it patches present and restored.
"""

from __future__ import annotations

import importlib
import os

import hawkesnet.cli as cli
import hawkesnet.search as search

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
PATCHED = {
    cli: ("generate_benchmark", "load_events_csv", "discretize", "build_features", "hill_climb",
          "save_events_csv", "save_edge_list", "save_graph_json", "write_json", "write_manifest"),
    search: ("fit_type", "score_candidate"),
}


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    before = {module: dict(vars(module)) for module in PATCHED}
    with tracing.installed(tracing.Tracer(0)):
        changed = {
            module: {name for name, value in vars(module).items() if before[module].get(name) is not value}
            for module in PATCHED
        }
    assert changed == {module: set(names) for module, names in PATCHED.items()}
    for module in PATCHED:
        assert all(getattr(module, name) is before[module][name] for name in PATCHED[module])
        assert set(vars(module)) == set(before[module])
