"""Traced run: per-layer time and counts, measured from outside the package.

The workload's CLI sequence runs in-process through ``hawkesnet.cli.main``,
once plainly and once with wrappers installed on the names the program
looks up (``hawkesnet.cli.build_features``, ``hawkesnet.search.fit_type``,
...). Each wrapped call records a span (name, start, end, parent span, run
id) in memory; a layer's self time is its spans' duration minus the time
their child spans cover. ``trace.overhead_s`` is the traced minus the plain
wall time of ``learn``. Workloads without a simulate stage run one short
simulate call first, so that every layer is timed on every workload.

``topology``, ``kernels`` and ``metrics`` are not wrapped (each took at
most 1 ms per run); ``likelihood`` is not wrapped because ``learn`` never
calls its scoring functions, and the ``CausalGraph.parents`` calls it does
make count toward ``search.self_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
from collections import Counter

# per-layer metrics of a traced run: (name, unit)
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("simulate.generate_s", "s"),
    ("simulate.bins", "count"),
    ("simulate.occupied_bins", "count"),
    ("simulate.bins_per_s", "bins/s"),
    ("events.load_csv_s", "s"),
    ("events.rows", "count"),
    ("events.load_rows_per_s", "rows/s"),
    ("events.discretize_s", "s"),
    ("features.build_s", "s"),
    ("features.bins", "count"),
    ("features.cells", "count"),
    ("features.occupied_cell_ratio", "ratio"),
    ("search.hill_climb_s", "s"),
    ("search.self_s", "s"),
    ("search.rounds", "count"),
    ("search.candidates", "count"),
    ("search.fit_ratio", "ratio"),
    ("em.fit_s", "s"),
    ("em.fits", "count"),
    ("em.iterations", "count"),
    ("em.ms_per_fit", "ms"),
    ("em.nonconverged", "count"),
    ("fileio.write_s", "s"),
    ("trace.overhead_s", "s"),
)

# span name -> layer metric holding the spans' total self time
SELF_TIME = {
    "cli.main": "cli.self_s",
    "simulate.generate": "simulate.generate_s",
    "events.load_csv": "events.load_csv_s",
    "events.discretize": "events.discretize_s",
    "features.build": "features.build_s",
    "search.hill_climb": "search.self_s",
    "em.fit": "em.fit_s",
    "fileio.write": "fileio.write_s",
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span named ``name``; ``count(counts, result)`` after."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": self.run_id,
                }
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def counter(self, key: str, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted


def _count_simulate(counts, data):
    counts["simulate.bins"] += data.horizon_bins
    counts["simulate.occupied_bins"] += len({r.timestamp for r in data.records})


def _count_rows(counts, records):
    counts["events.rows"] += len(records)


def _count_features(counts, cache):
    counts["features.bins"] += cache.bin_count
    counts["features.cells"] += cache.cell_count
    counts["features.grid"] += cache.bin_count * cache.node_count


def _count_search(counts, result):
    counts["search.rounds"] += result.rounds


def _count_fit(counts, fit):
    counts["em.fits"] += 1
    counts["em.iterations"] += fit.iterations
    counts["em.nonconverged"] += not fit.converged


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the layer entry points the CLI and the search look up."""
    import hawkesnet.cli as cli
    import hawkesnet.search as search

    patches = [
        (cli, "generate_benchmark", tracer.wrap("simulate.generate", cli.generate_benchmark, _count_simulate)),
        (cli, "load_events_csv", tracer.wrap("events.load_csv", cli.load_events_csv, _count_rows)),
        (cli, "discretize", tracer.wrap("events.discretize", cli.discretize)),
        (cli, "build_features", tracer.wrap("features.build", cli.build_features, _count_features)),
        (cli, "hill_climb", tracer.wrap("search.hill_climb", cli.hill_climb, _count_search)),
        (search, "score_candidate", tracer.counter("search.candidates", search.score_candidate)),
        (search, "fit_type", tracer.wrap("em.fit", search.fit_type, _count_fit)),
    ]
    for name in ("save_events_csv", "save_edge_list", "save_graph_json", "write_json", "write_manifest"):
        patches.append((cli, name, tracer.wrap("fileio.write", getattr(cli, name))))
    originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


def self_times(spans: list) -> Counter:
    """Total self time per span name."""
    covered = Counter()
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals = Counter()
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"] - covered[span["id"]]
    return totals


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, without the import and overhead."""
    own = self_times(tracer.spans)
    c = tracer.counts
    metrics = {metric: own[span] for span, metric in SELF_TIME.items()}
    metrics["search.hill_climb_s"] = sum(
        s["end"] - s["start"] for s in tracer.spans if s["name"] == "search.hill_climb"
    )
    for key in ("simulate.bins", "simulate.occupied_bins", "events.rows", "features.bins",
                "features.cells", "search.rounds", "search.candidates", "em.fits",
                "em.iterations", "em.nonconverged"):
        metrics[key] = c[key]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics["simulate.bins_per_s"] = ratio(c["simulate.bins"], metrics["simulate.generate_s"])
    metrics["events.load_rows_per_s"] = ratio(c["events.rows"], metrics["events.load_csv_s"])
    metrics["features.occupied_cell_ratio"] = ratio(c["features.cells"], c["features.grid"])
    metrics["search.fit_ratio"] = ratio(c["em.fits"], c["search.candidates"])
    metrics["em.ms_per_fit"] = ratio(1000.0 * metrics["em.fit_s"], c["em.fits"])
    return metrics


def _pass(run, out: str, checks, tracer: Tracer | None) -> float:
    """Run the sequence in-process into ``out``; returns the learn wall time."""
    import hawkesnet.cli as cli

    learn_s = 0.0
    for stage, argv in run.workload.stages(run.work, run.seed, out=out, simulate=True):
        entry = tracer.wrap("cli.main", cli.main) if tracer else cli.main
        sink = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer:
                with installed(tracer):
                    code = entry(argv)
            else:
                code = entry(argv)
        if stage == "learn":
            learn_s = time.perf_counter() - started
        if not checks.call(code == 0, f"{run.workload.name}: in-process {stage} returned {code}"):
            break
    return learn_s


def traced_run(run, seconds: float, checks) -> dict:
    """Alternate plain and traced passes for about ``seconds``; medians per layer.

    As in the untraced run, a new pair of passes starts only if the last pair
    would still fit; one pair always runs.
    """
    import hawkesnet.cli  # noqa: F401  imported once, outside the timed passes

    plain_out = os.path.join(run.work, "plain")
    traced_out = os.path.join(run.work, "traced")
    passes, overheads, spans = [], [], []
    reference = None
    started = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - started + last <= seconds:
        pair_start = time.perf_counter()
        tracer = Tracer(run_id=len(passes))
        if len(passes) % 2 == 0:
            plain = _pass(run, plain_out, checks, None)
            traced = _pass(run, traced_out, checks, tracer)
        else:
            traced = _pass(run, traced_out, checks, tracer)
            plain = _pass(run, plain_out, checks, None)
        plain_files = run.workload.outputs(plain_out)
        traced_files = run.workload.outputs(traced_out)
        checks.check(
            plain_files == traced_files,
            f"{run.workload.name}: traced outputs differ from untraced outputs",
        )
        if reference is None:
            reference = plain_files
        else:
            checks.check(plain_files == reference, f"{run.workload.name}: outputs changed between passes")
        passes.append(layer_metrics(tracer))
        overheads.append(traced - plain)
        spans.extend(tracer.spans)
        last = time.perf_counter() - pair_start

    result = {}
    for name, unit in PER_LAYER:
        if name in ("cli.import_s", "trace.overhead_s"):
            continue
        values = [p[name] for p in passes]
        if unit == "count":
            checks.check(
                len(set(values)) == 1,
                f"{run.workload.name}: count {name} varied between passes: {values}",
            )
            result[name] = values[0]
        else:
            result[name] = statistics.median(values)
    result["cli.import_s"] = statistics.median(run.import_s)
    result["trace.overhead_s"] = statistics.median(overheads)
    result["spans"] = spans
    return result


def write_spans(spans: list, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
