"""End-to-end command line coverage: simulate -> learn -> evaluate -> benchmark."""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hawkesnet.cli as cli
from hawkesnet.cli import main
from hawkesnet.em import EmConfig
from hawkesnet.errors import UnderGenerationWarning
from hawkesnet.events import load_events_csv
from hawkesnet.features import build_features
from hawkesnet.fileio import load_graph_json, sha256_file
from hawkesnet.kernels import ExponentialKernel
from hawkesnet.search import hill_climb
from hawkesnet.simulate import SimConfig, generate_benchmark
from hawkesnet.topology import TopologyGraph, build_topology, load_edge_list, save_edge_list

from .oracles import has_cycle

SIM_SECTION = {
    "node_count": 4,
    "type_count": 2,
    "target_event_count": 400,
    "mu_range": [0.005, 0.01],
    "alpha_range": [0.03, 0.05],
    "avg_topology_degree": 1.5,
    "causal_avg_indegree": 1.0,
    "kernel": {"type": "exponential", "delta": 0.2},
    "max_hops": 1,
    "bin_width": 1.0,
    "seed": 7,
}


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    config = _write_config(root / "config.json", {"simulate": SIM_SECTION})
    out = root / "data"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def learn_dir(tmp_path_factory, sim_dir):
    root = tmp_path_factory.mktemp("learn")
    config = _write_config(
        root / "config.json",
        {"learn": {"em": {"max_iterations": 40}}},
    )
    out = root / "fit"
    code = main(
        [
            "learn",
            "--config", config,
            "--events", str(sim_dir / "events.csv"),
            "--topology", str(sim_dir / "topology.txt"),
            "--k", "1",
            "--delta", "0.2",
            "--dt", "1.0",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_simulate_outputs(sim_dir, capsys):
    names = {p.name for p in sim_dir.iterdir()}
    assert names == {"events.csv", "topology.txt", "ground_truth.json", "manifest.json"}

    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    for name, digest in manifest["files"].items():
        assert digest == f"sha256:{sha256_file(sim_dir / name)}"

    records = load_events_csv(sim_dir / "events.csv")
    assert len(records) >= 400
    topology = load_edge_list(sim_dir / "topology.txt")
    assert topology.node_count == 4

    truth = load_graph_json(sim_dir / "ground_truth.json")
    assert truth.params is not None
    assert truth.params.type_count == 2
    assert truth.meta["seed"] == 7
    assert truth.meta["config"]["target_event_count"] == 400


def test_simulate_stdout_summary(tmp_path, capsys):
    config = _write_config(tmp_path / "c.json", {"simulate": SIM_SECTION})
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(r"simulated \d+ events over \d+ bins \(seed 7\) -> .*", line)


def test_simulate_reports_under_generation_in_one_line(tmp_path, capsys):
    section = {**SIM_SECTION, "max_bins": 50}
    config = _write_config(tmp_path / "c.json", {"simulate": section})
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    events = load_events_csv(tmp_path / "o" / "events.csv")
    assert captured.err.splitlines() == [
        f"warning: hit max_bins=50 with {len(events)} events, target was 400"
    ]
    assert (tmp_path / "o" / "manifest.json").exists()
    # the library still warns
    with pytest.warns(UnderGenerationWarning, match="hit max_bins=50"):
        generate_benchmark(SimConfig.from_dict(section))


@pytest.mark.parametrize("override", [
    {"type_count": 5.9}, {"node_count": "4"}, {"seed": True}, {"max_hops": 1.5},
    {"bin_width": "1.0"}, {"avg_topology_degree": False}, {"mu_range": ["0.005", 0.01]},
    {"alpha_range": [0.03]}, {"alpha_range": "ab"}, {"max_bins": float("inf")},
    {"kernel": {"type": "exponential", "delta": "0.2"}},
    {"kernel": {"type": "gaussian", "mean": 2.0, "std": True}},
])
def test_simulate_rejects_config_values_of_the_wrong_type(tmp_path, capsys, override):
    config = _write_config(tmp_path / "c.json", {"simulate": {**SIM_SECTION, **override}})
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_simulate_reads_integral_floats_as_counts(tmp_path):
    config = _write_config(tmp_path / "c.json", {"simulate": {**SIM_SECTION, "type_count": 2.0}})
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 0
    truth = load_graph_json(tmp_path / "o" / "ground_truth.json")
    assert truth.graph.type_count == 2 and truth.meta["config"]["type_count"] == 2


def test_simulate_byte_determinism(tmp_path):
    config = _write_config(tmp_path / "c.json", {"simulate": SIM_SECTION})
    for sub in ("one", "two"):
        assert main(["simulate", "--config", config, "--out", str(tmp_path / sub)]) == 0
    for name in ("events.csv", "topology.txt", "ground_truth.json", "manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes(), name


def test_simulate_seed_changes_events(tmp_path):
    config = _write_config(tmp_path / "c.json", {"simulate": SIM_SECTION})
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(
        ["simulate", "--config", config, "--seed", "8", "--out", str(tmp_path / "b")]
    ) == 0
    assert (tmp_path / "a" / "events.csv").read_bytes() != (
        tmp_path / "b" / "events.csv"
    ).read_bytes()
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["seed"] == 8  # flag beats the config file


def test_top_level_seed_inherited(tmp_path, capsys):
    section = {k: v for k, v in SIM_SECTION.items() if k != "seed"}
    config = _write_config(
        tmp_path / "c.json", {"seed": 11, "simulate": section}
    )
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert "(seed 11)" in capsys.readouterr().out


def test_learn_outputs(sim_dir, learn_dir, capsys):
    doc = load_graph_json(learn_dir / "learned_graph.json")
    assert doc.params is not None
    assert doc.params.type_count == 2
    assert doc.meta["config"]["k"] == 1
    assert doc.meta["config"]["em"]["max_iterations"] == 40

    report = json.loads((learn_dir / "report.json").read_text())
    assert report["score"] == doc.meta["score"]
    assert report["edge_count"] == doc.graph.edge_count
    assert report["rounds"] >= 1
    assert report["fit_evaluations"] >= report["rounds"]
    assert isinstance(report["screened_moves"], int) and report["screened_moves"] >= 0
    # one certificate per type: how far its final fit may lie below its optimum
    assert len(report["fit_gaps"]) == 2
    assert all(-1e-9 < gap < 1.0 for gap in report["fit_gaps"])
    assert report["events"] >= 400
    assert report["inputs"]["events"] == f"sha256:{sha256_file(sim_dir / 'events.csv')}"
    assert report["inputs"]["topology"] == (
        f"sha256:{sha256_file(sim_dir / 'topology.txt')}"
    )


def test_report_counts_the_screen_and_certifies_the_final_fits(sim_dir, tmp_path, monkeypatch):
    from hawkesnet.em import duality_gap

    searches = []
    original = cli.hill_climb

    def recording(cache, **kwargs):
        searches.append((cache, original(cache, **kwargs)))
        return searches[-1][1]

    monkeypatch.setattr(cli, "hill_climb", recording)
    out = tmp_path / "fit"
    code = main(
        [
            "learn",
            "--events", str(sim_dir / "events.csv"),
            "--topology", str(sim_dir / "topology.txt"),
            "--k", "1",
            "--delta", "0.2",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    ((cache, result),) = searches
    assert report["fit_evaluations"] == result.fit_evaluations
    assert report["screened_moves"] == result.screened_moves
    assert report["fit_gaps"] == [duality_gap(f, cache)[0] for f in result.type_fits]


def test_learn_stdout_summary(sim_dir, tmp_path, capsys):
    out = tmp_path / "fit"
    code = main(
        [
            "learn",
            "--events", str(sim_dir / "events.csv"),
            "--topology", str(sim_dir / "topology.txt"),
            "--k", "0",
            "--delta", "0.2",
            "--out", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert re.fullmatch(
        r"learned \d+ edges in \d+ rounds, score -?\d+\.\d{6} -> .*",
        captured.out.strip(),
    )
    # Progress and timing stay on stderr so stdout is machine-friendly.
    assert "search took" in captured.err
    # at K=0 an edge costs nothing, so the screen rules out no move
    assert re.search(
        r"^search took \d+\.\d\ds fits=[1-9]\d* maps=[1-9]\d* screened=0 nonconverged=\d+ "
        r"paused=\d+ resumed=\d+$",
        captured.err, re.MULTILINE,
    )
    # feature time has its own line, right before the search line
    assert re.search(
        r"^features took \d+\.\d\ds cells=[1-9]\d* build=(chunks|events)\nsearch took ",
        captured.err, re.MULTILINE)
    # CSV parse and discretize have their own line, right before the feature line
    assert re.search(r"^ingest took \d+\.\d\ds events=[1-9]\d*\nfeatures took ",
                     captured.err, re.MULTILINE)


def test_learn_warns_on_unconverged_fits(sim_dir, tmp_path, capsys):
    outputs = {}
    for name, em in (("capped", {"max_iterations": 1}), ("default", {})):
        config = _write_config(tmp_path / f"{name}.json", {"learn": {"em": em}})
        code = main(
            [
                "learn",
                "--config", config,
                "--events", str(sim_dir / "events.csv"),
                "--topology", str(sim_dir / "topology.txt"),
                "--k", "1",
                "--delta", "0.2",
                "--out", str(tmp_path / name),
            ]
        )
        assert code == 0
        outputs[name] = capsys.readouterr()
    capped, default = outputs["capped"], outputs["default"]
    warnings = [line for line in capped.err.splitlines() if line.startswith("warning:")]
    assert warnings == ["warning: EM did not converge within 1 iterations for types 0, 1"]
    assert "warning" not in capped.out
    assert re.fullmatch(r"learned \d+ edges in \d+ rounds, score -?\d+\.\d{6} -> .*", capped.out.strip())
    assert "warning:" not in default.err


def test_learn_byte_determinism(sim_dir, tmp_path):
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code = main(
            [
                "learn",
                "--events", str(sim_dir / "events.csv"),
                "--topology", str(sim_dir / "topology.txt"),
                "--k", "1",
                "--delta", "0.2",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    for name in ("learned_graph.json", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_learn_seed_is_only_recorded(sim_dir, tmp_path):
    # --seed is echoed as provenance; the fit does not depend on it
    outs = {}
    for seed in ("0", "9"):
        out = tmp_path / seed
        code = main(
            [
                "learn",
                "--events", str(sim_dir / "events.csv"),
                "--topology", str(sim_dir / "topology.txt"),
                "--k", "1",
                "--delta", "0.2",
                "--seed", seed,
                "--out", str(out),
            ]
        )
        assert code == 0
        outs[seed] = out
    graph = json.loads((outs["9"] / "learned_graph.json").read_text())
    report = json.loads((outs["9"] / "report.json").read_text())
    assert graph["seed"] == graph["config"]["seed"] == 9
    assert report["config"]["seed"] == 9
    for name in ("learned_graph.json", "report.json"):
        nine = (outs["9"] / name).read_bytes()
        assert b'"seed": 9' in nine
        assert (outs["0"] / name).read_bytes() == nine.replace(b'"seed": 9', b'"seed": 0'), name


def test_learn_horizon_end_matches_inference(sim_dir, tmp_path):
    records = load_events_csv(sim_dir / "events.csv")
    latest = max(r.timestamp for r in records)
    horizon = float(int(latest // 1.0) + 1)
    args = [
        "learn",
        "--events", str(sim_dir / "events.csv"),
        "--topology", str(sim_dir / "topology.txt"),
        "--k", "1",
        "--delta", "0.2",
        "--seed", "0",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(
        args + ["--horizon-end", repr(horizon), "--out", str(tmp_path / "b")]
    ) == 0
    assert (tmp_path / "a" / "learned_graph.json").read_bytes() == (
        tmp_path / "b" / "learned_graph.json"
    ).read_bytes()


@pytest.mark.parametrize("latest", ["9007199254740993.0", "1.2345678901234567e+16"])
def test_learn_infers_a_window_past_2_pow_53_bins(tmp_path, capsys, latest):
    # from 2**53 bins on, the boundary after the latest event's bin rounds
    # back onto the latest timestamp; the inferred window must still hold it
    events = tmp_path / "events.csv"
    events.write_text(f"node,event_type,timestamp\n0,0,0.5\n0,0,{latest}\n")
    out = tmp_path / "o"
    assert main(["learn", "--events", str(events), "--no-topology", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["events"] == 2
    assert report["bins"] > float(latest)


@pytest.mark.parametrize("learn", [
    {"allow_cycles": "false"}, {"no_topology": 0}, {"events": 0}, {"k": "two"},
    {"em": {"max_iterations": "many"}},
    # numbers are JSON numbers: no strings or booleans, and no fractions where an int belongs
    {"k": "1"}, {"dt": "5.0"}, {"k": 1.5}, {"k": True}, {"seed": 0.5}, {"delta": False},
    {"em": {"rel_tolerance": "0.1"}}, {"em": {"max_iterations": 20.5}},
])
def test_learn_rejects_config_values_of_the_wrong_type(sim_dir, tmp_path, capsys, learn):
    config = _write_config(tmp_path / "c.json", {"learn": learn})
    code = main([
        "learn", "--config", config, "--topology", str(sim_dir / "topology.txt"),
        *([] if "events" in learn else ["--events", str(sim_dir / "events.csv")]),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "config key" in capsys.readouterr().err


def test_learn_no_topology(sim_dir, tmp_path):
    out = tmp_path / "fit"
    code = main(
        [
            "learn",
            "--events", str(sim_dir / "events.csv"),
            "--no-topology",
            "--nodes", "4",
            "--delta", "0.2",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = load_graph_json(out / "learned_graph.json")
    assert doc.meta["config"]["k"] == 0
    assert doc.meta["config"]["no_topology"] is True


def test_learn_without_topology_or_optout_fails(sim_dir, tmp_path, capsys):
    code = main(
        [
            "learn",
            "--events", str(sim_dir / "events.csv"),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert "topology" in capsys.readouterr().err


def test_learn_k_sweep(sim_dir, tmp_path):
    out = tmp_path / "fit"
    code = main(
        [
            "learn",
            "--events", str(sim_dir / "events.csv"),
            "--topology", str(sim_dir / "topology.txt"),
            "--k", "1",
            "--k-sweep",
            "--delta", "0.2",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = load_graph_json(out / "learned_graph.json")
    assert doc.meta["config"]["k"] in (0, 1)
    assert doc.meta["config"]["k_sweep"] is True
    # The swept fit can never score below the forced k=0 fit.
    k0 = tmp_path / "k0"
    assert main(
        [
            "learn",
            "--events", str(sim_dir / "events.csv"),
            "--topology", str(sim_dir / "topology.txt"),
            "--k", "0",
            "--delta", "0.2",
            "--out", str(k0),
        ]
    ) == 0
    swept = json.loads((out / "report.json").read_text())["score"]
    forced = json.loads((k0 / "report.json").read_text())["score"]
    assert swept >= forced - 1e-9


def test_learn_dag_only(sim_dir, tmp_path):
    out = tmp_path / "fit"
    code = main(
        [
            "learn",
            "--events", str(sim_dir / "events.csv"),
            "--topology", str(sim_dir / "topology.txt"),
            "--k", "1",
            "--delta", "0.2",
            "--dag-only",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = load_graph_json(out / "learned_graph.json")
    assert not has_cycle(doc.graph)
    assert doc.meta["config"]["allow_cycles"] is False


def test_learn_trace_file(sim_dir, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = main(
        [
            "learn",
            "--events", str(sim_dir / "events.csv"),
            "--topology", str(sim_dir / "topology.txt"),
            "--k", "1",
            "--delta", "0.2",
            "--trace", str(trace),
            "--out", str(tmp_path / "fit"),
        ]
    )
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert set(entry) == {"round", "move", "edge", "edges", "score"}


def test_k_sweep_trace_describes_the_kept_order(tmp_path):
    # data simulated at k=0, so a k=2 sweep keeps an order below the largest
    sim = tmp_path / "sim"
    assert main(["simulate", "--k", "0", "--nodes", "10", "--types", "5",
                 "--target-events", "4000", "--seed", "1", "--out", str(sim)]) == 0
    trace, out = tmp_path / "trace.jsonl", tmp_path / "fit"
    assert main(["learn", "--events", str(sim / "events.csv"),
                 "--topology", str(sim / "topology.txt"), "--k", "2", "--k-sweep",
                 "--trace", str(trace), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["k"] < 2
    entries = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(entries) == report["rounds"]
    assert entries[-1]["score"] == report["score"]


@pytest.mark.parametrize("orders", [(2, 0), range(3)], ids=["full-and-flat", "sweep"])
def test_pipeline_equals_a_fresh_build_per_order(orders):
    data = generate_benchmark(SimConfig(**{**SIM_SECTION, "kernel": ExponentialKernel(0.2),
                                           "mu_range": (0.005, 0.01), "max_hops": 2}))
    kernel, em_config = ExponentialKernel(0.3), EmConfig(max_iterations=40)
    cache, results, features_s, search_s = cli.pipeline(
        data.dataset(), data.topology, kernel, orders, em_config=em_config)
    assert cache.max_hops == 2 and list(results) == list(orders)
    assert features_s >= 0 and search_s >= 0
    for hops, result in results.items():
        fresh = hill_climb(build_features(data.dataset(), data.topology, kernel, hops),
                           em_config=em_config)
        assert (result.graph, result.params, result.score, result.fit_gaps, result.trace) == (
            fresh.graph, fresh.params, fresh.score, fresh.fit_gaps, fresh.trace)


@pytest.mark.parametrize("k, searches", [(0, 1), (1, 2)])
def test_benchmark_searches_each_hop_order_once(tmp_path, monkeypatch, capsys, k, searches):
    calls, search = [], cli.hill_climb

    def counting(cache, **kwargs):
        calls.append(cache.max_hops)
        return search(cache, **kwargs)

    monkeypatch.setattr(cli, "hill_climb", counting)
    section = {**SIM_SECTION, "target_event_count": 250, "em": {"max_iterations": 30}}
    section.pop("seed")
    config = _write_config(tmp_path / "c.json", {"benchmark": section})
    assert main(["benchmark", "--config", config, "--k", str(k), "--runs", "1"]) == 0
    assert sorted(calls) == sorted({k, 0})
    assert len(calls) == searches
    # both rows are still reported, the flat one from the one hop-0 search at --k 0
    err = capsys.readouterr().err
    assert "seed 0 full:" in err and "seed 0 no_topology:" in err


def test_evaluate_against_truth(sim_dir, learn_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--predicted", str(learn_dir / "learned_graph.json"),
            "--truth", str(sim_dir / "ground_truth.json"),
            "--out", str(out),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    match = re.fullmatch(
        r"precision=(\d\.\d{4}) recall=(\d\.\d{4}) f1=(\d\.\d{4})"
        r"( alpha_mae=(\d+\.\d{6}))?",
        line,
    )
    assert match is not None
    report = json.loads((out / "report.json").read_text())
    assert f"{report['f1']:.4f}" == match.group(3)
    assert 0.0 <= report["f1"] <= 1.0
    assert report["inputs"]["truth"] == (
        f"sha256:{sha256_file(sim_dir / 'ground_truth.json')}"
    )


def test_evaluate_perfect_match_and_mae(learn_dir, capsys):
    path = str(learn_dir / "learned_graph.json")
    assert main(["evaluate", "--predicted", path, "--truth", path]) == 0
    line = capsys.readouterr().out.strip()
    assert "precision=1.0000 recall=1.0000 f1=1.0000" in line
    assert "alpha_mae=0.000000" in line


def test_evaluate_missing_flags(capsys):
    assert main(["evaluate"]) == 2
    assert "evaluate needs" in capsys.readouterr().err


def test_benchmark_small(tmp_path, capsys):
    section = dict(SIM_SECTION)
    section.pop("seed")
    section.update({"target_event_count": 250, "runs": 1,
                    "em": {"max_iterations": 30}})
    config = _write_config(tmp_path / "c.json", {"benchmark": section})
    out = tmp_path / "bench"
    assert main(
        ["benchmark", "--config", config, "--seed", "1", "--out", str(out)]
    ) == 0
    captured = capsys.readouterr()
    assert "configuration" in captured.out
    assert "full" in captured.out and "no_topology" in captured.out
    assert "seed 1 full:" in captured.err

    payload = json.loads((out / "benchmark.json").read_text())
    assert payload["seed"] == 1
    assert payload["results"]["full"]["runs"] == 1
    for label in ("full", "no_topology"):
        assert 0.0 <= payload["results"][label]["f1_mean"] <= 1.0


def test_benchmark_reports_under_generation_in_one_line(tmp_path):
    section = {**SIM_SECTION, "max_bins": 2000, "em": {"max_iterations": 30}}
    section.pop("seed")
    config = _write_config(tmp_path / "c.json", {"benchmark": section})
    proc = _module_entry("benchmark", "--config", config, "--runs", "1")
    assert proc.returncode == 0, proc.stderr
    warned = [line for line in proc.stderr.splitlines() if "max_bins" in line]
    assert len(warned) == 1, proc.stderr
    assert re.fullmatch(r"warning: hit max_bins=2000 with \d+ events, target was 400", warned[0])
    # without the source path and line of Python's own warning format
    assert "Warning" not in proc.stderr and "simulate.py" not in proc.stderr


def test_missing_events_file_is_io_error(tmp_path, capsys):
    code = main(
        [
            "learn",
            "--events", str(tmp_path / "nope.csv"),
            "--no-topology",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_invalid_config_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_em_key_rejected(sim_dir, tmp_path, capsys):
    # every fit starts from one fixed point, so there are no restarts to set
    for key, value in (("iterations", 5), ("restarts", 1)):
        config = _write_config(tmp_path / "c.json", {"learn": {"em": {key: value}}})
        code = main(
            [
                "learn",
                "--config", config,
                "--events", str(sim_dir / "events.csv"),
                "--no-topology",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert f"unknown em config keys ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, unknown", [
    ("learn", {"max_hop": 0, "dag_only": True}, "learn config keys ['dag_only', 'max_hop']"),
    ("evaluate", {"predictd": "x"}, "evaluate config keys ['predictd']"),
    ("benchmark", {"runs": 1, "runz": 1}, "benchmark config keys ['runz']"),
])
def test_unknown_config_keys_exit_two(sim_dir, learn_dir, tmp_path, capsys, command, section, unknown):
    # a top-level seed, which _section merges into every section, is known
    config = _write_config(tmp_path / "c.json", {"seed": 3, command: section})
    paths = {
        "learn": ["--events", str(sim_dir / "events.csv"), "--topology", str(sim_dir / "topology.txt"),
                  "--out", str(tmp_path / "o")],
        "evaluate": ["--predicted", str(learn_dir / "learned_graph.json"),
                     "--truth", str(sim_dir / "ground_truth.json"), "--out", str(tmp_path / "o")],
        "benchmark": ["--out", str(tmp_path / "o")],
    }[command]
    assert main([command, "--config", config, *paths]) == 2
    assert capsys.readouterr().err == f"error: unknown {unknown}\n"
    assert not (tmp_path / "o").exists()
    if command == "evaluate":  # the same section without the unknown key runs
        assert main([command, "--config", _write_config(tmp_path / "ok.json", {"seed": 3, command: {}}),
                     *paths]) == 0


@pytest.mark.parametrize(
    "stamp, horizon", [("nan", ["--horizon-end", "10"]), ("nan", []), ("inf", [])]
)
def test_non_finite_timestamps_exit_two(tmp_path, capsys, stamp, horizon):
    events = tmp_path / "events.csv"
    events.write_text(f"node,event_type,timestamp\n0,0,1.5\n1,1,{stamp}\n")
    out = tmp_path / "o"
    code = main(["learn", "--events", str(events), "--no-topology", "--out", str(out), *horizon])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "learned_graph.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["learn", "--delta", "inf"],
        ["learn", "--delta", "nan"],
        ["learn", "--delta", "1e308", "--dt", "2"],  # delta * dt overflows
        ["simulate", "--delta", "inf"],
        ["simulate", "--delta", "1e-310"],  # 1/expm1(delta * dt) overflows
        ["simulate", "--delta", "1e-300", "--dt", "1e-30"],  # delta * dt underflows to 0
        # an event's expected children pass what numpy's Poisson draw takes
        ["simulate", "--delta", "1e-20"],
        ["simulate", "--delta", "1e-300"],
    ],
)
def test_unusable_decay_exits_two(sim_dir, tmp_path, capsys, argv):
    inputs = ["--events", str(sim_dir / "events.csv"), "--topology", str(sim_dir / "topology.txt")]
    out = tmp_path / "o"
    code = main([*argv, *(inputs if argv[0] == "learn" else []), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code", [(["--delta", "710"], 0), (["--delta", "1e300"], 0), (["--dt", "1e300"], 3)]
)
def test_decay_past_the_range_of_expm1_simulates(tmp_path, capsys, argv, code):
    # expm1(delta * dt) overflows: each event expects exp(-delta * dt), about 0, children;
    # at dt = 1e300 the background alone passes the explosion guard in bin 0
    out = tmp_path / "o"
    assert main(["simulate", *argv, "--target-events", "500", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and (out / "events.csv").exists()
    else:
        assert err.startswith("error: expected count") and "in bin 0" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("target", ["events", "topology", "config"])
def test_undecodable_input_exits_two(sim_dir, tmp_path, capsys, target):
    paths = {
        "events": str(sim_dir / "events.csv"),
        "topology": str(sim_dir / "topology.txt"),
        "config": str(_write_config(tmp_path / "c.json", {})),
    }
    bad = tmp_path / "bad"
    with open(paths[target], "rb") as fh:
        bad.write_bytes(fh.read() + b"\xff\n")
    paths[target] = str(bad)
    code = main(
        [
            "learn",
            "--events", paths["events"],
            "--topology", paths["topology"],
            "--config", paths["config"],
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


# sizes numpy refuses at once: 10**10 nodes overflow the array size, 10**9
# nodes would take 6.94 EiB
@pytest.mark.parametrize("topology", ["# nodes: 10000000000\n0,1\n", "0,999999999\n"])
def test_unallocatable_topology_exits_two(sim_dir, tmp_path, capsys, topology):
    path = tmp_path / "topology.txt"
    path.write_text(topology)
    code = main(
        [
            "learn",
            "--events", str(sim_dir / "events.csv"),
            "--topology", str(path),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert "cannot allocate" in capsys.readouterr().err


def test_learn_on_a_complete_topology_takes_the_chunk_build(tmp_path, capsys):
    # few events on a complete topology: the event build's second hop would
    # meet n**3 terms, so learn takes the chunk build and finishes
    assert main(_ring_or_complete_input(tmp_path, 300, complete=True)) == 0
    assert re.search(r"^features took \S+ cells=\d+ build=chunks$", capsys.readouterr().err, re.M)


def _ring_or_complete_input(tmp_path, n, complete):
    """200 events at random over 5 types on ``n`` nodes, a ring or a
    complete topology; the ``learn`` argv at K=2 on them."""
    rng = np.random.default_rng(0)
    _write_events(tmp_path / "events.csv", rng.integers(0, n, 200), rng.integers(0, 5, 200),
                  rng.random(200) * 1000.0)
    edges = combinations(range(n), 2) if complete else [(i, (i + 1) % n) for i in range(n)]
    save_edge_list(str(tmp_path / "topology.txt"), build_topology(n, edges))
    return ["learn", "--events", str(tmp_path / "events.csv"),
            "--topology", str(tmp_path / "topology.txt"), "--k", "2", "--out", str(tmp_path / "o")]


def _write_events(path, nodes, types, stamps):
    lines = [f"{node},{etype},{stamp!r}" for node, etype, stamp in
             zip(nodes.tolist(), types.tolist(), stamps.tolist())]
    path.write_text("node,event_type,timestamp\n" + "\n".join(lines) + "\n")


@pytest.mark.parametrize("complete, list_entries", [(True, 30), (False, 150)])
def test_learn_past_both_hop_forms_exits_two_before_allocating(tmp_path, capsys, monkeypatch,
                                                               complete, list_entries):
    # 30 nodes at K=2 with the dense budget one entry short: on the complete
    # topology the second hop list's product passes the patched list bound,
    # on the ring (120 product terms) the ~400 rows pushed along its first hop
    # do. learn refuses either input without making the dense stack.
    n = 30
    argv = _ring_or_complete_input(tmp_path, n, complete)
    monkeypatch.setattr("hawkesnet.topology.LIST_ENTRIES", list_entries)
    monkeypatch.setattr("hawkesnet.features.LIST_ENTRIES", list_entries)
    monkeypatch.setattr("hawkesnet.topology.DENSE_ENTRIES", 3 * n * n - 1)
    monkeypatch.setattr(TopologyGraph, "hop_matrices",
                        lambda *_: pytest.fail("the dense hop stack was made"))
    assert main(argv) == 2
    assert "cannot allocate 2 propagation hops over 30 nodes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_learn_past_the_feature_budget_exits_two_before_allocating(tmp_path, capsys, monkeypatch):
    # at a budget of 2**20 entries the blocks of the 5 types with events fit,
    # and those of 1,000 declared types (3 * 1,000 rows over at least 8
    # padded cells each) do not: learn refuses before any block is made
    argv = _ring_or_complete_input(tmp_path, 30, complete=False)
    monkeypatch.setattr("hawkesnet.features.DENSE_ENTRIES", 1 << 20)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr("hawkesnet.features.aligned_rows",
                        lambda *_: pytest.fail("a feature block was made"))
    argv[-1] = str(tmp_path / "refused")
    assert main(argv + ["--types", "1000"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: cannot allocate the features of 1000 types at 2 propagation hops "
                        r"over \d+ cells\n", err)
    assert not (tmp_path / "refused").exists()


def test_learn_past_the_dense_budget_takes_the_event_build(tmp_path, capsys, monkeypatch):
    # every node has events of both types in each of 20 occupied bins, so the
    # work test prefers the chunk loop; past the dense budget learn takes
    # the ring's hop lists instead
    n, bins = 30, 20
    cells = np.arange(bins * n * 2)
    _write_events(tmp_path / "events.csv", cells % n, cells // n % 2, cells // (2 * n) * 50.0 + 0.5)
    save_edge_list(str(tmp_path / "topology.txt"),
                   build_topology(n, [(i, (i + 1) % n) for i in range(n)]))
    builds = []
    for dense_entries in (3 * n * n, 3 * n * n - 1):
        monkeypatch.setattr("hawkesnet.topology.DENSE_ENTRIES", dense_entries)
        out = tmp_path / f"o{dense_entries}"
        assert main(["learn", "--events", str(tmp_path / "events.csv"),
                     "--topology", str(tmp_path / "topology.txt"), "--k", "2",
                     "--out", str(out)]) == 0
        assert (out / "learned_graph.json").exists()
        builds += re.findall(r"^features took \S+ cells=\d+ build=(\w+)$", capsys.readouterr().err, re.M)
    assert builds == ["chunks", "events"]


def test_unallocatable_simulate_nodes_exit_two(tmp_path, capsys):
    # numpy refuses the 10**10-node pair arrays at once
    code = main(["simulate", "--nodes", "10000000000", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cannot allocate" in capsys.readouterr().err


def test_simulate_past_the_dense_budget_exits_two_before_allocating(tmp_path, capsys, monkeypatch):
    # 10 nodes at K=2 take 300 dense entries: at that budget simulate runs,
    # and one entry short it exits 2 before topology makes any array
    argv = ["simulate", "--nodes", "10", "--k", "2", "--types", "2", "--target-events", "100"]
    monkeypatch.setattr("hawkesnet.topology.DENSE_ENTRIES", 3 * 10 * 10)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 0

    def made(*_args, **_kwargs):
        pytest.fail("topology made an array")

    monkeypatch.setattr("hawkesnet.topology.DENSE_ENTRIES", 3 * 10 * 10 - 1)
    monkeypatch.setattr("hawkesnet.topology.np", SimpleNamespace(**{**vars(np), "zeros": made, "empty": made}))
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "refused")]) == 2
    assert capsys.readouterr().err == "error: cannot allocate 2 propagation hops over 10 nodes\n"
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("kernel", [
    {"type": "uniform", "start": 1e300},
    {"type": "gaussian", "mean": 1e308, "std": 1e308},  # the window's end is inf
    {"type": "gaussian", "mean": 3e8},  # 2.2 GiB of lags at dt = 1
])
def test_simulate_refuses_a_kernel_window_past_the_lag_bound(tmp_path, capsys, kernel):
    config = _write_config(tmp_path / "config.json", {"simulate": {**SIM_SECTION, "kernel": kernel}})
    out = tmp_path / "o"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: cannot allocate the window of \w+Kernel\(.*\) at dt=1: "
                        r"\S+ lags, more than 4194304\n", err), err
    assert not out.exists()


def test_simulate_kernel_window_bound_is_exact(tmp_path, capsys, monkeypatch):
    # a Gaussian window ends 8.5 std past its mean: 66 + 34 = 100 lags fit a
    # bound of 100, and 101 lags do not
    monkeypatch.setattr("hawkesnet.simulate._WINDOW_LAGS", 100)
    for mean, code in ((66.0, 0), (67.0, 2)):
        section = {**SIM_SECTION, "kernel": {"type": "gaussian", "mean": mean}, "target_event_count": 50}
        config = _write_config(tmp_path / "config.json", {"simulate": section})
        assert main(["simulate", "--config", config, "--out", str(tmp_path / f"o{mean:g}")]) == code
    assert capsys.readouterr().err.endswith("101 lags, more than 100\n")
    assert not (tmp_path / "o67").exists()


# The CLI's text at an 80-column terminal, as it was before the subcommands
# moved into modules of their own: help, usage and argparse errors
TOP_USAGE = "usage: hawkesnet [-h] {simulate,learn,evaluate,benchmark} ...\n"
LEARN_USAGE = """\
usage: hawkesnet learn [-h] [--config PATH] [--seed SEED] --out DIR
                       [--events PATH] [--topology PATH] [--nodes NODES]
                       [--types TYPES] [--k K] [--k-sweep] [--delta DELTA]
                       [--dt DT] [--horizon-end HORIZON_END] [--no-topology]
                       [--allow-cycles | --dag-only] [--trace PATH]
"""
CLI_TEXT = {
    ("--help",): (0, TOP_USAGE + """
Simulate, fit, and score networked Hawkes event data.

positional arguments:
  {simulate,learn,evaluate,benchmark}
    simulate            generate a benchmark dataset
    learn               fit a causal graph to event data
    evaluate            compare a learned graph to a truth graph
    benchmark           simulate+learn+evaluate over a batch of seeds

options:
  -h, --help            show this help message and exit
""", ""),
    ("simulate", "--help"): (0, """\
usage: hawkesnet simulate [-h] [--config PATH] [--seed SEED] --out DIR [--k K]
                          [--delta DELTA] [--dt DT] [--nodes NODES]
                          [--types TYPES] [--target-events TARGET_EVENTS]

options:
  -h, --help            show this help message and exit
  --config PATH         JSON config file
  --seed SEED           random seed (default 0)
  --out DIR             output directory
  --k K                 propagation hop order
  --delta DELTA         exponential kernel decay rate
  --dt DT               bin width
  --nodes NODES         node count
  --types TYPES         event type count
  --target-events TARGET_EVENTS
                        stop after this many events
""", ""),
    ("learn", "--help"): (0, LEARN_USAGE + """
options:
  -h, --help            show this help message and exit
  --config PATH         JSON config file
  --seed SEED           recorded in the outputs; the fit does not depend on it
                        (default 0)
  --out DIR             output directory
  --events PATH         event CSV file
  --topology PATH       topology edge list file
  --nodes NODES         node count override
  --types TYPES         event type count override
  --k K                 propagation hop order (default 2)
  --k-sweep             try every hop order 0..k and keep the best score
  --delta DELTA         exponential kernel decay rate
  --dt DT               bin width
  --horizon-end HORIZON_END
                        observation window end
  --no-topology         ignore propagation: hop order forced to 0
  --allow-cycles        search over cyclic graphs and self-loops (default)
  --dag-only            restrict the search to acyclic graphs
  --trace PATH          write a JSONL search trace
""", ""),
    ("evaluate", "--help"): (0, """\
usage: hawkesnet evaluate [-h] [--config PATH] [--predicted PATH]
                          [--truth PATH] [--out DIR]

options:
  -h, --help        show this help message and exit
  --config PATH     JSON config file
  --predicted PATH  learned graph JSON
  --truth PATH      ground truth graph JSON
  --out DIR         directory for report.json
""", ""),
    ("benchmark", "--help"): (0, """\
usage: hawkesnet benchmark [-h] [--config PATH] [--seed SEED] [--out DIR]
                           [--runs RUNS] [--k K] [--delta DELTA] [--dt DT]
                           [--nodes NODES] [--types TYPES]
                           [--target-events TARGET_EVENTS]

options:
  -h, --help            show this help message and exit
  --config PATH         JSON config file
  --seed SEED           random seed (default 0)
  --out DIR             output directory
  --runs RUNS           number of seeds (default 5)
  --k K                 propagation hop order
  --delta DELTA         exponential kernel decay rate
  --dt DT               bin width
  --nodes NODES         node count
  --types TYPES         event type count
  --target-events TARGET_EVENTS
                        events per dataset
""", ""),
    (): (2, "", TOP_USAGE + "hawkesnet: error: the following arguments are required: command\n"),
    ("bogus",): (2, "", TOP_USAGE + "hawkesnet: error: argument command: invalid choice: 'bogus' "
                 "(choose from 'simulate', 'learn', 'evaluate', 'benchmark')\n"),
    ("learn", "--k", "x"): (2, "", LEARN_USAGE + "hawkesnet learn: error: argument --k: invalid int value: 'x'\n"),
}


@pytest.mark.parametrize("argv", CLI_TEXT)
def test_help_and_usage_text(argv):
    env = {key: value for key, value in os.environ.items() if key != "FORCE_COLOR"}
    env.update(COLUMNS="80", NO_COLOR="1")  # argparse wraps to the terminal width
    proc = subprocess.run(
        [sys.executable, "-m", "hawkesnet.cli", *argv], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == CLI_TEXT[argv]


def test_argparse_rejects_unknown_flags(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--out", "x", "--bogus"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    for command in ("learn", "benchmark"):  # --threads was removed
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--out", "x", "--threads", "2"])
        assert excinfo.value.code == 2


# a supercritical simulate section: the explosion guard ends it with exit 3
EXPLOSIVE_SECTION = {
    "node_count": 2,
    "type_count": 2,
    "target_event_count": 100000,
    "mu_range": [2.0, 2.0],
    "alpha_range": [10.0, 10.0],
    "causal_avg_indegree": 1.0,
    "avg_topology_degree": 1.0,
    "kernel": {"type": "exponential", "delta": 1.0},
    "max_hops": 0,
    "bin_width": 1.0,
    "seed": 0,
    "explosion_guard": 5.0,
}


def test_explosive_config_exits_three(tmp_path, capsys):
    config = _write_config(tmp_path / "c.json", {"simulate": EXPLOSIVE_SECTION})
    code = main(["simulate", "--config", config, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "exploding" in capsys.readouterr().err


def _module_entry(*argv, **extra_env):
    """``python -m hawkesnet.cli <argv>`` with stdout and stderr piped and
    block-buffered, where an exit that skipped the flush would lose text;
    ``extra_env`` is set over the environment."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "hawkesnet.cli", *argv], capture_output=True, text=True, env=env
    )


def _masked_lines(text):
    return re.sub(r"took \d+\.\d+s", "took <t>s", text).splitlines()


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _pipeline(root, config):
    data, fit = root / "data", root / "fit"
    return [
        ["simulate", "--config", config, "--out", str(data)],
        [
            "learn",
            "--events", str(data / "events.csv"),
            "--topology", str(data / "topology.txt"),
            "--k", "1",
            "--delta", "0.2",
            "--trace", str(root / "trace.jsonl"),
            "--out", str(fit),
        ],
        [
            "evaluate",
            "--predicted", str(fit / "learned_graph.json"),
            "--truth", str(data / "ground_truth.json"),
            "--out", str(root / "eval"),
        ],
    ]


def test_module_entry_point(tmp_path, capsys):
    config = _write_config(tmp_path / "c.json", {"simulate": SIM_SECTION})
    work = tmp_path / "work"
    # each command in its own interpreter, under two string hash seeds:
    # every file and every stdout byte the same
    passes = []
    for hash_seed in ("0", "1"):
        printed = []
        for argv in _pipeline(work, config):
            proc = _module_entry(*argv, PYTHONHASHSEED=hash_seed)
            assert proc.returncode == 0, proc.stderr
            printed.append((proc.stdout, _masked_lines(proc.stderr)))
        passes.append((printed, _files(work)))
        work.rename(tmp_path / f"hash_seed_{hash_seed}")
    assert passes[0] == passes[1]
    printed, written = passes[0]
    assert {"data/events.csv", "fit/learned_graph.json", "trace.jsonl", "eval/report.json"} <= set(written)
    assert all(out for out, _ in printed) and any(err for _, err in printed)
    # the same argv in process, writing to the same paths
    for argv, (out, err) in zip(_pipeline(work, config), printed):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == out
        assert _masked_lines(captured.err) == err
    assert _files(work) == written


def test_module_entry_point_exit_codes(sim_dir, learn_dir, tmp_path):
    malformed = tmp_path / "events.csv"
    malformed.write_text("node,event_type,timestamp\n0,0,1.5\n1,one,2.5\n")
    explosive = _write_config(tmp_path / "c.json", {"simulate": EXPLOSIVE_SECTION})
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    for code, argv in (
        (2, ["learn", "--events", str(malformed), "--no-topology", "--out", str(tmp_path / "fit")]),
        # no numpy warning lines before the error
        (2, ["learn", "--events", str(sim_dir / "events.csv"), "--no-topology", "--k", "1",
             "--delta", "inf", "--out", str(tmp_path / "fit")]),
        (2, ["simulate", "--delta", "1e-310", "--out", str(tmp_path / "sim")]),
        (3, ["simulate", "--config", explosive, "--out", str(tmp_path / "sim")]),
        (
            4,
            [
                "evaluate",
                "--predicted", str(learn_dir / "learned_graph.json"),
                "--truth", str(sim_dir / "ground_truth.json"),
                "--out", str(not_a_dir / "eval"),
            ],
        ),
    ):
        proc = _module_entry(*argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


# run() with a stdout whose final flush fails, as on a full disk
_FAILING_FLUSH = """
import sys
from hawkesnet.cli import run

class FailingFlush:
    def write(self, text):
        return len(text)

    def flush(self):
        raise OSError(28, "No space left on device")

sys.stdout = FailingFlush()
run(sys.argv[1:])
"""


def test_run_exits_four_without_traceback_when_the_flush_fails(sim_dir, learn_dir, tmp_path):
    argv = [
        "evaluate",
        "--predicted", str(learn_dir / "learned_graph.json"),
        "--truth", str(sim_dir / "ground_truth.json"),
        "--out", str(tmp_path / "eval"),
    ]
    proc = subprocess.run([sys.executable, "-c", _FAILING_FLUSH, *argv], capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr == ""
    assert (tmp_path / "eval" / "report.json").exists()


# python -m hawkesnet.cli --help, printing the last function that the body
# of cli.py, run as __main__, called from its own module
_MODULE_ENDS_IN = """
import os, runpy, sys
calls = []

def profile(frame, event, arg):
    caller = frame.f_back
    if (event == "call" and caller is not None and caller.f_code.co_name == "<module>"
            and caller.f_globals.get("__name__") == "__main__" and frame.f_globals is caller.f_globals):
        calls.append(f"{frame.f_globals['__spec__'].name}:{frame.f_code.co_name}")

def _exit(status):  # run() ends the process; end only the module run
    raise SystemExit(status)

os._exit = _exit
sys.argv[1:] = ["--help"]
sys.setprofile(profile)
try:
    runpy.run_module("hawkesnet.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.setprofile(None)
print(calls[-1])
"""


def _script_target(name):
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib.loads(text)["project"]["scripts"][name]
    return re.search(rf'^{name}\s*=\s*"([^"]+)"', text, re.MULTILINE).group(1)


def test_installed_command_runs_what_the_module_entry_point_runs():
    target = _script_target("hawkesnet")
    proc = subprocess.run([sys.executable, "-c", _MODULE_ENDS_IN], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == target
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_cli_import_does_not_load_scipy():
    # scipy.signal alone took about 1.2 s of every CLI start-up
    code = (
        "import sys, hawkesnet.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the layers beyond graph files; a CLI call imports only those its
# subcommand runs, since each costs start-up time. numpy is listed as a
# layer too: graph files do not need it. No layer needs numpy.ma (about
# 15 ms), so no subcommand may load it.
LAYERS = {"events", "kernels", "topology", "features", "em", "search", "simulate", "metrics", "numpy"}
# one module per subcommand; a call imports only its own
COMMAND_MODULES = {"cmd_simulate", "cmd_learn", "cmd_evaluate", "cmd_benchmark"}
_LOADED_LAYERS = """
import json, os, runpy, sys
ran = []  # the file of each module body run, whether compiled or read as bytecode
sys.addaudithook(lambda event, args: event == "exec" and ran.append(getattr(args[0], "co_filename", "")))
code = 0
if len(sys.argv) > 1:  # as python -m hawkesnet.cli <argv>
    sys.argv[0] = "hawkesnet"

    def _exit(status):  # run() ends the process; end only the module run
        raise SystemExit(status)

    os._exit = _exit
    try:
        runpy.run_module("hawkesnet.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import hawkesnet.cli
cli_runs = sum(path.endswith(os.path.join("hawkesnet", "cli.py")) for path in ran)
print(json.dumps([code, cli_runs, [m.removeprefix("hawkesnet.") for m in sys.modules
                                   if m.startswith("hawkesnet.") or m in ("numpy", "numpy.ma", *WATCHED)]]))
"""
# standard-library modules watched besides the layers: dataclass code
# generation and the inspect module it loads, which no command needs (numpy
# alone loads inspect), and hashlib, which loads OpenSSL and which only the
# commands that hash a file need
WATCHED = ("dataclasses", "inspect", "hashlib")


def _loaded_layers(*argv) -> set:
    probe = f"WATCHED = {WATCHED!r}\n{_LOADED_LAYERS}"
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, cli_runs, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    # under python -m the body of cli.py runs once, as __main__: the command
    # modules that import hawkesnet.cli find that run, not a second copy
    assert cli_runs == 1
    return set(modules) & (LAYERS | COMMAND_MODULES | {"numpy.ma", *WATCHED})


def test_each_subcommand_loads_only_the_layers_it_runs(sim_dir, learn_dir, tmp_path):
    # import hawkesnet.cli loads no subcommand module and none of numpy,
    # dataclasses, inspect and hashlib; evaluate hashes its inputs, so it
    # loads hashlib, and metrics, which only it and benchmark run
    assert _loaded_layers() == set()
    assert _loaded_layers(
        "evaluate",
        "--predicted", str(learn_dir / "learned_graph.json"),
        "--truth", str(sim_dir / "ground_truth.json"),
        "--out", str(tmp_path / "eval"),
    ) == {"cmd_evaluate", "metrics", "hashlib"}
    # numpy.random loads hashlib (through secrets and hmac), so simulate
    # loads it although it hashes nothing
    config = _write_config(tmp_path / "c.json", {"simulate": SIM_SECTION})
    assert _loaded_layers(
        "simulate", "--config", config, "--out", str(tmp_path / "sim")
    ) - {"inspect", "hashlib"} == {"cmd_simulate", "events", "kernels", "topology", "simulate", "numpy"}
    assert _loaded_layers(
        "learn",
        "--events", str(sim_dir / "events.csv"),
        "--topology", str(sim_dir / "topology.txt"),
        "--k", "0",
        "--out", str(tmp_path / "fit"),
    ) - {"inspect"} == LAYERS - {"simulate", "metrics"} | {"cmd_learn", "hashlib"}
    bench = {**SIM_SECTION, "target_event_count": 100, "em": {"max_iterations": 10}}
    bench.pop("seed")
    config = _write_config(tmp_path / "b.json", {"benchmark": bench})
    assert "dataclasses" not in _loaded_layers("benchmark", "--config", config, "--runs", "1")


# perfbench/tracing.py times each layer by replacing these attributes of
# hawkesnet.cli, so the commands must look them up there at call time
TRACED_NAMES = (
    "generate_benchmark", "load_events_csv", "discretize", "build_features", "hill_climb",
    "save_events_csv", "save_edge_list", "save_graph_json", "write_json", "write_manifest",
)


def test_commands_call_the_traced_names_of_the_cli_module(tmp_path, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in TRACED_NAMES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    config = _write_config(tmp_path / "c.json", {"simulate": SIM_SECTION})
    data, fit = tmp_path / "data", tmp_path / "fit"
    assert main(["simulate", "--config", config, "--out", str(data)]) == 0
    assert main(
        [
            "learn",
            "--events", str(data / "events.csv"),
            "--topology", str(data / "topology.txt"),
            "--k", "1",
            "--out", str(fit),
        ]
    ) == 0
    assert main(
        [
            "evaluate",
            "--predicted", str(fit / "learned_graph.json"),
            "--truth", str(data / "ground_truth.json"),
            "--out", str(tmp_path / "eval"),
        ]
    ) == 0
    assert set(calls) == set(TRACED_NAMES)
