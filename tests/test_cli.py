"""End-to-end command line coverage: simulate -> learn -> evaluate -> benchmark."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from hawkesnet.cli import main
from hawkesnet.events import load_events_csv
from hawkesnet.fileio import load_graph_json, sha256_file
from hawkesnet.topology import load_edge_list

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
        {"learn": {"em": {"max_iterations": 40, "restarts": 1}}},
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
    assert report["events"] >= 400
    assert report["inputs"]["events"] == f"sha256:{sha256_file(sim_dir / 'events.csv')}"
    assert report["inputs"]["topology"] == (
        f"sha256:{sha256_file(sim_dir / 'topology.txt')}"
    )


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
    assert re.search(r"^search took \d+\.\d\ds fits=[1-9]\d* maps=[1-9]\d* nonconverged=\d+$",
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
    assert not doc.graph.has_cycle()
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
    config = _write_config(
        tmp_path / "c.json", {"learn": {"em": {"iterations": 5}}}
    )
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
    assert "unknown em config keys" in capsys.readouterr().err


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


def test_explosive_config_exits_three(tmp_path, capsys):
    config = _write_config(
        tmp_path / "c.json",
        {
            "simulate": {
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
        },
    )
    code = main(["simulate", "--config", config, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "exploding" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"simulate": SIM_SECTION}))
    proc = subprocess.run(
        [
            sys.executable, "-m", "hawkesnet.cli",
            "simulate", "--config", str(config), "--out", str(tmp_path / "o"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "manifest.json").exists()


def test_cli_import_does_not_load_scipy():
    # scipy.signal alone took about 1.2 s of every CLI start-up
    code = (
        "import sys, hawkesnet.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
