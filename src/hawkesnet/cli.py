"""Command-line interface (simulate, learn, evaluate, benchmark) and its ``pipeline``.

Configuration comes from an optional JSON file (sections named after the
subcommands) with command-line flags taking precedence. Exit codes: 0 on
success, 2 for invalid input or configuration (text that is not UTF-8
included), 3 for degenerate or exploding models, 4 for I/O failures.

This module only dispatches: ``main`` imports the chosen subcommand's module
(``cmd_simulate``, ``cmd_learn``, ``cmd_evaluate`` or ``cmd_benchmark``) and
builds only its options, so a process compiles one command and loads only
the layers it runs. ``import hawkesnet.cli`` loads no command module and no
numpy, ``metrics``, ``hashlib``, ``dataclasses`` or ``inspect``. The commands
call the layer entry points below (``build_features``, ``write_json``, ...)
through this module, where tracing can wrap them. A process enters through
``run``, which ends it once stdout and stderr are flushed, skipping teardown.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import TYPE_CHECKING

from .errors import (
    DegenerateModelError,
    InvalidInputError,
    SimulationExplosionError,
    UnsupportedKernelError,
)
from .fileio import read_json, save_graph_json, write_json, write_manifest
from .values import as_number

if TYPE_CHECKING:
    from .em import EmConfig

__all__ = ["main", "run", "build_parser", "pipeline"]

DEFAULT_DELTA = 1.0

# command -> (module, one-line help); the top-level --help lists these
COMMANDS = {
    "simulate": ("cmd_simulate", "generate a benchmark dataset"),
    "learn": ("cmd_learn", "fit a causal graph to event data"),
    "evaluate": ("cmd_evaluate", "compare a learned graph to a truth graph"),
    "benchmark": ("cmd_benchmark", "simulate+learn+evaluate over a batch of seeds"),
}


def _deferred(module: str, name: str):
    """``hawkesnet.<module>.<name>``, imported on its first call.

    Each subcommand thus loads only the layers it runs, and the name stays an
    attribute of this module that the commands look up when they call it.
    """

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)

    return call


generate_benchmark = _deferred("simulate", "generate_benchmark")
load_events_csv = _deferred("events", "load_events_csv")
save_events_csv = _deferred("events", "save_events_csv")
discretize = _deferred("events", "discretize")
build_features = _deferred("features", "build_features")
hill_climb = _deferred("search", "hill_climb")
save_edge_list = _deferred("topology", "save_edge_list")
# features at the largest hop order, then one search per order: cmd_learn.pipeline
pipeline = _deferred("cmd_learn", "pipeline")


def _known(section: dict, name: str, keys) -> dict:
    """``section``, unless it holds a key outside ``keys``."""
    unknown = set(section).difference(keys)
    if unknown:
        raise InvalidInputError(f"unknown {name} config keys {sorted(unknown)}")
    return section


def config_section(path: str | None, name: str, keys=None) -> dict:
    """Section ``name`` of the config file at ``path`` (none: empty) with the
    top-level seed merged in; checked against ``keys`` if given."""
    config = {} if path is None else read_json(path)
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise InvalidInputError(f"config section {name!r} must be an object")
    merged = dict(section)
    if "seed" in config and "seed" not in merged:
        merged["seed"] = config["seed"]
    return merged if keys is None else _known(merged, name, {*keys, "seed"})


def pick(args_value, section: dict, key: str, default, kind):
    """Flag beats config file beats default, read as ``kind``; a null is unset."""
    value = args_value if args_value is not None else section.get(key)
    if value is None:
        value = default
    if value is None:
        return None
    if kind in (int, float):
        return as_number(value, f"config key {key!r}", integer=kind is int)
    if not isinstance(value, kind):  # bool("false") is True
        raise InvalidInputError(f"config key {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def em_config_of(section: dict) -> EmConfig:
    from .em import EmConfig

    em = section.get("em", {})
    if not isinstance(em, dict):
        raise InvalidInputError("config key 'em' must be an object")
    _known(em, "em", ("max_iterations", "rel_tolerance"))
    return EmConfig(
        max_iterations=pick(None, em, "max_iterations", 100, int),
        rel_tolerance=pick(None, em, "rel_tolerance", 1e-6, float),
    )


def add_common(parser: argparse.ArgumentParser, *, out_required: bool,
               seed_help: str = "random seed (default 0)") -> None:
    """The ``--config``, ``--seed`` and ``--out`` options."""
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, help=seed_help)
    parser.add_argument("--out", metavar="DIR", required=out_required, help="output directory")


def _command(name: str):
    return importlib.import_module(f".{COMMANDS[name][0]}", __package__)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command line; only ``command``'s subparser gets its options."""
    parser = argparse.ArgumentParser(
        prog="hawkesnet",
        description="Simulate, fit, and score networked Hawkes event data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in COMMANDS.items():
        subparser = sub.add_parser(name, help=text)
        if name == command:
            _command(name).add_arguments(subparser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes only -h, so the first word that names a command is
    # the one argparse hands the rest of the line to
    command = next((word for word in argv if word in COMMANDS), None)
    args = build_parser(command).parse_args(argv)
    try:
        return _command(args.command).main(args)
    except (InvalidInputError, UnsupportedKernelError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateModelError, SimulationExplosionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def run(argv=None):
    """``main``, then flush stdout and stderr (exit 4 if that fails) and end at once.

    Freeing every module at exit costs tens of ms and saves no output: every
    file is written inside a ``with`` block and nothing registers ``atexit``.
    """
    code = main(argv)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = 4
    os._exit(code)


if __name__ == "__main__":
    # the command modules import this module as hawkesnet.cli: let them find
    # this run of it rather than compile and run it a second time
    sys.modules[__spec__.name] = sys.modules[__name__]
    run()
