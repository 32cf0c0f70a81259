"""Command-line surface: each pipeline stage as a subcommand plus a
single-shot `pipeline` convenience. `validate` and `pipeline` read their
sources, a dataset and a completions file, from --dataset and
--completions or from the config keys of the same names.

Exit codes: 0 success; 1 usage or configuration, which includes an
input file that cannot be read, whether its path came from a flag, a
config key or a stage's default input in the out dir, and an out dir or
artifact dir that cannot be created (--out-dir or --artifact-dir naming
a regular file, say); 2 data validation; 3 harness fault. Failures emit
machine-readable JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import shlex
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from . import degeneration, pipeline, taxonomy
from .corpus import (
    MAX_MEMORY_BYTES,
    MAX_WALL_TIME_MS,
    MIN_MEMORY_BYTES,
    MIN_WALL_TIME_MS,
    integer,
    read_json_object,
)
from .errors import ConfigError, HaluscopeError, IngestionError, ReportError, ValidationError
from .report import INDICATOR_MODES

_EXIT_USAGE = 1
_EXIT_DATA = 2
_EXIT_FAULT = 3


def _at_least(minimum: int, maximum: int | None = None) -> Callable[[Any], int]:
    """A parser of integers that refuses one below `minimum` or, given a
    `maximum`, above it."""

    def parse(value) -> int:
        number = integer(value)
        if number < minimum:
            raise ValueError(f"must be at least {minimum}, got {number}")
        if maximum is not None and number > maximum:
            raise ValueError(f"must be at most {maximum}, got {number}")
        return number
    return parse


def _indicator(value) -> str:
    if value not in INDICATOR_MODES:
        raise ValueError(f"expected one of {', '.join(INDICATOR_MODES)}, got {value!r}")
    return value


def _fraction(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _command(value) -> tuple[str, ...]:
    """An interpreter command: a shell-style string or a list of words.
    An empty one is refused rather than read as the harness's own."""
    words = shlex.split(value) if isinstance(value, str) else value
    if not isinstance(words, list) or not all(isinstance(word, str) for word in words):
        raise TypeError(f"expected a string or a list of strings, got {value!r}")
    if not words:
        raise ValueError("the interpreter command is empty")
    return tuple(words)


@dataclass(frozen=True)
class _Setting:
    """A top-level option that sets one run setting. Its parameter name is
    its config-file key; a "degeneration." key names a field of the config
    file's "degeneration" object. `field` is the RunConfig field it sets,
    or the DegenerationConfig field for a degeneration key. `parse`
    converts the CLI string or the config-file value into the field's
    value. Its help shows the last word of its key as the value's name."""

    flag: str
    key: str
    field: str
    parse: Callable[[Any], Any]
    help: str | None = None

    @property
    def param(self) -> str:
        return self.key.replace(".", "_")


RUN_SETTINGS = (
    _Setting("--out-dir", "out_dir", "out_dir", str, "Artifact directory."),
    _Setting("--jobs", "jobs", "jobs", _at_least(1), "Parallel sandbox workers."),
    _Setting("--interpreter", "interpreter", "interpreter", _command,
             "Interpreter command, e.g. 'python3 -u'."),
    _Setting("--limits.wall-ms", "wall_time_ms", "wall_time_ms",
             _at_least(MIN_WALL_TIME_MS, MAX_WALL_TIME_MS),
             "Wall-time limit of every execution, in milliseconds "
             f"({MIN_WALL_TIME_MS} to {MAX_WALL_TIME_MS})."),
    _Setting("--limits.mem-bytes", "memory_bytes", "memory_bytes",
             _at_least(MIN_MEMORY_BYTES, MAX_MEMORY_BYTES),
             "Memory limit of every execution, in bytes "
             f"({MIN_MEMORY_BYTES} to {MAX_MEMORY_BYTES})."),
    _Setting("--threshold-k", "threshold_k", "threshold_k", _at_least(1),
             "Benchmark inclusion threshold."),
    _Setting("--classification-table", "classification_table", "table", taxonomy.load_table),
    _Setting("--indicator", "indicator", "indicator_mode", _indicator,
             f"One of {', '.join(INDICATOR_MODES)}."),
    _Setting("--run-id", "run_id", "run_id", str),
    _Setting("--artifact-dir", "artifact_dir", "artifact_root", str,
             "Store each execution's prog.py, stdin.txt, outcome.json (its status, exception, "
             "wall time and peak memory), and all the program wrote to stdout.txt and stderr.txt."),
    _Setting("--degeneration.repeat-count", "degeneration.repeat_count", "repeat_count", integer),
    _Setting("--degeneration.block-size", "degeneration.block_size", "block_size", integer),
    _Setting("--degeneration.enum-count", "degeneration.enum_count", "enum_count", integer),
    _Setting("--degeneration.parse-valid-frac", "degeneration.parse_valid_frac",
             "parse_valid_frac", _fraction),
    _Setting("--degeneration.window-frac", "degeneration.window_frac", "window_frac", _fraction),
)

# Each subcommand: the `pipeline` function it runs (looked up when it
# runs), its input-file options and its help. A stage reading another
# stage's output takes those paths after the run configuration; a stage
# reading `_SOURCES` (a dataset plus completions) takes the configuration.
_SOURCES = ("dataset", "completions")
COMMANDS = {
    "validate": ("validate_stage", _SOURCES, "Gate, execute and classify: states.jsonl."),
    "identify": ("identify_stage", ("states",), "Aggregate: profiles.jsonl, frequencies.json."),
    "build-bench": ("build_bench_stage", ("profiles",), "Benchmark: benchmark.jsonl and CSV."),
    "evaluate": ("evaluate_stage", ("benchmark", "profiles"), "Hallucination rates: "
                 "evaluation.json, report.md, report.csv, report.json."),
    "report": ("report_stage", ("profiles",), "Co-occurrence summary: cooccurrence.json."),
    "pipeline": ("run_pipeline", _SOURCES, "All stages in sequence over one out dir."),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they leave through `main`'s one
    error path."""

    def error(self, message: str):
        raise ConfigError(message)


def _parser() -> _Parser:
    parser = _Parser(
        prog="haluscope",
        description="Execution-based detection, classification, and measurement of code "
        "hallucinations.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", metavar="PATH", help="JSON file of defaults.")
    for setting in RUN_SETTINGS:
        parser.add_argument(setting.flag, dest=setting.param, help=setting.help,
                            metavar=setting.key.rpartition("_")[2].upper())
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (_, inputs, help_text) in COMMANDS.items():
        command = commands.add_parser(name, help=help_text, description=help_text,
                                      allow_abbrev=False)
        for option in inputs:
            command.add_argument(f"--{option}", metavar="PATH")
    return parser


def _read_config(path: str) -> dict:
    """The config file's object. A key that no setting reads, a
    "degeneration" that is not an object, or a dataset or completions path
    that is not a string raises ConfigError."""
    config = read_json_object(path, ConfigError)
    section = config.get("degeneration", {})
    if not isinstance(section, dict):
        raise ConfigError("config key 'degeneration' must hold a JSON object")
    known = {setting.key.rpartition(".")[::2] for setting in RUN_SETTINGS}
    known |= {("", "dataset"), ("", "completions"), ("", "degeneration")}
    keys = [("", key) for key in config] + [("degeneration", key) for key in section]
    unknown = [".".join(filter(None, key)) for key in keys if key not in known]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(map(repr, unknown))}")
    for key in ("dataset", "completions"):
        if not isinstance(config.get(key, ""), str):
            raise ConfigError(f"bad value for {key!r}: expected a path, got {config[key]!r}")
    return config


def _config_value(config: dict, key: str):
    section, _, name = key.rpartition(".")
    return (config.get(section, {}) if section else config).get(name)


def _run_config(args: argparse.Namespace, config: dict, dataset: str | None = None,
                completions: str | None = None) -> pipeline.RunConfig:
    """Each setting takes its CLI value, else its config-file value, else
    is left to RunConfig's (or DegenerationConfig's) own default."""
    fields: dict = {}
    thresholds: dict = {}
    for setting in RUN_SETTINGS:
        value = getattr(args, setting.param)
        if value is None:
            value = _config_value(config, setting.key)
        if value is None:
            continue
        try:
            value = setting.parse(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {setting.key!r}: {exc}") from exc
        target = thresholds if setting.key.startswith("degeneration.") else fields
        target[setting.field] = value
    if thresholds:
        fields["degeneration_config"] = replace(degeneration.DEFAULT_CONFIG, **thresholds)
    return pipeline.RunConfig(
        dataset_path=dataset or config.get("dataset") or "",
        completions_path=completions or config.get("completions"),
        **fields,
    )


def _dispatch(args: argparse.Namespace) -> Path:
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    config = _read_config(args.config) if args.config else {}
    function, inputs, _ = COMMANDS[args.command]
    stage = getattr(pipeline, function)
    if inputs is not _SOURCES:
        return stage(_run_config(args, config), *(getattr(args, name) for name in inputs))
    run_config = _run_config(args, config, args.dataset, args.completions)
    if not run_config.dataset_path:
        raise ConfigError("a dataset is required (--dataset or config key 'dataset')")
    if not run_config.completions_path:
        raise ConfigError("a completions file is required "
                          "(--completions or config key 'completions')")
    return stage(run_config)


def _fail(exc: BaseException, exit_code: int) -> int:
    """Print `exc` as one JSON line on stderr; returns `exit_code`."""
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    try:
        print(f"wrote {_dispatch(_parser().parse_args(argv))}")
    except SystemExit as exc:  # --help, after printing it
        return exc.code
    except ConfigError as exc:
        return _fail(exc, _EXIT_USAGE)
    except (IngestionError, ValidationError, ReportError) as exc:
        return _fail(exc, _EXIT_DATA)
    except (HaluscopeError, OSError) as exc:
        return _fail(exc, _EXIT_FAULT)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
