"""Command-line surface: each pipeline stage as a subcommand plus a
single-shot `pipeline` convenience.

Exit codes: 0 success, 1 usage or configuration, 2 data validation,
3 harness fault. Failures emit machine-readable JSON on stderr.
"""

from __future__ import annotations

import json
import logging
import shlex
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import click

from . import degeneration, gateway, pipeline, taxonomy
from .corpus import load_dataset, with_limit_overrides
from .errors import (
    ConfigError,
    HaluscopeError,
    HarnessFault,
    IngestionError,
    ProviderError,
    ReportError,
    TemplateError,
    ValidationError,
)
from .report import INDICATOR_MODES

logger = logging.getLogger(__name__)

_EXIT_USAGE = 1
_EXIT_DATA = 2
_EXIT_FAULT = 3


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def _boolean(value) -> bool:
    """A JSON boolean; bool() would read the string "false" as true."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _indicator(value) -> str:
    if value not in INDICATOR_MODES:
        raise ValueError(f"expected one of {', '.join(INDICATOR_MODES)}, got {value!r}")
    return value


def _command(value) -> tuple[str, ...]:
    """An interpreter command: a shell-style string or a list of words."""
    return tuple(shlex.split(value)) if isinstance(value, str) else tuple(value)


@dataclass(frozen=True)
class _Setting:
    """A group option that sets one run setting. Its parameter name is its
    config-file key; a "degeneration." key names a field of the config
    file's "degeneration" object. `field` is the RunConfig field it sets,
    or the DegenerationConfig field for a degeneration key. `parse`
    converts the CLI or config-file value into the field's value."""

    flag: str
    key: str
    field: str
    parse: Callable[[Any], Any]
    click_type: Any = None
    help: str | None = None
    is_flag: bool = False

    @property
    def param(self) -> str:
        return self.key.replace(".", "_")


RUN_SETTINGS = (
    _Setting("--out-dir", "out_dir", "out_dir", str, click.Path(), "Artifact directory."),
    _Setting("--jobs", "jobs", "jobs", int, help="Parallel sandbox workers."),
    _Setting("--interpreter", "interpreter", "interpreter", _command, str,
             "Interpreter command, e.g. 'python3 -u'."),
    _Setting("--limits.wall-ms", "wall_time_ms", "wall_time_ms", int),
    _Setting("--limits.mem-bytes", "memory_bytes", "memory_bytes", int),
    _Setting("--threshold-k", "threshold_k", "threshold_k", int,
             help="Benchmark inclusion threshold."),
    _Setting("--classification-table", "classification_table", "table", taxonomy.load_table,
             click.Path()),
    _Setting("--indicator", "indicator", "indicator_mode", _indicator,
             click.Choice(INDICATOR_MODES)),
    _Setting("--fail-fast", "fail_fast", "fail_fast", _boolean, is_flag=True),
    _Setting("--run-id", "run_id", "run_id", str),
    _Setting("--artifact-dir", "artifact_dir", "artifact_root", str, click.Path(),
             "Store stdin/stdout/stderr/outcome.json per execution."),
    _Setting("--degeneration.repeat-count", "degeneration.repeat_count", "repeat_count", int),
    _Setting("--degeneration.block-size", "degeneration.block_size", "block_size", int),
    _Setting("--degeneration.enum-count", "degeneration.enum_count", "enum_count", int),
    _Setting("--degeneration.parse-valid-frac", "degeneration.parse_valid_frac",
             "parse_valid_frac", float),
    _Setting("--degeneration.window-frac", "degeneration.window_frac", "window_frac", float),
)


def _config_value(config: dict, key: str):
    section, _, name = key.rpartition(".")
    scope = config.get(section, {}) if section else config
    if not isinstance(scope, dict):
        raise ConfigError(f"config key {section!r} must hold a JSON object")
    return scope.get(name)


def _run_config(
    ctx: click.Context, dataset: str | None, completions: str | None
) -> pipeline.RunConfig:
    """Each setting takes its CLI value, else its config-file value, else
    is left to RunConfig's (or DegenerationConfig's) own default."""
    options, config = ctx.obj
    fields: dict = {}
    thresholds: dict = {}
    for setting in RUN_SETTINGS:
        value = options[setting.param]
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
        dataset_path=str(dataset or config.get("dataset") or ""),
        completions_path=completions or config.get("completions"),
        **fields,
    )


def _with_run_settings(command):
    for setting in reversed(RUN_SETTINGS):
        command = click.option(
            setting.flag,
            setting.param,
            type=None if setting.is_flag else setting.click_type or setting.parse,
            is_flag=setting.is_flag,
            default=None,
            help=setting.help,
        )(command)
    return command


@click.group()
@click.option("--config", "config_path", type=click.Path(), help="JSON file of defaults.")
@_with_run_settings
@click.option("-v", "--verbose", is_flag=True, default=False)
@click.pass_context
def cli(ctx, config_path, verbose, **options):
    """Execution-based detection, classification, and measurement of code
    hallucinations."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    ctx.obj = (options, _load_config_file(config_path))


def _load_provider(path: str) -> tuple[gateway.ProviderConfig, str]:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read provider config {path}: {exc}") from exc
    template = obj.pop("template", gateway.DEFAULT_TEMPLATE)
    try:
        provider = gateway.ProviderConfig(**obj)
    except TypeError as exc:
        raise ConfigError(f"bad provider config {path}: {exc}") from exc
    return provider, template


def _fetch_completions(config: pipeline.RunConfig, provider_path: str) -> str:
    """Fetch a completion for every dataset task and write them to
    completions.jsonl inside the out dir."""
    from .corpus import completion_to_dict

    provider, template = _load_provider(provider_path)
    dataset = load_dataset(config.dataset_path)
    dataset = with_limit_overrides(dataset, config.wall_time_ms, config.memory_bytes)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "completions.jsonl"

    def write(path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for task in dataset.tasks:
                instruction = gateway.render_instruction(task.question, task.limits, template)
                completion = gateway.fetch_completion(task, provider, instruction)
                fh.write(json.dumps(completion_to_dict(completion), sort_keys=True) + "\n")

    pipeline.atomic_write(target, write)
    return str(target)


def _source_config(
    ctx: click.Context, dataset: str | None, completions: str | None, provider_path: str | None
) -> pipeline.RunConfig:
    """Run configuration of a command that detects over a dataset, with
    completions read from a file or fetched through a provider."""
    if completions and provider_path:
        raise ConfigError("--completions and --provider are mutually exclusive")
    config = _run_config(ctx, dataset, completions)
    if not config.dataset_path:
        raise ConfigError("a dataset is required (--dataset or config key 'dataset')")
    if provider_path:
        config.completions_path = _fetch_completions(config, provider_path)
    return config


@cli.command()
@click.option("--dataset", type=click.Path(exists=True), default=None)
@click.option("--completions", type=click.Path(exists=True), default=None)
@click.option("--provider", "provider_path", type=click.Path(exists=True), default=None,
              help="Provider config JSON; fetches completions before validating.")
@click.pass_context
def validate(ctx, dataset, completions, provider_path):
    """Detection pass: degeneration gate, sandboxed execution,
    classification. Writes states.jsonl."""
    path = pipeline.validate_stage(_source_config(ctx, dataset, completions, provider_path))
    click.echo(f"wrote {path}")


@cli.command()
@click.option("--dataset", type=click.Path(exists=True), default=None)
@click.option("--states", type=click.Path(exists=True), default=None)
@click.pass_context
def identify(ctx, dataset, states):
    """Aggregation pass: profiles.jsonl and frequencies.json."""
    config = _run_config(ctx, dataset, None)
    path = pipeline.identify_stage(config, states)
    click.echo(f"wrote {path}")


@cli.command("build-bench")
@click.option("--dataset", type=click.Path(exists=True), default=None)
@click.option("--profiles", type=click.Path(exists=True), default=None)
@click.pass_context
def build_bench(ctx, dataset, profiles):
    """Construction pass: benchmark.jsonl and its summary CSV."""
    config = _run_config(ctx, dataset, None)
    path = pipeline.build_bench_stage(config, profiles)
    click.echo(f"wrote {path}")


@cli.command()
@click.option("--dataset", type=click.Path(exists=True), default=None)
@click.option("--benchmark", type=click.Path(exists=True), default=None)
@click.option("--profiles", type=click.Path(exists=True), default=None)
@click.pass_context
def evaluate(ctx, dataset, benchmark, profiles):
    """Score models against a benchmark manifest; writes evaluation.json,
    report.md, report.csv and report.json."""
    config = _run_config(ctx, dataset, None)
    path = pipeline.evaluate_stage(config, benchmark, profiles)
    click.echo(f"wrote {path}")


@cli.command()
@click.option("--dataset", type=click.Path(exists=True), default=None)
@click.option("--profiles", type=click.Path(exists=True), default=None)
@click.pass_context
def report(ctx, dataset, profiles):
    """Co-occurrence summary: cooccurrence.json. The report files come
    from evaluate."""
    config = _run_config(ctx, dataset, None)
    path = pipeline.report_stage(config, profiles)
    click.echo(f"wrote {path}")


@cli.command("pipeline")
@click.option("--dataset", type=click.Path(exists=True), default=None)
@click.option("--completions", type=click.Path(exists=True), default=None)
@click.option("--provider", "provider_path", type=click.Path(exists=True), default=None)
@click.pass_context
def pipeline_cmd(ctx, dataset, completions, provider_path):
    """All stages in sequence over one artifact directory."""
    path = pipeline.run_pipeline(_source_config(ctx, dataset, completions, provider_path))
    click.echo(f"wrote {path}")


def _error_json(exc: BaseException, exit_code: int) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except (ConfigError, TemplateError) as exc:
        _error_json(exc, _EXIT_USAGE)
        return _EXIT_USAGE
    except click.UsageError as exc:
        _error_json(exc, _EXIT_USAGE)
        return _EXIT_USAGE
    except (IngestionError, ValidationError, ReportError) as exc:
        _error_json(exc, _EXIT_DATA)
        return _EXIT_DATA
    except (ProviderError, HarnessFault) as exc:
        _error_json(exc, _EXIT_FAULT)
        return _EXIT_FAULT
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        return _EXIT_USAGE
    except HaluscopeError as exc:
        _error_json(exc, _EXIT_FAULT)
        return _EXIT_FAULT
    except OSError as exc:
        _error_json(exc, _EXIT_FAULT)
        return _EXIT_FAULT
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
