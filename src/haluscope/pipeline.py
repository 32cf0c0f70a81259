"""File-mediated pipeline stages: validate -> identify -> build-bench ->
evaluate -> report.

Each stage reads and writes JSONL/JSON artifacts so intermediate states
can be audited or injected:

- validate gates, executes and classifies each completion in one pass
  and writes states.jsonl: a row per (completion, test), or one per gated
  completion, ordered by `Completion.key`, then test index, with
  `task_id`, `model_id`, `test_index`, `test_count`, `classification`,
  `status` and, for an executed one, `exception_name`;
- identify writes profiles.jsonl and frequencies.json;
- build-bench writes benchmark.jsonl and benchmark_summary.csv;
- evaluate writes evaluation.json, report.md, report.csv and report.json;
- report writes cooccurrence.json.

Outputs are deterministic: records are sorted, JSON keys are sorted, and
no stage consumes entropy or embeds timestamps or measurements, so
states.jsonl does not depend on the run or on `--jobs` (an execution's wall
time and peak memory go to its outcome.json under `--artifact-dir`).
Partially written files keep a .partial suffix.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from . import aggregate, bench, degeneration, report as report_mod, sandbox, taxonomy
from .corpus import (
    Completion,
    id_string,
    integer,
    json_object,
    load_completions,
    load_dataset,
    read_field,
    read_jsonl,
    refuse_repeats,
    refuse_shared_names,
    safe_name,
)
from .errors import ConfigError
from .taxonomy import ClassificationTable, ClassKind

logger = logging.getLogger(__name__)

STATES_FILE = "states.jsonl"
PROFILES_FILE = "profiles.jsonl"
FREQUENCIES_FILE = "frequencies.json"
BENCHMARK_FILE = "benchmark.jsonl"
BENCHMARK_SUMMARY_FILE = "benchmark_summary.csv"
EVALUATION_FILE = "evaluation.json"
REPORT_MD_FILE = "report.md"
REPORT_CSV_FILE = "report.csv"
REPORT_JSON_FILE = "report.json"
COOCCURRENCE_FILE = "cooccurrence.json"
NOT_EXECUTED = "not_executed"


@dataclass
class RunConfig:
    dataset_path: str
    completions_path: str | None = None
    out_dir: str = "out"
    interpreter: tuple[str, ...] | None = None
    wall_time_ms: int | None = None
    memory_bytes: int | None = None
    jobs: int = 1
    threshold_k: int = bench.DEFAULT_THRESHOLD_K
    classification_table: ClassificationTable = field(default_factory=lambda: taxonomy.DEFAULT_TABLE)
    degeneration_config: degeneration.DegenerationConfig = field(
        default_factory=lambda: degeneration.DEFAULT_CONFIG
    )
    indicator: str = "target"
    run_id: str = "run"
    artifact_dir: str | None = None


def atomic_write(path: Path, write: Callable[[Path], None]) -> None:
    """Write through a .partial file; the final name appears only on
    success, so interrupted commands leave a flagged partial output."""
    partial = path.with_name(path.name + ".partial")
    write(partial)
    os.replace(partial, path)


def _make_dir(path: str | Path) -> Path:
    """Create the directory `path` and its parents if missing. A path that
    cannot be a directory (a regular file, say) raises ConfigError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {path}: {exc}") from exc
    return path


def _write_text(path: Path, text: str) -> None:
    atomic_write(path, lambda p: p.write_text(text, encoding="utf-8"))


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_jsonl(path: Path, rows: Iterable[dict]) -> None:
    """One JSON object per line, keys sorted, through atomic_write."""

    def write(partial: Path) -> None:
        with partial.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    atomic_write(path, write)


def _record_from_row(row: dict) -> aggregate.ClassifiedRecord:
    return aggregate.ClassifiedRecord(
        task_id=read_field(row, "task_id", id_string),
        model_id=read_field(row, "model_id", id_string),
        test_index=read_field(row, "test_index", integer, None),
        test_count=read_field(row, "test_count", integer),
        classification=taxonomy.classification_from_dict(
            read_field(row, "classification", json_object)),
    )


def _artifact_name(completion: Completion) -> str:
    name = f"{completion.task_id}__{completion.model_id}"
    if completion.sample_index is not None:
        name += f"__s{completion.sample_index}"
    return safe_name(name)


def _artifact_dir(root: str | None, completion: Completion, index: int) -> str | None:
    """`<root>/<task>__<model>/test_NNN`, or `<root>/<task>__<model>__s<N>/test_NNN`
    for sample N, with unsafe characters replaced."""
    if root is None:
        return None
    return str(Path(root) / _artifact_name(completion) / f"test_{index:03d}")


def validate_stage(config: RunConfig) -> Path:
    """Detection pass: gate, execute and classify every completion of a
    task in the dataset, and write states.jsonl, a row per (completion,
    test) or one per gated completion, ordered by `Completion.key`, then
    test index. Every completion is gated before the requests of those the
    gate passes go to one `sandbox.execute_batch`.

    With `artifact_dir`, two (task, model, sample) keys of known tasks,
    gated or not, that would share an artifact directory raise
    ValidationError, and a root that cannot be created raises ConfigError,
    before anything runs. A fork-server fault raises HarnessFault, or the
    OSError of an interpreter that cannot start, once every program it
    started has ended; no states.jsonl is written then."""
    tasks = load_dataset(config.dataset_path, config.wall_time_ms, config.memory_bytes)
    completions = load_completions(config.completions_path)
    out_dir = _make_dir(config.out_dir)
    known = []
    for completion in completions:
        if completion.task_id in tasks:
            known.append(completion)
        else:
            logger.warning("skipping completion for unknown task_id %r (model %s)",
                           completion.task_id, completion.model_id)
    if config.artifact_dir is not None:  # pairs sharing a directory would mix their files
        refuse_shared_names((c.key, _artifact_name(c)) for c in known)
        _make_dir(config.artifact_dir)
    known.sort(key=lambda completion: completion.key)
    gate = config.degeneration_config
    verdicts = [degeneration.detect(c.source_code, c.truncated_at_limit, gate) for c in known]
    requests = [
        sandbox.ExecutionRequest(
            completion.source_code, test, tasks[completion.task_id].limits,
            _artifact_dir(config.artifact_dir, completion, index),
        )
        for completion, verdict in zip(known, verdicts)
        if verdict.kind is degeneration.DegenerationKind.NONE
        for index, test in enumerate(tasks[completion.task_id].test_cases)
    ]
    outcomes = iter(sandbox.execute_batch(requests, jobs=config.jobs,
                                          interpreter=config.interpreter))
    rows, faults = [], []
    for completion, verdict in zip(known, verdicts, strict=True):
        test_count = len(tasks[completion.task_id].test_cases)
        executed = verdict.kind is degeneration.DegenerationKind.NONE
        for index in range(test_count) if executed else (None,):
            outcome = None if index is None else next(outcomes)
            classification = taxonomy.classify(verdict, outcome, config.classification_table)
            if classification.kind is ClassKind.HARNESS_FAULT:
                faults.append(classification.cause)
            row = {
                "task_id": completion.task_id,
                "model_id": completion.model_id,
                "test_index": index,
                "test_count": test_count,
                "classification": taxonomy.classification_to_dict(classification),
                "status": NOT_EXECUTED,
            }
            if outcome is not None:
                row.update(status=outcome.status.value, exception_name=outcome.exception_name)
            rows.append(row)
    if faults:
        logger.warning("%d executions ended in harness faults, the first: %s",
                       len(faults), faults[0])

    states_path = out_dir / STATES_FILE
    write_jsonl(states_path, rows)
    return states_path


def load_states(path: str | Path) -> list[aggregate.ClassifiedRecord]:
    return read_jsonl(path, _record_from_row)


def identify_stage(config: RunConfig, states_path: str | Path | None = None) -> Path:
    """Aggregation pass: profiles.jsonl, and frequencies.json, every
    model's labels counted at both granularities in one fold."""
    out_dir = Path(config.out_dir)
    states = load_states(states_path or out_dir / STATES_FILE)
    _make_dir(out_dir)
    profiles = aggregate.build_profiles(states)

    profiles_path = out_dir / PROFILES_FILE
    write_jsonl(profiles_path, (aggregate.profile_to_dict(p) for p in profiles))

    _write_json(out_dir / FREQUENCIES_FILE, aggregate.frequency_list(profiles))
    return profiles_path


def load_profiles(path: str | Path) -> list[aggregate.SampleProfile]:
    """The profiles of a profiles.jsonl file, in file order. A second row
    for one (task, model) is a ValidationError naming its line, so build-bench,
    evaluate and report never count one profile twice or pick one."""
    return read_jsonl(path, refuse_repeats(
        aggregate.profile_from_dict, lambda p: (p.task_id, p.model_id), "repeated profile"))


def build_bench_stage(config: RunConfig, profiles_path: str | Path | None = None) -> Path:
    out_dir = Path(config.out_dir)
    profiles = load_profiles(profiles_path or out_dir / PROFILES_FILE)
    _make_dir(out_dir)
    manifest = bench.build(profiles, threshold_k=config.threshold_k)
    benchmark_path = out_dir / BENCHMARK_FILE
    write_jsonl(benchmark_path, bench.manifest_records(
        manifest, run_ids=(config.run_id,), threshold_k=config.threshold_k))
    _write_text(out_dir / BENCHMARK_SUMMARY_FILE, bench.render_summary_csv(manifest))
    return benchmark_path


def evaluate_stage(
    config: RunConfig,
    benchmark_path: str | Path | None = None,
    profiles_path: str | Path | None = None,
) -> Path:
    """Score every model found in the profiles against the benchmark, in
    one `evaluate_model` call, and render the report over the manifest's
    sample counts: evaluation.json, report.md, report.csv and report.json."""
    out_dir = Path(config.out_dir)
    manifest = bench.load_manifest(benchmark_path or out_dir / BENCHMARK_FILE)
    profiles = load_profiles(profiles_path or out_dir / PROFILES_FILE)
    _make_dir(out_dir)
    hallucinated, crosshits = report_mod.evaluate_model(
        manifest, profiles, indicator_mode=config.indicator
    )
    hr_report = report_mod.render_report(
        {s: manifest.sample_count(s) for s in taxonomy.SUBCATEGORY_ORDER}, hallucinated
    )

    _write_json(
        out_dir / EVALUATION_FILE,
        {
            "indicator_mode": config.indicator,
            "report": hr_report,
            "crosshits": crosshits,
        },
    )
    _write_text(
        out_dir / REPORT_MD_FILE,
        report_mod.render_markdown(hr_report)
        + report_mod.render_crosshits_markdown(crosshits),
    )
    _write_text(out_dir / REPORT_CSV_FILE, report_mod.render_csv(hr_report))
    _write_text(out_dir / REPORT_JSON_FILE, report_mod.render_json(hr_report))
    return out_dir / EVALUATION_FILE


def report_stage(config: RunConfig, profiles_path: str | Path | None = None) -> Path:
    """Co-occurrence pass: cooccurrence.json, one subcategory matrix and
    cross-task rate per model, from one `cooccurrence` call over every
    model's profiles."""
    out_dir = Path(config.out_dir)
    profiles = load_profiles(profiles_path or out_dir / PROFILES_FILE)
    _make_dir(out_dir)
    _write_json(out_dir / COOCCURRENCE_FILE, aggregate.cooccurrence(profiles))
    return out_dir / COOCCURRENCE_FILE


def run_pipeline(config: RunConfig) -> Path:
    """Single-shot convenience: all five stages over one out_dir. Equivalent
    to running the stages separately over the same files."""
    states = validate_stage(config)
    profiles = identify_stage(config, states)
    benchmark = build_bench_stage(config, profiles)
    evaluation = evaluate_stage(config, benchmark, profiles)
    report_stage(config, profiles)
    return evaluation
