"""Benchmark-subset construction: threshold cross-model hallucination
frequencies into per-subcategory task sets and export a manifest.

A task joins a subcategory's set when its observation count across all
evaluated models strictly exceeds the inclusion threshold. A task may sit
under several subcategories when it clears the threshold for each, and is
counted once under each: memberships are not deduplicated.
"""

from __future__ import annotations

import csv
import io
import logging
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import integer, list_of, read_field, read_jsonl, refuse_repeats, string
from .errors import ConfigError
from .taxonomy import (
    CATEGORY_ORDER,
    SUBCATEGORY_ORDER,
    Subcategory,
    subcategories_of,
)
from .aggregate import SampleProfile

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD_K = 2


@dataclass(frozen=True)
class BenchmarkEntry:
    task_id: str
    target_subcategory: Subcategory
    observed_frequency: int
    contributing_models: tuple[str, ...]

    @property
    def sample_count(self) -> int:
        """The entry's samples: one per contributing model, each model's
        one profile of the task."""
        return len(self.contributing_models)


@dataclass(frozen=True)
class BenchmarkManifest:
    entries_by_subcategory: Mapping[Subcategory, tuple[BenchmarkEntry, ...]]

    def entries(self) -> list[BenchmarkEntry]:
        result = []
        for subcategory in SUBCATEGORY_ORDER:
            result.extend(self.entries_by_subcategory.get(subcategory, ()))
        return result

    def sample_count(self, subcategory: Subcategory) -> int:
        """The subcategory's samples: one per contributing model of each of
        its entries, that model's profile of the entry's task. This is the
        one count of a subcategory's samples; the summary record and the
        HR report both read it."""
        return sum(e.sample_count for e in self.entries_by_subcategory.get(subcategory, ()))


def build(
    profiles: Iterable[SampleProfile], threshold_k: int = DEFAULT_THRESHOLD_K
) -> BenchmarkManifest:
    """Threshold cross-model frequencies into a manifest.

    Frequency of a subcategory for a task = number of (model, execution)
    observations of that subcategory across all models. Inclusion is
    strict (frequency > threshold_k). Output is deterministic: entries
    sorted by frequency descending, ties by task_id."""
    if threshold_k <= 0:
        raise ConfigError(f"threshold_k must be positive, got {threshold_k}")
    profiles = list(profiles)
    if not profiles:
        logger.warning("no profiles supplied; emitting an empty manifest")
    models = {p.model_id for p in profiles}
    if profiles and len(models) < 2:
        logger.warning(
            "benchmark built from a single model (%s); cross-model frequency "
            "induction assumes several",
            next(iter(models)),
        )

    freq: dict[Subcategory, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    contributors: dict[Subcategory, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
    for profile in profiles:
        for subcategory, count in profile.subcategory_counts().items():
            freq[subcategory][profile.task_id] += count
            contributors[subcategory][profile.task_id].add(profile.model_id)

    entries_by_subcategory: dict[Subcategory, tuple[BenchmarkEntry, ...]] = {}
    for subcategory in SUBCATEGORY_ORDER:
        ranked = sorted(
            freq.get(subcategory, {}).items(), key=lambda item: (-item[1], item[0])
        )
        entries = tuple(
            BenchmarkEntry(
                task_id=task_id,
                target_subcategory=subcategory,
                observed_frequency=count,
                contributing_models=tuple(sorted(contributors[subcategory][task_id])),
            )
            for task_id, count in ranked
            if count > threshold_k
        )
        entries_by_subcategory[subcategory] = entries
    return BenchmarkManifest(entries_by_subcategory=entries_by_subcategory)


def _category_counts(manifest: BenchmarkManifest) -> list[dict]:
    """The manifest's counts: each subcategory's tasks and samples, and
    each category's as the sum of its two subcategories' (a task under
    both counts twice, which keeps the additivity exact)."""
    categories = []
    for category in CATEGORY_ORDER:
        subcategories = []
        for subcategory in subcategories_of(category):
            entries = manifest.entries_by_subcategory.get(subcategory, ())
            subcategories.append({
                "subcategory": subcategory.value,
                "tasks": len(entries),
                "samples": manifest.sample_count(subcategory),
            })
        categories.append({
            "category": category.value,
            "tasks": sum(sub["tasks"] for sub in subcategories),
            "samples": sum(sub["samples"] for sub in subcategories),
            "subcategories": subcategories,
        })
    return categories


def manifest_records(
    manifest: BenchmarkManifest, run_ids: Iterable[str], threshold_k: int
) -> list[dict]:
    """The manifest's JSONL records: one summary header record, with the
    counts and the provenance (the run ids and the threshold `build` was
    given), then one record per entry."""
    summary = {
        "record_type": "summary",
        "provenance": {"run_ids": list(run_ids), "threshold_k": threshold_k},
        "categories": _category_counts(manifest),
    }
    return [summary] + [
        {
            "record_type": "entry",
            "task_id": entry.task_id,
            "target_subcategory": entry.target_subcategory.value,
            "observed_frequency": entry.observed_frequency,
            "contributing_models": list(entry.contributing_models),
        }
        for entry in manifest.entries()
    ]


def _manifest_record(obj: dict) -> BenchmarkEntry | None:
    """An entry record's entry; None for the summary record, whose counts
    and provenance are written for readers of the file and not read
    back."""
    record_type = obj.get("record_type")
    if record_type == "summary":
        return None
    if record_type == "entry":
        return BenchmarkEntry(
            task_id=read_field(obj, "task_id", string),
            target_subcategory=read_field(obj, "target_subcategory", Subcategory),
            observed_frequency=read_field(obj, "observed_frequency", integer),
            contributing_models=read_field(obj, "contributing_models", list_of(string), []),
        )
    raise ValueError(f"unknown record_type {record_type!r}")


def _record_key(record: BenchmarkEntry | None) -> tuple[str, str] | str:
    """An entry's (task_id, target_subcategory); the summary's is "summary",
    so a second summary record is a repeat too."""
    if record is None:
        return "summary"
    return record.task_id, record.target_subcategory.value


def load_manifest(path: str | Path) -> BenchmarkManifest:
    """Read a benchmark.jsonl file. A repeated (task_id,
    target_subcategory) entry, which `build` never writes and which would
    count its samples twice, or a second summary record, which would leave
    the file two provenances, raises ValidationError naming the line. The
    summary record is otherwise not read: the entries are the manifest."""
    grouped: dict[Subcategory, list[BenchmarkEntry]] = defaultdict(list)
    decode = refuse_repeats(_manifest_record, _record_key, "repeated benchmark entry")
    for record in read_jsonl(path, decode):
        if record is not None:
            grouped[record.target_subcategory].append(record)
    return BenchmarkManifest(
        entries_by_subcategory={sub: tuple(grouped.get(sub, ())) for sub in SUBCATEGORY_ORDER}
    )


def render_summary_csv(manifest: BenchmarkManifest) -> str:
    """The summary record as CSV for spreadsheet diffing: one row per
    subcategory with its parent category totals."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["category", "category_tasks", "category_samples", "subcategory", "tasks", "samples"]
    )
    for cat in _category_counts(manifest):
        for sub in cat["subcategories"]:
            writer.writerow([cat["category"], cat["tasks"], cat["samples"],
                             sub["subcategory"], sub["tasks"], sub["samples"]])
    return out.getvalue()
