"""Aggregation over classified observations: per-sample label profiles,
hallucination frequency lists, and cross-task co-occurrence statistics.

Everything here is a deterministic fold; results are independent of input
ordering.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .corpus import boolean, integer, string
from .taxonomy import (
    SUBCATEGORY_ORDER,
    Classification,
    ClassKind,
    Subcategory,
    classification_from_dict,
    classification_to_dict,
)

UNMAPPED_KEY = "unmapped"


@dataclass(frozen=True)
class ClassifiedRecord:
    """One classified observation. `test_index` is None for the single
    pre-execution record a degenerate completion produces."""

    task_id: str
    model_id: str
    test_index: int | None
    test_count: int
    classification: Classification


@dataclass(frozen=True)
class SampleProfile:
    """Label multiset of one (task, model) sample across its executions.

    When executed, len(labels) + pass_count + fault_count == test_count;
    a degenerate sample carries exactly one label and skips execution."""

    task_id: str
    model_id: str
    labels: tuple[Classification, ...]
    pass_count: int
    fault_count: int
    test_count: int
    degenerate: bool = False

    def subcategory_counts(self) -> Counter:
        counts: Counter = Counter()
        for entry in self.labels:
            if entry.subcategory is not None:
                counts[entry.subcategory] += 1
        return counts

    def subcategories(self) -> set[Subcategory]:
        return set(self.subcategory_counts())

    def has_subcategory(self, subcategory: Subcategory) -> bool:
        return any(entry.subcategory is subcategory for entry in self.labels)


@dataclass(frozen=True)
class FrequencyEntry:
    key: str
    count: int
    share: float


@dataclass(frozen=True)
class FrequencyList:
    entries: tuple[FrequencyEntry, ...]


@dataclass(frozen=True)
class CooccurrenceMatrix:
    """8x8 symmetric task-count matrix. counts[i][j] is the number of tasks
    whose profile exhibits both subcategory i and j; the diagonal counts
    tasks exhibiting the subcategory at all."""

    counts: tuple[tuple[int, ...], ...]
    order: tuple[Subcategory, ...] = field(default=SUBCATEGORY_ORDER)

    def to_dict(self) -> dict:
        return {
            "order": [s.value for s in self.order],
            "counts": [list(row) for row in self.counts],
        }


def build_profiles(
    records: Iterable[ClassifiedRecord],
) -> list[SampleProfile]:
    """Fold classified records into one profile per (task, model), ordered
    by (task_id, model_id)."""
    grouped: dict[tuple[str, str], list[ClassifiedRecord]] = defaultdict(list)
    for record in records:
        grouped[(record.task_id, record.model_id)].append(record)

    profiles = []
    for (task_id, model_id), group in sorted(grouped.items()):
        degenerate = any(r.test_index is None for r in group)
        labels: list[Classification] = []
        pass_count = 0
        fault_count = 0
        for record in group:
            kind = record.classification.kind
            if kind is ClassKind.PASS:
                pass_count += 1
            elif kind is ClassKind.HARNESS_FAULT:
                fault_count += 1
            else:
                labels.append(record.classification)
        profiles.append(
            SampleProfile(
                task_id=task_id,
                model_id=model_id,
                labels=tuple(labels),
                pass_count=pass_count,
                fault_count=fault_count,
                test_count=max(r.test_count for r in group),
                degenerate=degenerate,
            )
        )
    return profiles


def frequency_list(profiles: Iterable[SampleProfile], granularity: str = "subcategory") -> FrequencyList:
    """Count hallucination observations across profiles at either
    "subcategory" or "raw_cause" granularity. Both groupings run over the
    same label multiset, so their totals agree."""
    if granularity not in ("subcategory", "raw_cause"):
        raise ValueError(f"unknown granularity {granularity!r}")
    counts: Counter = Counter()
    for profile in profiles:
        for entry in profile.labels:
            if granularity == "raw_cause":
                counts[entry.cause] += 1
            elif entry.subcategory is not None:
                counts[entry.subcategory.value] += 1
            else:
                counts[UNMAPPED_KEY] += 1
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return FrequencyList(
        entries=tuple(
            FrequencyEntry(key=key, count=count, share=count / total)
            for key, count in ordered
        )
    )


def cooccurrence(profiles: Iterable[SampleProfile]) -> tuple[CooccurrenceMatrix, float]:
    """Co-occurrence of subcategories across one model's tasks.

    cross_task_rate = tasks exhibiting >= 2 distinct subcategories divided
    by tasks exhibiting >= 1 (0.0 when nothing hallucinates)."""
    profiles = list(profiles)
    models = {p.model_id for p in profiles}
    if len(models) > 1:
        raise ValueError(f"cooccurrence expects one model, got {sorted(models)}")

    index = {sub: i for i, sub in enumerate(SUBCATEGORY_ORDER)}
    size = len(SUBCATEGORY_ORDER)
    counts = [[0] * size for _ in range(size)]
    hallucinating = 0
    multi = 0
    for profile in profiles:
        subs = sorted(profile.subcategories(), key=lambda s: index[s])
        if not subs:
            continue
        hallucinating += 1
        if len(subs) >= 2:
            multi += 1
        for a_pos, a in enumerate(subs):
            counts[index[a]][index[a]] += 1
            for b in subs[a_pos + 1 :]:
                counts[index[a]][index[b]] += 1
                counts[index[b]][index[a]] += 1
    rate = multi / hallucinating if hallucinating else 0.0
    return CooccurrenceMatrix(counts=tuple(tuple(row) for row in counts)), rate


def format_rate(fraction: float) -> str:
    """Render a fraction as a percent string, e.g. 0.0107 -> "1.07%"."""
    return f"{fraction * 100:.2f}%"


def frequency_list_to_dict(freq: FrequencyList) -> list[dict]:
    return [
        {"key": e.key, "count": e.count, "share": e.share} for e in freq.entries
    ]


def profile_to_dict(profile: SampleProfile) -> dict:
    return {
        "task_id": profile.task_id,
        "model_id": profile.model_id,
        "labels": [classification_to_dict(c) for c in profile.labels],
        "pass_count": profile.pass_count,
        "fault_count": profile.fault_count,
        "test_count": profile.test_count,
        "degenerate": profile.degenerate,
    }


def profile_from_dict(obj: dict) -> SampleProfile:
    return SampleProfile(
        task_id=string(obj["task_id"]),
        model_id=string(obj["model_id"]),
        labels=tuple(classification_from_dict(c) for c in obj.get("labels", [])),
        pass_count=integer(obj.get("pass_count", 0)),
        fault_count=integer(obj.get("fault_count", 0)),
        test_count=integer(obj["test_count"]),
        degenerate=boolean(obj.get("degenerate", False)),
    )


def profiles_by_model(profiles: Iterable[SampleProfile]) -> Mapping[str, list[SampleProfile]]:
    grouped: dict[str, list[SampleProfile]] = defaultdict(list)
    for profile in profiles:
        grouped[profile.model_id].append(profile)
    return dict(grouped)
