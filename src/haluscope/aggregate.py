"""Aggregation over classified observations: per-sample label profiles,
hallucination frequency lists, and cross-task co-occurrence statistics.

Everything here is a deterministic fold; results are independent of input
ordering.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import boolean, integer, json_object, list_of, read_field, string
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


def frequency_list(profiles: Iterable[SampleProfile], granularity: str = "subcategory") -> list[dict]:
    """Count hallucination observations across profiles at either
    "subcategory" or "raw_cause" granularity, as frequencies.json rows
    (`key`, `count`, `share`), most frequent first. Both groupings run over
    the same label multiset, so their totals agree."""
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
    return [{"key": key, "count": count, "share": count / total} for key, count in ordered]


def cooccurrence(profiles: Iterable[SampleProfile]) -> tuple[dict, float]:
    """Co-occurrence of subcategories across one model's tasks, as the
    cooccurrence.json matrix: `counts[i][j]` is the number of tasks whose
    profile exhibits both `order[i]` and `order[j]`, so the diagonal counts
    tasks exhibiting the subcategory at all.

    cross_task_rate = tasks exhibiting >= 2 distinct subcategories divided
    by tasks exhibiting >= 1 (0.0 when nothing hallucinates)."""
    profiles = list(profiles)
    models = {p.model_id for p in profiles}
    if len(models) > 1:
        raise ValueError(f"cooccurrence expects one model, got {sorted(models)}")

    index = {sub: i for i, sub in enumerate(SUBCATEGORY_ORDER)}
    counts = [[0] * len(SUBCATEGORY_ORDER) for _ in SUBCATEGORY_ORDER]
    hallucinating = 0
    multi = 0
    for profile in profiles:
        subs = profile.subcategories()
        if not subs:
            continue
        hallucinating += 1
        if len(subs) >= 2:
            multi += 1
        for a in subs:
            for b in subs:
                counts[index[a]][index[b]] += 1
    rate = multi / hallucinating if hallucinating else 0.0
    return {"order": [s.value for s in SUBCATEGORY_ORDER], "counts": counts}, rate


def format_rate(fraction: float) -> str:
    """Render a fraction as a percent string, e.g. 0.0107 -> "1.07%"."""
    return f"{fraction * 100:.2f}%"


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
        task_id=read_field(obj, "task_id", string),
        model_id=read_field(obj, "model_id", string),
        labels=tuple(map(classification_from_dict,
                         read_field(obj, "labels", list_of(json_object), []))),
        pass_count=read_field(obj, "pass_count", integer, 0),
        fault_count=read_field(obj, "fault_count", integer, 0),
        test_count=read_field(obj, "test_count", integer),
        degenerate=read_field(obj, "degenerate", boolean, False),
    )


def profiles_by_model(profiles: Iterable[SampleProfile]) -> Mapping[str, list[SampleProfile]]:
    grouped: dict[str, list[SampleProfile]] = defaultdict(list)
    for profile in profiles:
        grouped[profile.model_id].append(profile)
    return dict(grouped)
