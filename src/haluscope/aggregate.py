"""Aggregation over classified observations: per-sample label profiles,
hallucination frequency lists, and cross-task co-occurrence statistics.

Everything here is a deterministic fold; results are independent of input
ordering. `frequency_list` and `cooccurrence` each take every model's
profiles in one call and return their file's payload.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

from .corpus import boolean, id_string, integer, json_object, list_of, read_field
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


def frequency_list(profiles: Iterable[SampleProfile]) -> dict[str, list[dict]]:
    """frequencies.json's payload: every model's hallucination labels
    counted by subcategory (`unmapped` for a label with none) and by raw
    cause in one pass, so the totals agree, each as rows (`key`, `count`,
    `share`), most frequent first."""
    counts = {"subcategory": Counter(), "raw_cause": Counter()}
    for profile in profiles:
        for entry in profile.labels:
            subcategory = entry.subcategory.value if entry.subcategory else UNMAPPED_KEY
            counts["subcategory"][subcategory] += 1
            counts["raw_cause"][entry.cause] += 1
    total = counts["raw_cause"].total()

    def rows(tally: Counter) -> list[dict]:
        ordered = sorted(tally.items(), key=lambda item: (-item[1], item[0]))
        return [{"key": key, "count": count, "share": count / total} for key, count in ordered]
    return {granularity: rows(tally) for granularity, tally in counts.items()}


def cooccurrence(profiles: Iterable[SampleProfile]) -> dict[str, dict]:
    """cooccurrence.json's payload: for each model, the co-occurrence of
    subcategories across its tasks as a `matrix` whose `counts[i][j]` is
    the number of tasks whose profile exhibits both `order[i]` and
    `order[j]`, so the diagonal counts tasks exhibiting the subcategory at
    all, and its `cross_task_rate`: tasks exhibiting >= 2 distinct
    subcategories divided by tasks exhibiting >= 1 (0.0 when nothing
    hallucinates), also as a percent string (0.0107 -> "1.07%")."""
    observed: dict[str, list[set[Subcategory]]] = defaultdict(list)
    for profile in profiles:
        observed[profile.model_id].append(profile.subcategories())

    index = {sub: i for i, sub in enumerate(SUBCATEGORY_ORDER)}
    payload = {}
    for model_id, task_subcategories in sorted(observed.items()):
        counts = [[0] * len(SUBCATEGORY_ORDER) for _ in SUBCATEGORY_ORDER]
        hallucinating = [subs for subs in task_subcategories if subs]
        for subs in hallucinating:
            for a in subs:
                for b in subs:
                    counts[index[a]][index[b]] += 1
        multi = sum(len(subs) >= 2 for subs in hallucinating)
        rate = multi / len(hallucinating) if hallucinating else 0.0
        payload[model_id] = {
            "matrix": {"order": [s.value for s in SUBCATEGORY_ORDER], "counts": counts},
            "cross_task_rate": rate,
            "cross_task_rate_percent": f"{rate * 100:.2f}%",
        }
    return payload


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
        task_id=read_field(obj, "task_id", id_string),
        model_id=read_field(obj, "model_id", id_string),
        labels=tuple(map(classification_from_dict,
                         read_field(obj, "labels", list_of(json_object), []))),
        pass_count=read_field(obj, "pass_count", integer, 0),
        fault_count=read_field(obj, "fault_count", integer, 0),
        test_count=read_field(obj, "test_count", integer),
        degenerate=read_field(obj, "degenerate", boolean, False),
    )

