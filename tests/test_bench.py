from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haluscope.aggregate import SampleProfile
from haluscope.bench import (
    BenchmarkManifest,
    build,
    load_manifest,
    manifest_records,
    render_summary_csv,
)
from haluscope.errors import ConfigError
from haluscope.pipeline import write_jsonl
from haluscope.taxonomy import (
    CATEGORY_ORDER,
    SUBCATEGORY_ORDER,
    Category,
    Classification,
    ClassKind,
    Subcategory,
    category_of,
    subcategories_of,
)

IDENTITY = Subcategory.IDENTITY


def _profile(task, model, subs):
    labels = tuple(
        Classification(kind=ClassKind.LABELED, cause=s.value, subcategory=s)
        for s in subs
    )
    return SampleProfile(
        task_id=task,
        model_id=model,
        labels=labels,
        pass_count=0,
        fault_count=0,
        test_count=max(len(labels), 1),
    )


def _identity_heavy_profiles():
    # task A: 5 identity observations, B: 2, C: 0 (spread over two models)
    return [
        _profile("A", "m1", [IDENTITY] * 3),
        _profile("A", "m2", [IDENTITY] * 2),
        _profile("B", "m1", [IDENTITY]),
        _profile("B", "m2", [IDENTITY]),
        _profile("C", "m1", []),
        _profile("C", "m2", []),
    ]


class TestBuild:
    def test_strict_threshold(self):
        manifest = build(_identity_heavy_profiles(), threshold_k=2)
        entries = manifest.entries_by_subcategory[IDENTITY]
        # A has 5 > 2; B sits exactly at 2 and is excluded by strict "exceeds"
        assert [e.task_id for e in entries] == ["A"]
        assert entries[0].observed_frequency == 5
        assert entries[0].contributing_models == ("m1", "m2")

    def test_boundary_inclusion_with_lower_threshold(self):
        manifest = build(_identity_heavy_profiles(), threshold_k=1)
        entries = manifest.entries_by_subcategory[IDENTITY]
        assert [e.task_id for e in entries] == ["A", "B"]

    def test_sorted_by_frequency_then_task_id(self):
        profiles = [
            _profile("z", "m1", [IDENTITY] * 3),
            _profile("a", "m2", [IDENTITY] * 3),
            _profile("big", "m1", [IDENTITY] * 9),
        ]
        manifest = build(profiles, threshold_k=1)
        entries = manifest.entries_by_subcategory[IDENTITY]
        assert [e.task_id for e in entries] == ["big", "a", "z"]

    def test_threshold_must_be_positive(self):
        with pytest.raises(ConfigError):
            build([], threshold_k=0)

    def test_empty_profiles_empty_manifest(self, caplog):
        with caplog.at_level("WARNING"):
            manifest = build([], threshold_k=2)
        assert manifest.entries() == []
        assert "empty manifest" in caplog.text

    def test_single_model_warns(self, caplog):
        with caplog.at_level("WARNING"):
            build([_profile("A", "only", [IDENTITY] * 5)], threshold_k=1)
        assert "single model" in caplog.text

    def test_multi_membership_allowed(self):
        profiles = [
            _profile("A", "m1", [IDENTITY] * 3 + [Subcategory.LOGIC_DEVIATION] * 3),
            _profile("A", "m2", [IDENTITY] * 2 + [Subcategory.LOGIC_DEVIATION] * 2),
        ]
        manifest = build(profiles, threshold_k=2)
        assert [e.task_id for e in manifest.entries_by_subcategory[IDENTITY]] == ["A"]
        assert [
            e.task_id for e in manifest.entries_by_subcategory[Subcategory.LOGIC_DEVIATION]
        ] == ["A"]
        assert Counter(e.task_id for e in manifest.entries()) == {"A": 2}

    def test_brute_force_filter_and_sort_oracle(self):
        # synthetic 50-task corpus vs an independent oracle built from the
        # raw observation list
        rng = random.Random(1234)
        observations = []  # (task, model, subcategory)
        profiles = []
        for model in ("m1", "m2", "m3"):
            for t in range(50):
                task = f"task-{t:02d}"
                subs = []
                for _ in range(rng.randint(0, 6)):
                    sub = rng.choice(SUBCATEGORY_ORDER)
                    subs.append(sub)
                    observations.append((task, model, sub))
                profiles.append(_profile(task, model, subs))

        for threshold in (1, 2, 3):
            manifest = build(profiles, threshold_k=threshold)
            for subcategory in SUBCATEGORY_ORDER:
                oracle_freq: dict[str, int] = defaultdict(int)
                for task, _, sub in observations:
                    if sub is subcategory:
                        oracle_freq[task] += 1
                oracle_entries = sorted(
                    ((task, n) for task, n in oracle_freq.items() if n > threshold),
                    key=lambda item: (-item[1], item[0]),
                )
                got = [
                    (e.task_id, e.observed_frequency)
                    for e in manifest.entries_by_subcategory[subcategory]
                ]
                assert got == oracle_entries

    def test_monotonicity_in_threshold(self):
        rng = random.Random(99)
        profiles = [
            _profile(f"t{t}", m, [rng.choice(SUBCATEGORY_ORDER) for _ in range(rng.randint(0, 5))])
            for m in ("m1", "m2")
            for t in range(30)
        ]
        previous: set | None = None
        for threshold in (1, 2, 3, 4, 5):
            manifest = build(profiles, threshold_k=threshold)
            included = {
                (e.target_subcategory, e.task_id) for e in manifest.entries()
            }
            if previous is not None:
                assert included <= previous
            previous = included


class TestManifestStats:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        threshold=st.integers(min_value=1, max_value=4),
    )
    def test_category_additivity_property(self, seed, threshold):
        rng = random.Random(seed)
        profiles = [
            _profile(
                f"t{t}",
                f"m{m}",
                [rng.choice(SUBCATEGORY_ORDER) for _ in range(rng.randint(0, 6))],
            )
            for m in range(3)
            for t in range(15)
        ]
        manifest = build(profiles, threshold_k=threshold)
        expected = _stats(manifest)
        for category in _summary(manifest)["categories"]:
            subs = category["subcategories"]
            assert [sub["subcategory"] for sub in subs] == [
                s.value for s in subcategories_of(Category(category["category"]))
            ]
            for sub in subs:
                assert (sub["tasks"], sub["samples"]) == expected[Subcategory(sub["subcategory"])]
            assert category["tasks"] == sum(sub["tasks"] for sub in subs)
            assert category["samples"] == sum(sub["samples"] for sub in subs)

    def test_sample_counts_are_contributing_models(self):
        manifest = build(_identity_heavy_profiles(), threshold_k=2)
        (naming,) = [c for c in _summary(manifest)["categories"] if c["category"] == "naming"]
        assert naming["subcategories"][0] == {
            "subcategory": "identity", "tasks": 1, "samples": 2  # task A, models m1+m2
        }


def _summary(manifest: BenchmarkManifest) -> dict:
    """The summary record the manifest is written with."""
    (summary,) = [r for r in manifest_records(manifest, ("r",), 2)
                  if r["record_type"] == "summary"]
    return summary


def _stats(manifest: BenchmarkManifest) -> dict[Subcategory, tuple[int, int]]:
    """(task_count, sample_count) per subcategory, counted from the entries."""
    stats = {s: (0, 0) for s in SUBCATEGORY_ORDER}
    for entry in manifest.entries():
        tasks, samples = stats[entry.target_subcategory]
        stats[entry.target_subcategory] = (tasks + 1, samples + len(entry.contributing_models))
    return stats


def export_manifest(
    manifest: BenchmarkManifest, path: Path, run_ids=("r",), threshold_k: int = 2
) -> None:
    write_jsonl(path, manifest_records(manifest, run_ids, threshold_k))


class TestExport:
    def test_round_trip(self, tmp_path):
        manifest = build(_identity_heavy_profiles(), threshold_k=1)
        path = tmp_path / "benchmark.jsonl"
        export_manifest(manifest, path, ("run-7",), 1)
        assert load_manifest(path) == manifest
        summary = json.loads(path.read_text().splitlines()[0])
        assert summary["provenance"] == {"run_ids": ["run-7"], "threshold_k": 1}

    def test_summary_record_is_not_read_back(self, tmp_path):
        # Its provenance and counts are written for readers of the file;
        # the entries are the manifest.
        manifest = build(_identity_heavy_profiles(), threshold_k=1)
        records = manifest_records(manifest, ("r",), 1)
        records[0] = {"record_type": "summary",
                      "provenance": {"run_ids": "r", "threshold_k": True}}
        path = tmp_path / "benchmark.jsonl"
        write_jsonl(path, records)
        assert load_manifest(path) == manifest

    def test_empty_manifest_summary_all_zero(self, tmp_path):
        manifest = build([], threshold_k=2)
        path = tmp_path / "benchmark.jsonl"
        export_manifest(manifest, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1  # summary only
        reloaded = load_manifest(path)
        assert reloaded.entries() == []
        assert all(
            (sub["tasks"], sub["samples"]) == (0, 0)
            for category in _summary(reloaded)["categories"]
            for sub in category["subcategories"]
        )

    def test_entry_count(self, tmp_path):
        manifest = build(_identity_heavy_profiles(), threshold_k=1)
        path = tmp_path / "benchmark.jsonl"
        export_manifest(manifest, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + len(manifest.entries())

    def test_byte_identical_determinism(self, tmp_path):
        profiles = _identity_heavy_profiles()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_manifest(build(profiles, threshold_k=2), a)
        export_manifest(build(list(reversed(profiles)), threshold_k=2), b)
        assert a.read_bytes() == b.read_bytes()

    def test_summary_csv(self):
        manifest = build(_identity_heavy_profiles(), threshold_k=2)
        text = render_summary_csv(manifest)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(SUBCATEGORY_ORDER)
        assert "identity" in text

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["t0", "t1", "t2", "t3"]),
                st.sampled_from(["m0", "m1", "m2"]),
                st.lists(st.sampled_from(SUBCATEGORY_ORDER), max_size=6),
            ),
            max_size=16,
        ),
        st.integers(1, 3),
    )
    def test_summary_csv_matches_reference_bytes(self, drawn, threshold_k):
        manifest = build([_profile(*profile) for profile in drawn], threshold_k=threshold_k)
        assert render_summary_csv(manifest) == _ref_render_summary_csv(manifest)


def _ref_render_summary_csv(manifest: BenchmarkManifest) -> str:
    """`render_summary_csv` as it stood before it flattened the summary
    record, kept as a byte oracle."""
    sub_stats = _stats(manifest)
    cat_stats = {}
    for category in CATEGORY_ORDER:
        subs = [sub_stats[s] for s in subcategories_of(category)]
        cat_stats[category] = (sum(t for t, _ in subs), sum(n for _, n in subs))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["category", "category_tasks", "category_samples", "subcategory", "tasks", "samples"]
    )
    for subcategory in SUBCATEGORY_ORDER:
        category = category_of(subcategory)
        cat_tasks, cat_samples = cat_stats[category]
        tasks, samples = sub_stats[subcategory]
        writer.writerow(
            [category.value, cat_tasks, cat_samples, subcategory.value, tasks, samples]
        )
    return out.getvalue()
