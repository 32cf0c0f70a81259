"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`.

The published-table arithmetic checks (criterion 2) verify averaging
arithmetic only; reproducing the underlying model evaluations would
require the original seventeen models' generations and is out of reach at
desk scale. Likewise the cross-model syntax-error incidence statistic behind
criterion 9 is not reproducible; the criterion substitutes the property
that a corpus of verified-correct programs shows a syntax-failure rate of
exactly zero.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import pytest

from haluscope import aggregate, bench, degeneration, pipeline, report, sandbox, taxonomy
from haluscope.corpus import ResourceLimits, TestCase, load_completions
from haluscope.taxonomy import SUBCATEGORY_ORDER, Category, ClassKind, Subcategory

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


def _load_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def test_criterion_1_taxonomy_totality(taxonomy_corpus, tmp_path):
    """Every handcrafted fixture reaches its hand-labeled state through the
    real detection flow, within the two-minute budget."""
    with criterion(1, "taxonomy totality on the handcrafted fixture corpus"):
        started = time.monotonic()
        completions = load_completions(taxonomy_corpus["completions"])
        expected = taxonomy_corpus["expected"]
        assert len(completions) >= 30

        config = pipeline.RunConfig(str(taxonomy_corpus["tasks"]),
                                    str(taxonomy_corpus["completions"]),
                                    out_dir=str(tmp_path), jobs=4)
        rows = _load_jsonl(pipeline.validate_stage(config))
        assert len(rows) == len(completions)  # single-test tasks, or gated

        mismatches = []
        for row in rows:
            want = expected[row["task_id"]]
            classification = row["classification"]
            got = {
                "kind": classification["kind"],
                "subcategory": classification.get("subcategory"),
                "cause": classification["cause"],
            }
            if got != want:
                mismatches.append((row["task_id"], want, got))
        assert not mismatches, mismatches
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"fixture corpus took {elapsed:.1f}s"


def test_criterion_2_published_table_arithmetic():
    """Published subcategory rates + sample counts reproduce the published
    category and overall averages within +/-0.01 (pure arithmetic)."""
    with criterion(2, "weighted-average arithmetic reproduces published rows"):
        sample_counts = dict(
            zip(SUBCATEGORY_ORDER, (941, 1347, 1323, 530, 491, 639, 2443, 1169))
        )
        rows = {
            "gpt-4": (
                (32.31, 10.02, 27.74, 0.57, 0.20, 3.76, 85.76, 0.51),
                {"mapping": 19.19, "naming": 19.97, "resource": 2.21, "logic": 58.17},
                33.04,
            ),
            "gemma-7b": (
                (55.26, 41.05, 51.85, 0.00, 14.46, 14.55, 97.18, 100.00),
                {"mapping": 46.90, "naming": 37.02, "resource": 14.51, "logic": 98.09},
                61.53,
            ),
            "gpt-3.5": (
                (20.19, 22.05, 30.54, 0.00, 18.53, 6.42, 99.88, 0.00),
                {"mapping": 21.28, "naming": 21.80, "resource": 11.68, "logic": 67.55},
                38.98,
            ),
        }
        for model, (rates, expected_categories, expected_overall) in rows.items():
            rate_map = dict(zip(SUBCATEGORY_ORDER, rates))
            per_category, overall = report.category_averages(rate_map, sample_counts)
            for category in Category:
                assert per_category[category] == pytest.approx(
                    expected_categories[category.value], abs=0.01
                ), (model, category)
            assert overall == pytest.approx(expected_overall, abs=0.01), model


def _random_profiles(seed: int, models: int = 3, tasks: int = 15):
    rng = random.Random(seed)
    profiles = []
    for m in range(models):
        for t in range(tasks):
            subs = [rng.choice(SUBCATEGORY_ORDER) for _ in range(rng.randint(0, 6))]
            labels = tuple(
                taxonomy.Classification(
                    kind=ClassKind.LABELED,
                    cause=s.value,
                    subcategory=s,
                )
                for s in subs
            )
            profiles.append(
                aggregate.SampleProfile(
                    task_id=f"t{t:02d}",
                    model_id=f"m{m}",
                    labels=labels,
                    pass_count=0,
                    fault_count=0,
                    test_count=max(len(subs), 1),
                )
            )
    return profiles


def test_criterion_3_manifest_additivity():
    """Any emitted manifest satisfies category = sum of its subcategories
    for both task and sample counts, over randomized profiles."""
    with criterion(3, "manifest category totals equal subcategory sums"):
        for seed in range(25):
            threshold_k = 1 + seed % 3
            manifest = bench.build(_random_profiles(seed), threshold_k=threshold_k)
            (summary,) = [
                r for r in bench.manifest_records(manifest, ("r",), threshold_k)
                if r["record_type"] == "summary"
            ]
            assert [c["category"] for c in summary["categories"]] == [c.value for c in Category]
            for record in summary["categories"]:
                subs = record["subcategories"]
                assert [s["subcategory"] for s in subs] == [
                    s.value for s in taxonomy.subcategories_of(Category(record["category"]))
                ]
                for sub in subs:
                    entries = manifest.entries_by_subcategory[Subcategory(sub["subcategory"])]
                    assert sub["tasks"] == len(entries)
                    assert sub["samples"] == sum(len(e.contributing_models) for e in entries)
                assert record["tasks"] == sum(s["tasks"] for s in subs)
                assert record["samples"] == sum(s["samples"] for s in subs)


def _random_manifest_and_profiles(rng: random.Random):
    """A manifest drawn entry by entry (a task may sit under several
    subcategories, each with its own sample count) and one model's profile
    for every task, holding random labeled and unmapped labels."""
    tasks = [f"t{t}" for t in range(rng.randint(1, 8))]
    nonempty = rng.choice(SUBCATEGORY_ORDER)  # evaluate_model refuses an empty manifest
    entries_by_subcategory = {}
    for subcategory in SUBCATEGORY_ORDER:
        least = 1 if subcategory is nonempty else 0
        entries_by_subcategory[subcategory] = tuple(
            bench.BenchmarkEntry(
                task_id=task,
                target_subcategory=subcategory,
                observed_frequency=rng.randint(3, 9),
                contributing_models=tuple(f"m{i}" for i in range(rng.randint(1, 5))),
            )
            for task in rng.sample(tasks, rng.randint(least, len(tasks)))
        )
    profiles = []
    for task in tasks:
        labels = []
        for _ in range(rng.choice((0, 0, 1, 2, 4))):
            if rng.random() < 0.2:
                labels.append(taxonomy.Classification(kind=ClassKind.UNMAPPED, cause="EOFError"))
            else:
                sub = rng.choice(SUBCATEGORY_ORDER)
                labels.append(taxonomy.Classification(ClassKind.LABELED, sub.value, sub))
        profiles.append(
            aggregate.SampleProfile(task, "m", tuple(labels), 0, 0, max(len(labels), 1))
        )
    return bench.BenchmarkManifest(entries_by_subcategory), profiles


def test_criterion_4_hr_oracle_equivalence():
    """evaluate_model's hallucinated counts and the manifest's sample counts
    equal a brute-force recount of the indicator vector, each entry's
    indicator repeated once per sample, on 1,000 random (manifest,
    one-model profiles) draws in both indicator modes."""
    with criterion(4, "HR counts equal a brute-force recount of the indicator vector"):
        rng = random.Random(8883)
        for _ in range(1000):
            manifest, profiles = _random_manifest_and_profiles(rng)
            by_task = {p.task_id: p for p in profiles}
            for mode in report.INDICATOR_MODES:
                by_model, _ = report.evaluate_model(manifest, profiles, indicator_mode=mode)
                assert list(by_model) == ["m"]
                hallucinated = by_model["m"]
                assert list(hallucinated) == list(SUBCATEGORY_ORDER)
                for subcategory in SUBCATEGORY_ORDER:
                    vector = []
                    for entry in manifest.entries_by_subcategory[subcategory]:
                        labels = by_task[entry.task_id].labels
                        if mode == "target":
                            labels = [la for la in labels if la.subcategory is subcategory]
                        bit = 1 if labels else 0
                        vector += [bit] * len(entry.contributing_models)
                    count = 0
                    for bit in vector:
                        if bit == 1:
                            count += 1
                    assert (hallucinated[subcategory], manifest.sample_count(subcategory)) == (
                        count, len(vector)
                    ), (mode, subcategory)


def test_criterion_5_aggregator_oracle_equivalence():
    """Frequencies, co-occurrence, cross-task rate, and benchmark inclusion
    on a scripted 50-task x 3-model corpus match independent brute-force
    oracles; inclusion is monotone in the threshold."""
    with criterion(5, "aggregation equals brute-force recount on scripted corpus"):
        rng = random.Random(50_3)
        observations = []  # raw scripted outcomes: (task, model, sub or None)
        records = []
        for model in ("m1", "m2", "m3"):
            for t in range(50):
                task = f"task-{t:02d}"
                for test_index in range(4):
                    if rng.random() < 0.4:
                        sub = rng.choice(SUBCATEGORY_ORDER)
                        observations.append((task, model, sub))
                        classification = taxonomy.Classification(
                            kind=ClassKind.LABELED,
                            cause=sub.value,
                            subcategory=sub,
                        )
                    else:
                        observations.append((task, model, None))
                        classification = taxonomy.PASS_RESULT
                    records.append(
                        aggregate.ClassifiedRecord(task, model, test_index, 4, classification)
                    )
        profiles = aggregate.build_profiles(records)

        # frequency oracle: one-pass recount of the raw observations
        oracle_counts: Counter = Counter()
        for _, _, sub in observations:
            if sub is not None:
                oracle_counts[sub.value] += 1
        rows = aggregate.frequency_list(profiles)["subcategory"]
        assert {row["key"]: row["count"] for row in rows} == dict(oracle_counts)
        total = sum(oracle_counts.values())
        for row in rows:
            assert row["share"] == pytest.approx(oracle_counts[row["key"]] / total)

        # co-occurrence oracle per model, from one call over every model
        payload = aggregate.cooccurrence(profiles)
        assert list(payload) == ["m1", "m2", "m3"]
        for model in ("m1", "m2", "m3"):
            task_subs: dict[str, set] = defaultdict(set)
            for task, m, sub in observations:
                if m == model and sub is not None:
                    task_subs[task].add(sub)
            matrix, rate = payload[model]["matrix"], payload[model]["cross_task_rate"]
            hallucinating = [subs for subs in task_subs.values() if subs]
            expected_rate = (
                sum(1 for subs in hallucinating if len(subs) >= 2) / len(hallucinating)
                if hallucinating
                else 0.0
            )
            assert rate == pytest.approx(expected_rate)
            for i, a in enumerate(SUBCATEGORY_ORDER):
                for j, b in enumerate(SUBCATEGORY_ORDER):
                    if i == j:
                        expected = sum(1 for subs in task_subs.values() if a in subs)
                    else:
                        expected = sum(
                            1 for subs in task_subs.values() if a in subs and b in subs
                        )
                    assert matrix["counts"][i][j] == expected, (a, b)

        # benchmark inclusion oracle + threshold monotonicity
        previous: set | None = None
        for threshold in (1, 2, 3):
            manifest = bench.build(profiles, threshold_k=threshold)
            included = set()
            for subcategory in SUBCATEGORY_ORDER:
                oracle_freq: Counter = Counter()
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
                assert got == oracle_entries, (subcategory, threshold)
                included.update((subcategory, task) for task, _ in oracle_entries)
            if previous is not None:
                assert included <= previous
            previous = included


def test_criterion_6_sandbox_limit_enforcement(tmp_path):
    """Busy loop stops inside the slack window, the allocation bomb hits the
    memory cap, and sockets cannot reach the network; all under 30s."""
    with criterion(6, "wall, memory, and network limits enforced"):
        started = time.monotonic()

        limits = ResourceLimits(wall_time_ms=1000, memory_bytes=256 * 2**20)
        wall_started = time.monotonic()
        outcome = sandbox.execute("while True: pass", TestCase("", ""), limits)
        harness_wall_ms = (time.monotonic() - wall_started) * 1000
        assert outcome.status is sandbox.Status.TIME_LIMIT_EXCEEDED
        assert outcome.wall_time_ms <= 1500
        assert harness_wall_ms <= 2500  # includes the compile stage

        limits = ResourceLimits(wall_time_ms=10_000, memory_bytes=128 * 2**20)
        outcome = sandbox.execute(
            "x = [0]\nwhile True:\n    x = x + x\n", TestCase("", ""), limits
        )
        assert outcome.status is sandbox.Status.MEMORY_LIMIT_EXCEEDED

        source = (
            "import socket\n"
            "socket.create_connection(('93.184.216.34', 80), timeout=5)\n"
            "print('CONNECTED')\n"
        )
        limits = ResourceLimits(wall_time_ms=8000, memory_bytes=256 * 2**20)
        outcome = sandbox.execute(source, TestCase("", "CONNECTED"), limits, artifact_dir=tmp_path)
        assert outcome.status is not sandbox.Status.PASS
        assert "CONNECTED" not in (tmp_path / "stdout.txt").read_text()

        assert time.monotonic() - started < 30.0


def test_criterion_7_degeneration_detector(degenerate_fixtures, clean_corpus):
    """All 20 synthetic stutter/enumeration fixtures flagged; none of the
    50 verified-correct programs flagged, under default thresholds."""
    with criterion(7, "degeneration flags 100% of synthetic, 0% of clean corpus"):
        assert len(degenerate_fixtures) == 20
        for fixture in degenerate_fixtures:
            verdict = degeneration.detect(fixture["source"])
            assert verdict.kind.value == fixture["expected_kind"], fixture["fixture_id"]

        assert len(clean_corpus) >= 50
        flagged = [
            entry["task_id"]
            for entry in clean_corpus
            if degeneration.detect(entry["source"]).kind
            is not degeneration.DegenerationKind.NONE
        ]
        assert flagged == []


def test_criterion_8_pipeline_determinism(tmp_path, mini_corpus):
    """Two full pipeline runs over the fixture corpus produce byte-identical
    artifacts."""
    with criterion(8, "pipeline artifacts byte-identical across runs"):
        outputs = []
        for name in ("one", "two"):
            config = pipeline.RunConfig(
                dataset_path=str(mini_corpus["tasks"]),
                completions_path=str(mini_corpus["completions"]),
                out_dir=str(tmp_path / name),
                jobs=4,
            )
            pipeline.run_pipeline(config)
            outputs.append(tmp_path / name)
        first, second = outputs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_criterion_9_syntax_rarity_on_clean_corpus(clean_corpus):
    """Verified-correct programs never syntax-fail (and in fact pass)."""
    with criterion(9, "syntax-failure rate on the clean corpus is exactly 0"):
        limits = ResourceLimits()
        requests = []
        for entry in clean_corpus:
            for case in entry["test_cases"]:
                requests.append(
                    sandbox.ExecutionRequest(
                        source_code=entry["source"],
                        test=TestCase(case["input"], case["expected_output"]),
                        limits=limits,
                    )
                )
        outcomes = sandbox.execute_batch(requests, jobs=4)
        syntax_failures = [
            o for o in outcomes if o.status is sandbox.Status.SYNTAX_FAILURE
        ]
        assert len(syntax_failures) / len(outcomes) == 0.0
        # stronger: the corpus really is a verified passing set
        assert all(o.status is sandbox.Status.PASS for o in outcomes)
