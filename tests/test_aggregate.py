from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haluscope.aggregate import (
    ClassifiedRecord,
    SampleProfile,
    build_profiles,
    cooccurrence,
    format_rate,
    frequency_list,
    profile_from_dict,
    profile_to_dict,
)
from haluscope.pipeline import RunConfig, identify_stage, load_profiles, validate_stage
from haluscope.taxonomy import (
    PASS_RESULT,
    SUBCATEGORY_ORDER,
    Classification,
    ClassKind,
    Subcategory,
)

IDENTITY = Subcategory.IDENTITY
DEVIATION = Subcategory.LOGIC_DEVIATION
BREAKDOWN = Subcategory.LOGIC_BREAKDOWN


def _labeled(subcategory: Subcategory, cause: str) -> Classification:
    return Classification(kind=ClassKind.LABELED, cause=cause, subcategory=subcategory)


def _fault() -> Classification:
    return Classification(kind=ClassKind.HARNESS_FAULT, cause="fault")


def _record(task, model, index, classification, test_count=4):
    return ClassifiedRecord(
        task_id=task,
        model_id=model,
        test_index=index,
        test_count=test_count,
        classification=classification,
    )


class TestBuildProfiles:
    def test_mixed_outcomes(self):
        records = [
            _record("t", "m", 0, PASS_RESULT),
            _record("t", "m", 1, PASS_RESULT),
            _record("t", "m", 2, _labeled(IDENTITY, "NameError")),
            _record("t", "m", 3, _labeled(IDENTITY, "NameError")),
        ]
        (profile,) = build_profiles(records)
        assert profile.pass_count == 2
        assert profile.subcategory_counts() == Counter({IDENTITY: 2})
        assert len(profile.labels) + profile.pass_count + profile.fault_count == profile.test_count

    def test_degenerate_sample(self):
        records = [
            ClassifiedRecord("t", "m", None, 4, _labeled(BREAKDOWN, "stuttering"))
        ]
        (profile,) = build_profiles(records)
        assert profile.degenerate is True
        assert profile.pass_count == 0
        assert profile.test_count == 4
        assert profile.subcategory_counts() == Counter({BREAKDOWN: 1})

    def test_all_pass(self):
        records = [_record("t", "m", i, PASS_RESULT) for i in range(4)]
        (profile,) = build_profiles(records)
        assert profile.labels == ()
        assert profile.pass_count == profile.test_count == 4

    def test_fault_counted_separately(self):
        records = [
            _record("t", "m", 0, PASS_RESULT),
            _record("t", "m", 1, _fault()),
            _record("t", "m", 2, _labeled(DEVIATION, "output_mismatch")),
            _record("t", "m", 3, PASS_RESULT),
        ]
        (profile,) = build_profiles(records)
        assert profile.fault_count == 1
        assert len(profile.labels) + profile.pass_count + profile.fault_count == 4

    def test_deterministic_order(self):
        records = [
            _record("b", "m2", 0, PASS_RESULT, test_count=1),
            _record("a", "m1", 0, PASS_RESULT, test_count=1),
            _record("b", "m1", 0, PASS_RESULT, test_count=1),
        ]
        profiles = build_profiles(records)
        assert [(p.task_id, p.model_id) for p in profiles] == [
            ("a", "m1"),
            ("b", "m1"),
            ("b", "m2"),
        ]

    def test_permutation_invariance(self):
        records = [
            _record("t1", "m", 0, _labeled(IDENTITY, "NameError")),
            _record("t1", "m", 1, PASS_RESULT),
            _record("t2", "m", 0, _labeled(DEVIATION, "output_mismatch")),
            _record("t2", "m", 1, _fault()),
        ]
        shuffled = records[::-1]
        assert build_profiles(records) == build_profiles(shuffled)


class TestFrequencyList:
    def test_counts_and_shares(self):
        records = (
            [_record("t", "m", i, _labeled(Subcategory.DATA_COMPLIANCE, "TypeError")) for i in range(3)]
            + [_record("t", "m", 3, _labeled(IDENTITY, "NameError"))]
        )
        profiles = build_profiles(records)
        rows = frequency_list(profiles, "subcategory")
        assert [(row["key"], row["count"]) for row in rows] == [
            ("data_compliance", 3),
            ("identity", 1),
        ]
        assert rows[0]["share"] == pytest.approx(0.75)
        assert rows[1]["share"] == pytest.approx(0.25)

    def test_empty_labels_empty_list(self):
        profiles = build_profiles([_record("t", "m", 0, PASS_RESULT, test_count=1)])
        assert frequency_list(profiles, "subcategory") == []

    def test_shares_sum_to_one(self):
        rng = random.Random(7)
        records = []
        for i in range(60):
            sub = rng.choice(SUBCATEGORY_ORDER)
            records.append(
                _record(f"t{i % 9}", f"m{i % 3}", i // 9, _labeled(sub, sub.value), test_count=8)
            )
        rows = frequency_list(build_profiles(records), "subcategory")
        assert abs(sum(row["share"] for row in rows) - 1.0) <= 1e-9

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError):
            frequency_list([], "nope")

    def test_conservation_between_granularities(self):
        records = [
            _record("t", "m", 0, _labeled(IDENTITY, "NameError")),
            _record("t", "m", 1, _labeled(IDENTITY, "AttributeError")),
            _record("t", "m", 2, Classification(kind=ClassKind.UNMAPPED, cause="EOFError")),
            _record("t", "m", 3, PASS_RESULT),
        ]
        profiles = build_profiles(records)
        by_sub = frequency_list(profiles, "subcategory")
        by_cause = frequency_list(profiles, "raw_cause")
        assert sum(row["count"] for row in by_sub) == sum(row["count"] for row in by_cause) == 3
        # subcategory granularity groups the two naming causes together
        assert ("identity", 2) in [(row["key"], row["count"]) for row in by_sub]

    def test_brute_force_recount_oracle(self):
        # synthetic 5-model corpus; oracle is an independent one-pass count
        # over the raw (model, task, subcategory) observations
        rng = random.Random(42)
        observations = []  # (task, model, subcategory or None)
        records = []
        for model in [f"model-{i}" for i in range(5)]:
            for task in [f"task-{i}" for i in range(12)]:
                for test_index in range(3):
                    if rng.random() < 0.45:
                        sub = rng.choice(SUBCATEGORY_ORDER)
                        observations.append((task, model, sub))
                        records.append(
                            _record(task, model, test_index, _labeled(sub, sub.value), 3)
                        )
                    else:
                        observations.append((task, model, None))
                        records.append(_record(task, model, test_index, PASS_RESULT, 3))

        oracle: Counter = Counter()
        for _, _, sub in observations:
            if sub is not None:
                oracle[sub.value] += 1

        rows = frequency_list(build_profiles(records), "subcategory")
        assert {row["key"]: row["count"] for row in rows} == dict(oracle)
        total = sum(oracle.values())
        for row in rows:
            assert row["share"] == pytest.approx(oracle[row["key"]] / total)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        records = [
            _record(f"t{i}", "m", 0, _labeled(rng.choice(SUBCATEGORY_ORDER), "c"), 1)
            for i in range(30)
        ]
        a = frequency_list(build_profiles(records), "subcategory")
        b = frequency_list(build_profiles(records[::-1]), "subcategory")
        assert a == b


def _profile(task, model, subs):
    labels = tuple(_labeled(s, s.value) for s in subs)
    return SampleProfile(
        task_id=task,
        model_id=model,
        labels=labels,
        pass_count=0,
        fault_count=0,
        test_count=max(len(labels), 1),
    )


def _at(matrix: dict, a: Subcategory, b: Subcategory) -> int:
    return matrix["counts"][matrix["order"].index(a.value)][matrix["order"].index(b.value)]


class TestCooccurrence:
    def test_one_of_two_hallucinating_tasks_is_multi_label(self):
        profiles = [
            _profile("A", "m", [IDENTITY]),
            _profile("B", "m", [IDENTITY, DEVIATION]),
            _profile("C", "m", []),
        ]
        matrix, rate = cooccurrence(profiles)
        assert rate == pytest.approx(0.5)
        assert _at(matrix, IDENTITY, IDENTITY) == 2
        assert _at(matrix, DEVIATION, DEVIATION) == 1
        assert _at(matrix, IDENTITY, DEVIATION) == 1

    def test_single_label_tasks_rate_zero(self):
        profiles = [
            _profile("A", "m", [IDENTITY]),
            _profile("B", "m", [DEVIATION]),
        ]
        matrix, rate = cooccurrence(profiles)
        assert rate == 0.0
        for i, a in enumerate(SUBCATEGORY_ORDER):
            for b in SUBCATEGORY_ORDER[i + 1 :]:
                assert _at(matrix, a, b) == 0

    def test_no_hallucinations_rate_zero(self):
        _, rate = cooccurrence([_profile("A", "m", [])])
        assert rate == 0.0

    def test_symmetry_and_diagonal_dominance(self):
        rng = random.Random(11)
        profiles = [
            _profile(
                f"t{i}",
                "m",
                rng.sample(SUBCATEGORY_ORDER, k=rng.randint(0, 4)),
            )
            for i in range(40)
        ]
        matrix, _ = cooccurrence(profiles)
        n = len(SUBCATEGORY_ORDER)
        for i in range(n):
            for j in range(n):
                assert matrix["counts"][i][j] == matrix["counts"][j][i]
                if i != j:
                    assert matrix["counts"][i][j] <= min(
                        matrix["counts"][i][i], matrix["counts"][j][j]
                    )

    def test_multiple_models_rejected(self):
        profiles = [_profile("A", "m1", []), _profile("A", "m2", [])]
        with pytest.raises(ValueError):
            cooccurrence(profiles)

    def test_published_rate_formatting(self):
        # rendering fixture: a published cross-task rate renders as 1.07%
        assert format_rate(0.0107) == "1.07%"
        assert format_rate(0.0204) == "2.04%"

    def test_matrix_dict_shape(self):
        matrix, _ = cooccurrence([_profile("A", "m", [IDENTITY])])
        assert matrix["order"] == [s.value for s in SUBCATEGORY_ORDER]
        assert len(matrix["counts"]) == 8


def test_profile_round_trip():
    profile = _profile("t", "m", [IDENTITY, DEVIATION])
    assert profile_from_dict(profile_to_dict(profile)) == profile


@pytest.mark.parametrize("corpus", ["mini_corpus", "taxonomy_corpus"])
def test_stage_profiles_keep_one_row_per_test(corpus, request, tmp_path):
    # Every test of an executed sample ends as a label, a pass or a fault,
    # so a path that skipped tests after a failure would break the sum.
    paths = request.getfixturevalue(corpus)
    config = RunConfig(str(paths["tasks"]), str(paths["completions"]), str(tmp_path), jobs=2)
    profiles = load_profiles(identify_stage(config, validate_stage(config)))
    assert profiles
    for p in profiles:
        if p.degenerate:
            assert (len(p.labels), p.pass_count, p.fault_count) == (1, 0, 0)
        else:
            assert len(p.labels) + p.pass_count + p.fault_count == p.test_count
