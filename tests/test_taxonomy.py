from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haluscope.degeneration import DegenerationKind, DegenerationVerdict
from haluscope.errors import ConfigError, IngestionError
from haluscope.pipeline import load_states
from haluscope.sandbox import ExecutionOutcome, Status
from haluscope.taxonomy import (
    DEFAULT_EXCEPTION_MAP,
    DEFAULT_TABLE,
    SUBCATEGORY_ORDER,
    Category,
    Classification,
    ClassificationTable,
    ClassKind,
    FallbackPolicy,
    Subcategory,
    category_of,
    classification_from_dict,
    classification_to_dict,
    classify,
    load_table,
)

NONE_VERDICT = DegenerationVerdict(DegenerationKind.NONE, "")


def _outcome(status: Status, exception_name: str = "") -> ExecutionOutcome:
    return ExecutionOutcome(status=status, exception_name=exception_name)


class TestCategoryOf:
    @pytest.mark.parametrize(
        "subcategory, category",
        [
            (Subcategory.DATA_COMPLIANCE, Category.MAPPING),
            (Subcategory.STRUCTURE_ACCESS, Category.MAPPING),
            (Subcategory.IDENTITY, Category.NAMING),
            (Subcategory.EXTERNAL_SOURCE, Category.NAMING),
            (Subcategory.PHYSICAL_CONSTRAINT, Category.RESOURCE),
            (Subcategory.COMPUTATIONAL_BOUNDARY, Category.RESOURCE),
            (Subcategory.LOGIC_DEVIATION, Category.LOGIC),
            (Subcategory.LOGIC_BREAKDOWN, Category.LOGIC),
        ],
    )
    def test_table(self, subcategory, category):
        assert category_of(subcategory) is category

    def test_total_over_subcategories(self):
        assert {category_of(s) for s in Subcategory} == set(Category)

    def test_label_category_consistency_enforced(self, tmp_path):
        # A stored label names its category only for readers of the file;
        # one that contradicts its subcategory is refused where it is read.
        row = {"kind": "labeled", "cause": "NameError", "category": "mapping",
               "subcategory": "identity"}
        with pytest.raises(ValueError, match="'mapping' does not own subcategory 'identity'"):
            classification_from_dict(row)
        with pytest.raises(KeyError):
            classification_from_dict({k: v for k, v in row.items() if k != "category"})
        states = tmp_path / "states.jsonl"
        states.write_text(json.dumps({"task_id": "t", "model_id": "m", "test_index": 0,
                                      "test_count": 1, "classification": row}) + "\n")
        with pytest.raises(IngestionError, match=f"^{re.escape(str(states))}:1: "):
            load_states(states)


class TestClassifyRules:
    def test_degeneration_verdict_is_logic_breakdown(self):
        verdict = DegenerationVerdict(DegenerationKind.STUTTERING, "x = x")
        result = classify(verdict, None)
        assert result.kind is ClassKind.LABELED
        assert result.subcategory is Subcategory.LOGIC_BREAKDOWN
        assert result.cause == "stuttering"

    def test_syntax_failure_is_logic_breakdown_syntactic(self):
        result = classify(NONE_VERDICT, _outcome(Status.SYNTAX_FAILURE))
        assert result.subcategory is Subcategory.LOGIC_BREAKDOWN
        assert result.cause == "syntactic"

    def test_memory_limit_is_physical_constraint(self):
        result = classify(NONE_VERDICT, _outcome(Status.MEMORY_LIMIT_EXCEEDED))
        assert result.subcategory is Subcategory.PHYSICAL_CONSTRAINT

    def test_time_limit_is_computational_boundary(self):
        result = classify(NONE_VERDICT, _outcome(Status.TIME_LIMIT_EXCEEDED))
        assert result.subcategory is Subcategory.COMPUTATIONAL_BOUNDARY

    def test_nameerror_is_naming_identity(self):
        result = classify(NONE_VERDICT, _outcome(Status.RUNTIME_FAILURE, "NameError"))
        assert category_of(result.subcategory) is Category.NAMING
        assert result.subcategory is Subcategory.IDENTITY

    def test_wrong_output_is_logic_deviation(self):
        result = classify(NONE_VERDICT, _outcome(Status.WRONG_OUTPUT))
        assert category_of(result.subcategory) is Category.LOGIC
        assert result.subcategory is Subcategory.LOGIC_DEVIATION
        assert result.cause == "output_mismatch"

    def test_pass(self):
        result = classify(NONE_VERDICT, _outcome(Status.PASS))
        assert result.kind is ClassKind.PASS

    def test_sandbox_error_is_harness_fault_without_label(self):
        result = classify(NONE_VERDICT, _outcome(Status.SANDBOX_ERROR))
        assert result.kind is ClassKind.HARNESS_FAULT
        assert result.subcategory is None

    @pytest.mark.parametrize("name, subcategory", sorted(DEFAULT_EXCEPTION_MAP.items()))
    def test_default_exception_map(self, name, subcategory):
        result = classify(NONE_VERDICT, _outcome(Status.RUNTIME_FAILURE, name))
        assert result.subcategory is subcategory
        assert result.cause == name

    def test_unmapped_report_policy(self):
        result = classify(NONE_VERDICT, _outcome(Status.RUNTIME_FAILURE, "EOFError"))
        assert result.kind is ClassKind.UNMAPPED
        assert result.cause == "EOFError"
        assert result.subcategory is None

    def test_unmapped_as_logic_deviation_policy(self):
        table = ClassificationTable(fallback=FallbackPolicy.UNMAPPED_AS_LOGIC_DEVIATION)
        result = classify(NONE_VERDICT, _outcome(Status.RUNTIME_FAILURE, "EOFError"), table)
        assert result.kind is ClassKind.LABELED
        assert result.subcategory is Subcategory.LOGIC_DEVIATION

    def test_custom_rebinning(self):
        table = ClassificationTable(exception_map={"EOFError": Subcategory.DATA_COMPLIANCE})
        result = classify(NONE_VERDICT, _outcome(Status.RUNTIME_FAILURE, "EOFError"), table)
        assert result.subcategory is Subcategory.DATA_COMPLIANCE

    def test_outcome_required_iff_not_degenerate(self):
        with pytest.raises(ValueError):
            classify(NONE_VERDICT, None)
        with pytest.raises(ValueError):
            classify(
                DegenerationVerdict(DegenerationKind.GIBBERISH, "x"),
                _outcome(Status.PASS),
            )


class TestTotalityAndDisjointness:
    _verdicts = st.sampled_from(
        [
            NONE_VERDICT,
            DegenerationVerdict(DegenerationKind.STUTTERING, "u"),
            DegenerationVerdict(DegenerationKind.INFINITE_ENUMERATION, "u"),
            DegenerationVerdict(DegenerationKind.GIBBERISH, "u"),
        ]
    )
    _statuses = st.sampled_from(list(Status))
    _names = st.sampled_from(
        sorted(DEFAULT_EXCEPTION_MAP) + ["EOFError", "OSError", "WeirdError", ""]
    )

    @settings(max_examples=300, deadline=None)
    @given(verdict=_verdicts, status=_statuses, name=_names)
    def test_every_wellformed_observation_maps_to_exactly_one_state(
        self, verdict, status, name
    ):
        if verdict.kind is DegenerationKind.NONE:
            outcome = _outcome(
                status, name if status is Status.RUNTIME_FAILURE else ""
            )
        else:
            outcome = None
        result = classify(verdict, outcome)
        states = [
            result.kind is ClassKind.PASS,
            result.kind is ClassKind.LABELED,
            result.kind is ClassKind.UNMAPPED,
            result.kind is ClassKind.HARNESS_FAULT,
        ]
        assert sum(states) == 1
        if result.kind is ClassKind.LABELED:
            assert result.subcategory in SUBCATEGORY_ORDER
        else:
            assert result.subcategory is None

    def test_purity(self):
        verdict = DegenerationVerdict(DegenerationKind.STUTTERING, "u")
        assert classify(verdict, None) == classify(verdict, None)


class TestErrorSubsetProperty:
    """Errors are a proper subset of hallucinations: every execution-halting
    failure gets a hallucination label, and non-error hallucinations exist."""

    def test_every_error_status_is_labeled(self):
        for status in (Status.RUNTIME_FAILURE, Status.SYNTAX_FAILURE):
            outcome = _outcome(status, "ValueError" if status is Status.RUNTIME_FAILURE else "")
            result = classify(NONE_VERDICT, outcome)
            assert result.kind is ClassKind.LABELED

    def test_clean_execution_wrong_answer_is_hallucination_but_not_error(self):
        # the program ran to completion: no error, still a hallucination
        result = classify(NONE_VERDICT, _outcome(Status.WRONG_OUTPUT))
        assert result.kind is ClassKind.LABELED
        assert result.subcategory is Subcategory.LOGIC_DEVIATION


class TestTableSerialization:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.json"
        table = {
            "exception_map": {k: v.value for k, v in DEFAULT_TABLE.exception_map.items()},
            "fallback": DEFAULT_TABLE.fallback.value,
        }
        path.write_text(json.dumps(table))
        loaded = load_table(path)
        assert dict(loaded.exception_map) == dict(DEFAULT_TABLE.exception_map)
        assert loaded.fallback is DEFAULT_TABLE.fallback

    def test_unknown_subcategory_rejected(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"exception_map": {"XError": "not_a_subcategory"}}))
        with pytest.raises(ConfigError, match="not_a_subcategory"):
            load_table(path)

    def test_unknown_fallback_rejected(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"exception_map": {}, "fallback": "explode"}))
        with pytest.raises(ConfigError, match="explode"):
            load_table(path)

    def test_classification_round_trip(self):
        samples = [
            classify(NONE_VERDICT, _outcome(Status.PASS)),
            classify(NONE_VERDICT, _outcome(Status.RUNTIME_FAILURE, "KeyError")),
            classify(NONE_VERDICT, _outcome(Status.RUNTIME_FAILURE, "EOFError")),
            classify(DegenerationVerdict(DegenerationKind.GIBBERISH, "x"), None),
        ]
        for sample in samples:
            assert classification_from_dict(classification_to_dict(sample)) == sample


def test_classification_to_dict_fills_category():
    labeled = Classification(ClassKind.LABELED, "ImportError", Subcategory.EXTERNAL_SOURCE)
    assert classification_to_dict(labeled) == {
        "kind": "labeled", "cause": "ImportError", "category": "naming",
        "subcategory": "external_source",
    }
