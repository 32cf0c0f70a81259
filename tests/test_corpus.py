from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haluscope.corpus import (
    ResourceLimits,
    Task,
    TestCase,
    load_completions,
    load_dataset,
)
from haluscope.errors import IngestionError, ValidationError


def _write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def save_dataset(tasks, path) -> None:
    """Write `tasks`, in order, as the tasks.jsonl `load_dataset` reads."""
    _write_jsonl(path, [
        {
            "task_id": task.task_id,
            "test_cases": [
                {"input": c.input, "expected_output": c.expected_output} for c in task.test_cases
            ],
            "limits": {
                "wall_time_ms": task.limits.wall_time_ms,
                "memory_bytes": task.limits.memory_bytes,
            },
        }
        for task in tasks
    ])


def _task_record(task_id="t1", cases=None, **extra):
    record = {
        "task_id": task_id,
        "question": "double it",
        "test_cases": cases
        if cases is not None
        else [{"input": "3", "expected_output": "6"}],
    }
    record.update(extra)
    return record


class TestDatasetLoading:
    def test_two_tasks_preserve_order(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [_task_record("a"), _task_record("b")])
        tasks = load_dataset(path)
        assert list(tasks) == ["a", "b"]
        assert [t.task_id for t in tasks.values()] == ["a", "b"]

    def test_default_limits_applied(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [_task_record()])
        task = load_dataset(path)["t1"]
        assert task.limits == ResourceLimits()

    def test_empty_test_cases_names_task(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [_task_record("broken", cases=[])])
        with pytest.raises(ValidationError, match="broken"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "limits", [{"wall_time_ms": 1500.9}, {"memory_bytes": True}],
        ids=["wall-float", "memory-bool"],
    )
    def test_mistyped_limit_names_line(self, limits, tmp_path):
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [_task_record("a"), _task_record("b", limits=limits)])
        with pytest.raises(IngestionError) as exc_info:
            load_dataset(path)
        assert str(exc_info.value).startswith(f"{path}:2: ")

    def test_duplicate_task_id_rejected(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [_task_record("same"), _task_record("same")])
        with pytest.raises(ValidationError, match="same") as exc_info:
            load_dataset(path)
        assert str(exc_info.value).startswith(f"{path}:2: ")

    @pytest.mark.parametrize("limits", ["", False, [], "fast", [1], 5],
                             ids=["empty-string", "false", "empty-list", "string", "list",
                                  "number"])
    def test_limits_not_an_object_names_field(self, limits, tmp_path):
        # `or {}` read the first three as the defaults; .get() failed on the
        # rest without naming the field.
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [_task_record("a"), _task_record("b", limits=limits)])
        with pytest.raises(IngestionError) as exc_info:
            load_dataset(path)
        assert str(exc_info.value).startswith(f"{path}:2: limits: expected a JSON object")

    @pytest.mark.parametrize("limits", [None, {}], ids=["null", "empty"])
    def test_null_or_empty_limits_are_the_defaults(self, limits, tmp_path):
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [_task_record(limits=limits)])
        assert load_dataset(path)["t1"].limits == ResourceLimits()

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps(_task_record()) + "\n{not json\n")
        with pytest.raises(IngestionError) as exc_info:
            load_dataset(path)
        assert str(exc_info.value).startswith(f"{path}:2: ")

    def test_missing_expected_output_is_schema_error(self, tmp_path):
        # empty expected_output is legal; an absent one is not
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [_task_record(cases=[{"input": "x"}])])
        with pytest.raises(IngestionError, match="expected_output"):
            load_dataset(path)

    def test_task_without_question_loads(self, tmp_path):
        # Nothing reads a task's question, so a row need not carry one.
        path = tmp_path / "tasks.jsonl"
        record = _task_record()
        del record["question"]
        _write_jsonl(path, [record])
        assert load_dataset(path)["t1"].test_cases == (TestCase("3", "6"),)

    def test_empty_expected_output_survives(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [_task_record(cases=[{"input": "x", "expected_output": ""}])])
        task = load_dataset(path)["t1"]
        assert task.test_cases[0].expected_output == ""

    def test_apps_style_record_keeps_pair_count(self, tmp_path):
        # independent oracle: count the I/O pairs in the source record
        apps_record = {
            "problem": "Given n, output n+1.",
            "inputs": ["1", "41", "7", "0"],
            "outputs": ["2", "42", "8", "1"],
        }
        expected_count = len(list(zip(apps_record["inputs"], apps_record["outputs"])))
        converted = _task_record(
            "apps-1",
            cases=[
                {"input": i, "expected_output": o}
                for i, o in zip(apps_record["inputs"], apps_record["outputs"])
            ],
        )
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [converted])
        task = load_dataset(path)["apps-1"]
        assert len(task.test_cases) == expected_count == 4

    def test_identical_bytes_identical_dataset(self, tmp_path):
        path_a = tmp_path / "same.jsonl"
        path_b = tmp_path / "copy" / "same.jsonl"
        path_b.parent.mkdir()
        _write_jsonl(path_a, [_task_record("a"), _task_record("b")])
        path_b.write_bytes(path_a.read_bytes())
        assert load_dataset(path_a) == load_dataset(path_b)


class TestRoundTrip:
    def test_save_and_reload_identical(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(
            path,
            [
                _task_record("a", limits={"wall_time_ms": 1500, "memory_bytes": 64 * 2**20}),
                _task_record("b", cases=[{"input": "", "expected_output": "ok"}]),
            ],
        )
        tasks = load_dataset(path)
        out = tmp_path / "tasks2.jsonl"
        save_dataset(tasks.values(), out)
        assert list(load_dataset(out).items()) == list(tasks.items())

    @settings(max_examples=40, deadline=None)
    @given(
        tasks=st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                    min_size=1,
                    max_size=12,
                ),
                st.lists(
                    st.tuples(st.text(max_size=30), st.text(max_size=30)),
                    min_size=1,
                    max_size=4,
                ),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda t: t[0],
        )
    )
    def test_round_trip_property(self, tmp_path_factory, tasks):
        saved = [
            Task(task_id=task_id, test_cases=tuple(TestCase(i, o) for i, o in cases))
            for task_id, cases in tasks
        ]
        path = tmp_path_factory.mktemp("rt") / "tasks.jsonl"
        save_dataset(saved, path)
        assert list(load_dataset(path).values()) == saved


class TestCompletions:
    def test_three_records_three_completions(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        _write_jsonl(
            path,
            [
                {"task_id": t, "model_id": "m", "raw_response": "print(1)"}
                for t in ("a", "b", "c")
            ],
        )
        assert len(load_completions(path)) == 3

    def test_fenced_response_extracts_interior(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        _write_jsonl(
            path,
            [{"task_id": "a", "model_id": "m", "raw_response": "Sure:\n```\nprint(1)\n```"}],
        )
        assert load_completions(path)[0].source_code == "print(1)"

    def test_explicit_source_code_overrides_extraction(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        _write_jsonl(
            path,
            [
                {
                    "task_id": "a",
                    "model_id": "m",
                    "raw_response": "```\nprint(1)\n```",
                    "source_code": "print(2)",
                }
            ],
        )
        assert load_completions(path)[0].source_code == "print(2)"

    def test_unknown_task_retained_with_warning(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        _write_jsonl(path, [{"task_id": "ghost", "model_id": "m", "raw_response": "x"}])
        completions = load_completions(path)
        assert [c.task_id for c in completions] == ["ghost"]

    def test_repeat_without_sample_index_rejected(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        _write_jsonl(
            path,
            [
                {"task_id": "a", "model_id": "m", "raw_response": "x"},
                {"task_id": "a", "model_id": "m", "raw_response": "y"},
            ],
        )
        with pytest.raises(ValidationError) as exc_info:
            load_completions(path)
        assert str(exc_info.value) == f"{path}:2: repeated completion ('a', 'm')"

    def test_repeat_with_sample_index_allowed(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        _write_jsonl(
            path,
            [
                {"task_id": "a", "model_id": "m", "raw_response": "x", "sample_index": 0},
                {"task_id": "a", "model_id": "m", "raw_response": "y", "sample_index": 1},
            ],
        )
        assert len(load_completions(path)) == 2

    @pytest.mark.parametrize(
        "fields",
        [{"truncated_at_limit": "false"}, {"truncated_at_limit": 0},
         {"sample_index": 1.7}, {"sample_index": True}],
        ids=["truncated-string", "truncated-number", "sample-float", "sample-bool"],
    )
    def test_mistyped_field_names_line(self, fields, tmp_path):
        # bool() and int() would read these as true and 1.
        path = tmp_path / "completions.jsonl"
        _write_jsonl(path, [{"task_id": "a", "model_id": "m", "raw_response": "x"},
                            {"task_id": "b", "model_id": "m", "raw_response": "x", **fields}])
        with pytest.raises(IngestionError) as exc_info:
            load_completions(path)
        assert str(exc_info.value).startswith(f"{path}:2: ")

    def test_typed_fields_read(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        _write_jsonl(path, [{"task_id": "a", "model_id": "m", "raw_response": "x",
                             "truncated_at_limit": True, "sample_index": "3"}])
        completion = load_completions(path)[0]
        assert (completion.truncated_at_limit, completion.sample_index) == (True, 3)

    def test_integer_ids_read_as_digits(self, tmp_path):
        tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
        _write_jsonl(tasks, [{"task_id": 7, "question": "q",
                              "test_cases": [{"input": "", "expected_output": ""}]}])
        _write_jsonl(completions, [{"task_id": 7, "model_id": 3, "raw_response": "x"}])
        assert [task.task_id for task in load_dataset(tasks).values()] == ["7"]
        completion = load_completions(completions)[0]
        assert (completion.task_id, completion.model_id) == ("7", "3")

    def test_missing_sample_index_is_its_own_key(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        row = {"task_id": "a", "model_id": "m", "raw_response": "x"}
        _write_jsonl(path, [row, {**row, "sample_index": 0}])
        assert [c.sample_index for c in load_completions(path)] == [None, 0]
        _write_jsonl(path, [row, {**row, "sample_index": 0}, {**row, "sample_index": 0}])
        with pytest.raises(ValidationError, match="repeated completion"):
            load_completions(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        path.write_text('{"task_id": "a", "model_id": "m", "raw_response": "x"}\noops\n')
        with pytest.raises(IngestionError) as exc_info:
            load_completions(path)
        assert str(exc_info.value).startswith(f"{path}:2: ")


class TestLimits:
    def test_wall_floor(self):
        with pytest.raises(ValidationError):
            ResourceLimits(wall_time_ms=99)

    def test_memory_floor(self):
        with pytest.raises(ValidationError):
            ResourceLimits(memory_bytes=2**20)

    def test_override_replaces_the_file_limit(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        _write_jsonl(path, [_task_record("a", limits={"wall_time_ms": 1500,
                                                      "memory_bytes": 64 * 2**20})])
        assert load_dataset(path, wall_time_ms=1234)["a"].limits == ResourceLimits(
            wall_time_ms=1234, memory_bytes=64 * 2**20)
        assert load_dataset(path, memory_bytes=32 * 2**20)["a"].limits == ResourceLimits(
            wall_time_ms=1500, memory_bytes=32 * 2**20)
