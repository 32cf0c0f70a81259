from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from haluscope import pipeline, taxonomy
from haluscope.cli import RUN_SETTINGS, main
from haluscope.corpus import MAX_MEMORY_BYTES, MAX_WALL_TIME_MS
from haluscope.pipeline import (
    BENCHMARK_FILE,
    BENCHMARK_SUMMARY_FILE,
    COOCCURRENCE_FILE,
    EVALUATION_FILE,
    FREQUENCIES_FILE,
    PROFILES_FILE,
    REPORT_CSV_FILE,
    REPORT_JSON_FILE,
    REPORT_MD_FILE,
    STATES_FILE,
)


def _run(args):
    return main([str(a) for a in args])


def _read_lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines))


EXPECTED = Path(__file__).parent / "fixtures" / "mini" / "expected"
# A comment holding a lone surrogate, as a `\ud800` escape in a JSONL row
# gives: `python prog.py` refuses the bytes it is written as.
LONE_SURROGATE = "n = int(input())\nm = n * 2\n# note \ud800\nprint(m)\n"
# A response the degeneration gate stops before it runs (stuttering).
STUTTER = "print(1)\n" * 10


@pytest.fixture(scope="module")
def staged_run(tmp_path_factory, request):
    """One full stage-by-stage run over the mini corpus, shared by tests."""
    base = Path(__file__).parent / "fixtures" / "mini"
    out = tmp_path_factory.mktemp("staged")
    args = ["--out-dir", out, "--jobs", "4", "--threshold-k", "2"]
    assert _run(args + ["validate", "--dataset", base / "tasks.jsonl",
                        "--completions", base / "completions.jsonl"]) == 0
    assert _run(args + ["identify"]) == 0
    assert _run(args + ["build-bench"]) == 0
    assert _run(args + ["evaluate"]) == 0
    assert _run(args + ["report"]) == 0
    return out


class TestStages:
    def test_validate_record_count(self, staged_run, mini_corpus):
        tasks = _read_lines(Path(mini_corpus["tasks"]))
        records = _read_lines(staged_run / STATES_FILE)
        models = {r["model_id"] for r in records}
        tests_per_task = {t["task_id"]: len(t["test_cases"]) for t in tasks}
        expected = sum(tests_per_task.values()) * len(models)
        assert len(records) == expected == 48
        assert all(r["status"] != "sandbox_error" for r in records)

    def test_profiles_one_per_task_model(self, staged_run):
        profiles = _read_lines(staged_run / PROFILES_FILE)
        assert len(profiles) == 24  # 12 tasks x 2 models
        keys = [(p["task_id"], p["model_id"]) for p in profiles]
        assert keys == sorted(keys)

    def test_frequencies_written(self, staged_run):
        payload = json.loads((staged_run / FREQUENCIES_FILE).read_text())
        assert set(payload) == {"subcategory", "raw_cause"}
        sub_total = sum(e["count"] for e in payload["subcategory"])
        cause_total = sum(e["count"] for e in payload["raw_cause"])
        assert sub_total == cause_total > 0

    def test_benchmark_written(self, staged_run):
        lines = _read_lines(staged_run / BENCHMARK_FILE)
        assert lines[0]["record_type"] == "summary"
        assert (staged_run / BENCHMARK_SUMMARY_FILE).exists()

    def test_report_files_written(self, staged_run):
        for name in (EVALUATION_FILE, REPORT_MD_FILE, REPORT_CSV_FILE, REPORT_JSON_FILE,
                     COOCCURRENCE_FILE):
            assert (staged_run / name).exists(), name

    def test_cooccurrence_has_both_models(self, staged_run):
        payload = json.loads((staged_run / COOCCURRENCE_FILE).read_text())
        assert set(payload) == {"model-good", "model-messy"}
        for entry in payload.values():
            assert entry["cross_task_rate_percent"].endswith("%")


class TestComposability:
    def test_staged_equals_single_shot(self, staged_run, mini_corpus, tmp_path):
        out = tmp_path / "single"
        args = ["--out-dir", out, "--jobs", "4", "--threshold-k", "2"]
        assert _run(args + ["pipeline", "--dataset", mini_corpus["tasks"],
                            "--completions", mini_corpus["completions"]]) == 0
        for name in (STATES_FILE, PROFILES_FILE, FREQUENCIES_FILE, BENCHMARK_FILE,
                     BENCHMARK_SUMMARY_FILE, EVALUATION_FILE, REPORT_MD_FILE,
                     REPORT_CSV_FILE, REPORT_JSON_FILE, COOCCURRENCE_FILE):
            a = normalize_measurements((out / name).read_text())
            b = normalize_measurements((staged_run / name).read_text())
            assert a == b, name


def normalize_measurements(text: str) -> str:
    """Blank the per-run measurement fields (the only timing-like fields
    any artifact carries) so runs can be compared byte-for-byte."""
    text = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)
    return re.sub(r'"peak_memory_bytes": (\d+|null)', '"peak_memory_bytes": 0', text)


class TestDeterminism:
    def test_two_runs_byte_identical(self, mini_corpus, tmp_path):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            args = ["--out-dir", out, "--jobs", "4", "pipeline",
                    "--dataset", mini_corpus["tasks"],
                    "--completions", mini_corpus["completions"]]
            assert _run(args) == 0
            outputs.append(out)
        first, second = outputs
        for path in sorted(first.iterdir()):
            a = normalize_measurements(path.read_text())
            b = normalize_measurements((second / path.name).read_text())
            assert a == b, path.name

    def test_gated_completions_anywhere_keep_states_order(self, tmp_path):
        # Gated completions first, in the middle and last, and samples of one
        # (task, model) on both sides of a gated one.
        tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
        _write_lines(tasks, [json.dumps({
            "task_id": task_id, "question": "q",
            "test_cases": [{"input": str(n), "expected_output": str(n + 1)} for n in range(count)],
        }) for task_id, count in (("t1", 2), ("t2", 1))])
        increment = "print(int(input()) + 1)"
        rows = [("t1", "a", STUTTER, None), ("t1", "b", increment, None),
                ("t1", "s", increment, 0), ("t2", "b", STUTTER, None),
                ("t1", "s", STUTTER, 1), ("t1", "s", "print(0)", 2),
                ("t2", "a", "print(input())", None), ("t1", "c", STUTTER, None)]
        _write_lines(completions, [
            json.dumps({"task_id": task_id, "model_id": model_id, "raw_response": response,
                        **({} if sample is None else {"sample_index": sample})})
            for task_id, model_id, response, sample in rows
        ])
        states = []
        for jobs in (1, 3):
            out = tmp_path / f"jobs{jobs}"
            assert _run(["--out-dir", out, "--jobs", jobs, "validate", "--dataset", tasks,
                         "--completions", completions]) == 0
            states.append(normalize_measurements((out / STATES_FILE).read_text()))
        assert states[0] == states[1]
        assert [(r["task_id"], r["model_id"], r["test_index"], r["status"])
                for r in map(json.loads, states[0].splitlines())] == [
            ("t1", "a", None, "not_executed"),
            ("t1", "b", 0, "pass"), ("t1", "b", 1, "pass"),
            ("t1", "c", None, "not_executed"),
            ("t1", "s", 0, "pass"), ("t1", "s", 1, "pass"),
            ("t1", "s", None, "not_executed"),
            ("t1", "s", 0, "wrong_output"), ("t1", "s", 1, "wrong_output"),
            ("t2", "a", 0, "wrong_output"),
            ("t2", "b", None, "not_executed"),
        ]

    def test_states_do_not_depend_on_the_completions_order(self, tmp_path):
        # Samples of one (task, model), executed and gated, with and without
        # a sample index: every line order gives one states.jsonl.
        tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
        _write_lines(tasks, [json.dumps({**_TASK, "test_cases": [
            {"input": str(n), "expected_output": str(n + 1)} for n in range(2)]})])
        lines = [json.dumps({**_COMPLETION, "raw_response": response, **sample})
                 for response, sample in (("print(int(input()) + 1)", {}),
                                          ("print(0)", {"sample_index": 0}),
                                          (STUTTER, {"sample_index": 1}))]
        states = set()
        for run, order in enumerate(itertools.permutations(lines)):
            _write_lines(completions, list(order))
            for jobs in (1, 2):
                out = tmp_path / f"run{run}-jobs{jobs}"
                assert _run(["--out-dir", out, "--jobs", jobs, "validate", "--dataset", tasks,
                             "--completions", completions]) == 0
                states.add(normalize_measurements((out / STATES_FILE).read_text()))
        assert len(states) == 1
        assert [(r["test_index"], r["status"]) for r in map(json.loads, states.pop().splitlines())
                ] == [(0, "pass"), (1, "pass"), (0, "wrong_output"), (1, "wrong_output"),
                      (None, "not_executed")]

    def test_hash_order_gives_one_verdict(self, tmp_path):
        # Four identical programs printing a set of strings, whose order
        # follows the hash secret, on two identical tests: every execution
        # of every run, at one job and at three, gets the same verdict.
        tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
        _write_lines(tasks, [json.dumps({**_TASK, "test_cases": [
            {"input": "", "expected_output": "x y"}] * 2})])
        _write_lines(completions, [
            json.dumps({**_COMPLETION, "model_id": f"m{n}", "raw_response": "print(*{'x', 'y'})"})
            for n in range(4)
        ])
        statuses = set()
        for run, jobs in enumerate([1] * 4 + [3] * 3):
            out = tmp_path / f"run{run}"
            assert _run(["--out-dir", out, "--jobs", jobs, "validate", "--dataset", tasks,
                         "--completions", completions]) == 0
            statuses |= {row["status"] for row in _read_lines(out / STATES_FILE)}
        assert len(statuses) == 1, statuses


class TestGoldenArtifacts:
    def test_pipeline_matches_expected_files(self, mini_corpus, tmp_path):
        """fixtures/mini/expected holds every artifact of a reference run
        over the mini corpus with the measurement fields blanked; a change
        to any byte of them must be deliberate."""
        out = tmp_path / "out"
        assert _run(["--out-dir", out, "--jobs", "4", "pipeline",
                     "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"]]) == 0
        names = sorted(p.name for p in EXPECTED.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            actual = normalize_measurements((out / name).read_bytes().decode("utf-8"))
            assert actual == (EXPECTED / name).read_bytes().decode("utf-8"), name


_STATE_ROW = {
    "task_id": "t",
    "model_id": "m",
    "test_index": 0,
    "test_count": 1,
    "classification": {"kind": "pass", "cause": "pass"},
    "status": "pass",
}
_PROFILE_ROW = {
    "task_id": "t",
    "model_id": "m",
    "labels": [],
    "pass_count": 1,
    "fault_count": 0,
    "test_count": 1,
    "degenerate": False,
}
_LABELED = {"kind": "labeled", "cause": "NameError", "category": "naming",
            "subcategory": "identity"}
_MANIFEST_SUMMARY = {
    "record_type": "summary",
    "provenance": {"run_ids": [], "threshold_k": 2},
    "categories": [],
}
_TASK = {"task_id": "t", "question": "q", "test_cases": [{"input": "", "expected_output": ""}]}
_COMPLETION = {"task_id": "t", "model_id": "m", "raw_response": "print()"}
_MALFORMED = {
    "not-utf8": b'{"task_id": "\xff"}\n',
    "not-json": b"{broken\n",
    "not-an-object": b"[1]\n",
    "too-deep": b'{"x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
}
# Each input file a malformed file is fed as, and the exit code its
# reader documents.
_MALFORMED_EXIT_CODES = {
    "config": 1,
    "classification-table": 1,
    "tasks": 2,
    "completions": 2,
    "states": 2,
}


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert _run(["validate", "--no-such-flag"]) == 1
        err = capsys.readouterr().err
        assert json.loads(err)["exit_code"] == 1

    def test_missing_dataset_config_is_one(self, tmp_path, capsys):
        assert _run(["--out-dir", tmp_path, "validate"]) == 1

    @pytest.mark.parametrize("command", ["validate", "pipeline"])
    def test_missing_completions_source_is_one(self, command, tmp_path, capsys):
        # A usage error, found before the dataset (here unreadable as
        # JSON, which would be exit 2) is read and before the out dir is made.
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text("{broken\n")
        out = tmp_path / "out"
        assert _run(["--out-dir", out, command, "--dataset", tasks]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert "completions" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out-dir", "--artifact-dir"],
                             ids=["out-dir", "artifact-dir"])
    def test_directory_naming_a_file_is_one(self, flag, mini_corpus, tmp_path, capsys):
        # A directory the run cannot make is a usage error, reported as one
        # JSON line without a traceback, before any program runs.
        directory = tmp_path / "taken"
        directory.write_text("")
        out = tmp_path / "out"
        assert _run(["--out-dir", out, flag, directory, "validate",
                     "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"]]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        error = json.loads(line)
        assert (error["error"], error["exit_code"]) == ("ConfigError", 1)
        assert error["message"].startswith(f"cannot create {directory}: ")
        assert not (out / STATES_FILE).exists()

    def test_validation_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "tasks.jsonl"
        bad.write_text(json.dumps({"task_id": "t", "question": "q", "test_cases": []}) + "\n")
        completions = tmp_path / "completions.jsonl"
        completions.write_text(
            json.dumps({"task_id": "t", "model_id": "m", "raw_response": "x"}) + "\n"
        )
        code = _run(["--out-dir", tmp_path / "out", "validate",
                     "--dataset", bad, "--completions", completions])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"

    def test_ingestion_error_is_two(self, tmp_path):
        bad = tmp_path / "tasks.jsonl"
        bad.write_text("{broken\n")
        completions = tmp_path / "completions.jsonl"
        completions.write_text("")
        assert _run(["--out-dir", tmp_path / "out", "validate",
                     "--dataset", bad, "--completions", completions]) == 2

    @pytest.mark.parametrize(
        "source, status, options",
        [("x = " + "-" * 100_000 + "1\nprint(x)\n", "memory_limit_exceeded", []),
         ("x = 0" + "+1" * 200_000 + "\n", "not_executed", []),
         (LONE_SURROGATE, "syntax_failure", []),
         (LONE_SURROGATE, "syntax_failure", ["--artifact-dir", "artifacts"])],
        ids=["parser-exhausted", "recursion-exhausted", "lone-surrogate",
             "lone-surrogate-artifact-dir"],
    )
    def test_pathological_nesting_reaches_a_state(self, source, status, options, tmp_path):
        # Two wrong outputs put the task over --threshold-k 1, so the
        # benchmark is not empty and every stage runs.
        tasks = tmp_path / "tasks.jsonl"
        _write_lines(tasks, [json.dumps(
            {"task_id": "t", "question": "q",
             "test_cases": [{"input": "", "expected_output": "1"}] * 2}
        )])
        completions = tmp_path / "completions.jsonl"
        _write_lines(completions, [
            json.dumps({"task_id": "t", "model_id": "nested", "raw_response": source,
                        "source_code": source}),
            json.dumps({"task_id": "t", "model_id": "wrong", "raw_response": "print(2)",
                        "source_code": "print(2)"}),
        ])
        out = tmp_path / "out"
        options = [tmp_path / option if option == "artifacts" else option for option in options]
        assert _run([*options, "--out-dir", out, "--threshold-k", "1", "pipeline",
                     "--dataset", tasks, "--completions", completions]) == 0
        rows = [r for r in _read_lines(out / STATES_FILE) if r["model_id"] == "nested"]
        assert rows and all(r["status"] == status for r in rows)
        if options:
            assert list((tmp_path / "artifacts").rglob("prog.py"))

    def test_evaluate_empty_benchmark_nonzero(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        # an empty benchmark manifest plus some profiles
        (out / BENCHMARK_FILE).write_text(
            json.dumps(
                {
                    "record_type": "summary",
                    "provenance": {"run_ids": [], "threshold_k": 2},
                    "categories": [],
                }
            )
            + "\n"
        )
        (out / PROFILES_FILE).write_text(
            json.dumps(
                {
                    "task_id": "t",
                    "model_id": "m",
                    "labels": [],
                    "pass_count": 1,
                    "fault_count": 0,
                    "test_count": 1,
                    "degenerate": False,
                }
            )
            + "\n"
        )
        code = _run(["--out-dir", out, "evaluate"])
        assert code != 0
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ReportError"

    def test_evaluate_refuses_two_profiles_for_one_task(self, tmp_path, capsys):
        # Kept, the clean second profile would drop model-good's identity
        # HR from 100.00 to 0.00 without a word.
        out = tmp_path / "out"
        out.mkdir()
        (out / BENCHMARK_FILE).write_bytes((EXPECTED / BENCHMARK_FILE).read_bytes())
        clean = {**_PROFILE_ROW, "task_id": "mini-wc", "model_id": "model-good",
                 "pass_count": 2, "test_count": 2}
        (out / PROFILES_FILE).write_text(
            (EXPECTED / PROFILES_FILE).read_text() + json.dumps(clean) + "\n"
        )
        assert _run(["--out-dir", out, "evaluate"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValidationError"
        lineno = len((EXPECTED / PROFILES_FILE).read_text().splitlines()) + 1
        assert error["message"] == (
            f"{out / PROFILES_FILE}:{lineno}: repeated profile ('mini-wc', 'model-good')")
        assert not (out / REPORT_CSV_FILE).exists()

    @pytest.mark.parametrize("command, output", [("build-bench", BENCHMARK_FILE),
                                                 ("report", COOCCURRENCE_FILE)])
    def test_profile_readers_refuse_a_repeated_profile(self, command, output, tmp_path, capsys):
        # Kept, the second row would be counted beside the first: build-bench
        # would give mini-wc's identity entry an observed frequency of 6, not
        # 4, and report would count it twice in model-good's matrix.
        out = tmp_path / "out"
        out.mkdir()
        expected = (EXPECTED / PROFILES_FILE).read_text()
        repeated = next(line for line in expected.splitlines()
                        if '"model-good"' in line and '"mini-wc"' in line)
        (out / PROFILES_FILE).write_text(expected + repeated + "\n")
        assert _run(["--threshold-k", "2", "--out-dir", out, command]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValidationError"
        assert error["message"] == (f"{out / PROFILES_FILE}:{len(expected.splitlines()) + 1}: "
                                    "repeated profile ('mini-wc', 'model-good')")
        assert not (out / output).exists()

    def test_evaluate_refuses_a_second_summary_record(self, tmp_path, capsys):
        # Kept, the file would record two provenances for one benchmark.
        out = tmp_path / "out"
        out.mkdir()
        lines = (EXPECTED / BENCHMARK_FILE).read_text().splitlines()
        summary = json.loads(lines[0])
        assert summary["record_type"] == "summary"
        summary["provenance"] = {"run_ids": ["other"], "threshold_k": 99}
        _write_lines(out / BENCHMARK_FILE, [*lines, json.dumps(summary)])
        (out / PROFILES_FILE).write_bytes((EXPECTED / PROFILES_FILE).read_bytes())
        assert _run(["--out-dir", out, "evaluate"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValidationError"
        assert error["message"] == (
            f"{out / BENCHMARK_FILE}:{len(lines) + 1}: repeated benchmark entry 'summary'")
        assert not (out / REPORT_CSV_FILE).exists()

    def test_evaluate_refuses_a_repeated_benchmark_entry(self, tmp_path, capsys):
        # Kept, the copy would double identity's sample count without a word.
        out = tmp_path / "out"
        out.mkdir()
        lines = (EXPECTED / BENCHMARK_FILE).read_text().splitlines()
        entry = next(line for line in lines if json.loads(line)["record_type"] == "entry")
        _write_lines(out / BENCHMARK_FILE, [*lines, entry])
        (out / PROFILES_FILE).write_bytes((EXPECTED / PROFILES_FILE).read_bytes())
        assert _run(["--out-dir", out, "evaluate"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValidationError"
        assert error["message"].startswith(
            f"{out / BENCHMARK_FILE}:{len(lines) + 1}: repeated benchmark entry ")
        assert not (out / REPORT_CSV_FILE).exists()

    @pytest.mark.parametrize("limit", ["wall_time_ms", "memory_bytes"])
    def test_file_limit_below_minimum_is_two_under_override(
        self, limit, mini_corpus, tmp_path, capsys
    ):
        # The overrides replace a task's limits only after they are checked.
        tasks = tmp_path / "tasks.jsonl"
        _write_lines(tasks, [json.dumps({**_TASK, "limits": {limit: 50}})])
        assert _run(["--limits.wall-ms", "1000", "--limits.mem-bytes", str(64 * 2**20),
                     "--out-dir", tmp_path / "out", "validate", "--dataset", tasks,
                     "--completions", mini_corpus["completions"]]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValidationError"
        assert error["message"].startswith(f"{tasks}:1: {limit} must be >= ")

    @pytest.mark.parametrize("limit, bound", [("wall_time_ms", MAX_WALL_TIME_MS),
                                              ("memory_bytes", MAX_MEMORY_BYTES)])
    def test_file_limit_up_to_its_maximum(self, limit, bound, mini_corpus, tmp_path, capsys):
        # The largest limit runs the program; one more is refused with its
        # line, where the sandbox could not honour it.
        tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
        _write_lines(completions, [json.dumps(_COMPLETION)])
        _write_lines(tasks, [json.dumps({**_TASK, "limits": {limit: bound}})])
        args = ["validate", "--dataset", tasks, "--completions", completions]
        assert _run(["--out-dir", tmp_path / "out", *args]) == 0
        assert [row["status"] for row in _read_lines(tmp_path / "out" / STATES_FILE)] == ["pass"]
        _write_lines(tasks, [json.dumps({**_TASK, "limits": {limit: bound + 1}})])
        assert _run(["--out-dir", tmp_path / "past", *args]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValidationError"
        assert error["message"] == f"{tasks}:1: {limit} must be <= {bound}, got {bound + 1}"
        assert not (tmp_path / "past").exists()

    @pytest.mark.parametrize("source", ["cli", "config"])
    @pytest.mark.parametrize("flag, key, bound", [
        ("--limits.wall-ms", "wall_time_ms", MAX_WALL_TIME_MS),
        ("--limits.mem-bytes", "memory_bytes", MAX_MEMORY_BYTES)])
    def test_limit_setting_up_to_its_maximum(self, source, flag, key, bound, tmp_path, capsys):
        tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
        _write_lines(tasks, [json.dumps(_TASK)])
        _write_lines(completions, [json.dumps(_COMPLETION)])

        def run(value, out):
            if source == "cli":
                setting = [flag, value]
            else:
                config = tmp_path / f"{out}.json"
                config.write_text(json.dumps({key: value}))
                setting = ["--config", config]
            return _run([*setting, "--out-dir", tmp_path / out, "validate",
                         "--dataset", tasks, "--completions", completions])

        assert run(bound, "out") == 0
        assert [row["status"] for row in _read_lines(tmp_path / "out" / STATES_FILE)] == ["pass"]
        assert run(bound + 1, "past") == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert error["message"] == (
            f"bad value for {key!r}: must be at most {bound}, got {bound + 1}")
        assert not (tmp_path / "past").exists()

    @pytest.mark.parametrize(
        "command, filename, bad_record, field",
        [
            ("identify", STATES_FILE,
             json.dumps({k: v for k, v in _STATE_ROW.items() if k != "test_count"}), None),
            ("identify", STATES_FILE, "[1, 2]", None),
            ("identify", STATES_FILE, json.dumps({**_STATE_ROW, "test_count": 2.5}), "test_count"),
            ("identify", STATES_FILE, json.dumps({**_STATE_ROW, "test_index": 0.5}), "test_index"),
            ("identify", STATES_FILE,
             json.dumps({**_STATE_ROW, "classification": {
                 "kind": "labeled", "cause": "NameError", "category": "mapping",
                 "subcategory": "identity"}}), None),
            ("identify", STATES_FILE,
             json.dumps({**_STATE_ROW, "classification": {**_LABELED, "cause": 5}}), "cause"),
            ("identify", STATES_FILE, json.dumps({**_STATE_ROW, "classification": "x"}),
             "classification"),
            ("identify", STATES_FILE, json.dumps({**_STATE_ROW, "task_id": 5}), "task_id"),
            ("identify", STATES_FILE, json.dumps({**_STATE_ROW, "model_id": None}), "model_id"),
            ("build-bench", PROFILES_FILE, json.dumps({**_PROFILE_ROW, "degenerate": "false"}),
             "degenerate"),
            ("build-bench", PROFILES_FILE, json.dumps({**_PROFILE_ROW, "pass_count": 1.9}),
             "pass_count"),
            ("build-bench", PROFILES_FILE,
             json.dumps({**_PROFILE_ROW, "labels": [{**_LABELED, "cause": 5}]}), "cause"),
            ("build-bench", PROFILES_FILE, json.dumps({**_PROFILE_ROW, "labels": "ab"}), "labels"),
            ("build-bench", PROFILES_FILE, json.dumps({**_PROFILE_ROW, "labels": ["a"]}), "labels"),
            ("build-bench", PROFILES_FILE, json.dumps({**_PROFILE_ROW, "task_id": 5}), "task_id"),
            ("build-bench", PROFILES_FILE, json.dumps({**_PROFILE_ROW, "model_id": ["m"]}),
             "model_id"),
            ("evaluate", BENCHMARK_FILE,
             json.dumps({"record_type": "entry", "task_id": "t", "target_subcategory": "bogus",
                         "observed_frequency": 3, "contributing_models": ["m"]}),
             "target_subcategory"),
            ("evaluate", BENCHMARK_FILE,
             json.dumps({"record_type": "entry", "task_id": "t", "target_subcategory": "identity",
                         "observed_frequency": 3.5, "contributing_models": ["m"]}),
             "observed_frequency"),
            ("evaluate", BENCHMARK_FILE,
             json.dumps({"record_type": "entry", "task_id": "t", "target_subcategory": "identity",
                         "observed_frequency": 3, "contributing_models": "m1"}),
             "contributing_models"),
            ("evaluate", BENCHMARK_FILE,
             json.dumps({"record_type": "entry", "task_id": "t", "target_subcategory": "identity",
                         "observed_frequency": 3, "contributing_models": ["m", 1]}),
             "contributing_models"),
            ("evaluate", BENCHMARK_FILE,
             json.dumps({"record_type": "entry", "task_id": 5, "target_subcategory": "identity",
                         "observed_frequency": 3, "contributing_models": ["m"]}), "task_id"),
            ("validate", "tasks.jsonl", json.dumps({**_TASK, "task_id": None}), "task_id"),
            ("validate", "tasks.jsonl",
             json.dumps({**_TASK, "task_id": "u", "limits": {"wall_time_ms": "x"}}),
             "wall_time_ms"),
            ("validate", "tasks.jsonl",
             json.dumps({**_TASK, "task_id": "u", "limits": {"wall_time_ms": 1500.9}}),
             "wall_time_ms"),
            ("validate", "tasks.jsonl", json.dumps({**_TASK, "task_id": "u", "limits": "fast"}),
             "limits"),
            ("validate", "tasks.jsonl", json.dumps({**_TASK, "task_id": "u", "test_cases": "x"}),
             "test_cases"),
            ("validate", "tasks.jsonl", json.dumps({**_TASK, "task_id": "u", "test_cases": [5]}),
             "test_cases"),
            ("validate", "tasks.jsonl",
             json.dumps({**_TASK, "task_id": "u",
                         "test_cases": [{"input": "", "expected_output": None}]}),
             "expected_output"),
            ("validate", "tasks.jsonl",
             json.dumps({**_TASK, "task_id": "u",
                         "test_cases": [{"input": None, "expected_output": "None"}]}),
             "input"),
            ("validate", "completions.jsonl",
             json.dumps({**_COMPLETION, "model_id": "m2", "raw_response": None}), "raw_response"),
            ("validate", "completions.jsonl", json.dumps({**_COMPLETION, "model_id": None}),
             "model_id"),
            ("validate", "completions.jsonl", json.dumps({**_COMPLETION, "model_id": True}),
             "model_id"),
        ],
        ids=["states-missing-field", "states-not-an-object", "states-float-test-count",
             "states-float-test-index", "states-category-mismatch", "states-int-cause",
             "states-string-classification", "states-int-task-id", "states-null-model-id",
             "profiles-string-degenerate", "profiles-float-count", "profiles-int-cause",
             "profiles-string-labels", "profiles-string-label", "profiles-int-task-id",
             "profiles-list-model-id", "manifest-bad-subcategory", "manifest-float-frequency",
             "manifest-string-models", "manifest-int-model", "manifest-int-task-id",
             "tasks-null-task-id", "tasks-bad-limit", "tasks-float-limit",
             "tasks-string-limits", "tasks-string-test-cases", "tasks-int-test-case",
             "tasks-null-expected-output", "tasks-null-input", "completions-null-raw-response",
             "completions-null-model-id", "completions-bool-model-id"],
    )
    def test_malformed_artifact_names_path_and_line(
        self, tmp_path, capsys, command, filename, bad_record, field
    ):
        # A strict read names its field; a missing field, a row that is not
        # an object and an inconsistent classification say so without one.
        out = tmp_path / "out"
        out.mkdir()
        path = out / filename
        inputs = {"tasks.jsonl": _TASK, "completions.jsonl": _COMPLETION}
        first = {STATES_FILE: _STATE_ROW, PROFILES_FILE: _PROFILE_ROW,
                 BENCHMARK_FILE: _MANIFEST_SUMMARY, **inputs}[filename]
        _write_lines(path, [json.dumps(first), bad_record])
        args = ["--out-dir", out, command]
        if command == "validate":
            for name, row in inputs.items():
                if name != filename:
                    _write_lines(out / name, [json.dumps(row)])
            args += ["--dataset", out / "tasks.jsonl", "--completions", out / "completions.jsonl"]
        assert _run(args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "IngestionError"
        assert payload["exit_code"] == 2
        assert payload["message"].startswith(f"{path}:2: " + (f"{field}: " if field else ""))

    @pytest.mark.parametrize("content", sorted(_MALFORMED))
    @pytest.mark.parametrize("target", sorted(_MALFORMED_EXIT_CODES))
    def test_malformed_input_file_exits_with_its_code(
        self, target, content, tmp_path, capsys, caplog
    ):
        tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
        _write_lines(tasks, [json.dumps(_TASK)])
        _write_lines(completions, [json.dumps({"task_id": "t", "model_id": "m",
                                               "raw_response": "print()"})])
        bad = tmp_path / "bad.json"
        bad.write_bytes(_MALFORMED[content])
        validate = ["validate", "--dataset", tasks, "--completions", completions]
        args = {
            "config": ["--config", bad, *validate],
            "classification-table": ["--classification-table", bad, *validate],
            "tasks": ["validate", "--dataset", bad, "--completions", completions],
            "completions": ["validate", "--dataset", tasks, "--completions", bad],
            "states": ["identify", "--states", bad],
        }[target]
        code = _MALFORMED_EXIT_CODES[target]
        assert _run(["--out-dir", tmp_path / "out", *args]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err + caplog.text
        errors = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert [e["exit_code"] for e in errors] == [code]
        assert str(bad) in errors[0]["message"]

    @pytest.mark.parametrize("options", [[], ["--artifact-dir", "artifacts"]],
                             ids=["plain", "artifact-dir"])
    def test_lone_surrogate_in_input_reaches_a_state(self, options, tmp_path):
        tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
        _write_lines(tasks, [json.dumps({"task_id": "t", "question": "q", "test_cases": [
            {"input": "\ud800", "expected_output": "1"}]})])
        _write_lines(completions, [
            json.dumps({"task_id": "t", "model_id": "constant", "raw_response": "print(1)"}),
            json.dumps({"task_id": "t", "model_id": "echo", "raw_response": "print(input())"}),
        ])
        out = tmp_path / "out"
        options = [tmp_path / option if option == "artifacts" else option for option in options]
        assert _run([*options, "--out-dir", out, "validate", "--dataset", tasks,
                     "--completions", completions]) == 0
        rows = {r["model_id"]: r for r in _read_lines(out / STATES_FILE)}
        assert rows["constant"]["status"] == "pass"
        assert (rows["echo"]["status"], rows["echo"]["exception_name"]) == (
            "runtime_failure", "UnicodeDecodeError")
        if options:
            stdins = list((tmp_path / "artifacts").rglob("stdin.txt"))
            assert len(stdins) == 2
            assert {p.read_bytes() for p in stdins} == {"\ud800".encode("utf-8", "surrogatepass")}


class TestConfigFile:
    def test_config_supplies_defaults_cli_overrides(self, mini_corpus, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "dataset": str(mini_corpus["tasks"]),
                    "completions": str(mini_corpus["completions"]),
                    "out_dir": str(tmp_path / "from-config"),
                    "jobs": 2,
                }
            )
        )
        assert _run(["--config", config, "validate"]) == 0
        assert (tmp_path / "from-config" / STATES_FILE).exists()
        # CLI --out-dir wins over the config file
        assert _run(["--config", config, "--out-dir", tmp_path / "cli-wins", "validate"]) == 0
        assert (tmp_path / "cli-wins" / STATES_FILE).exists()


def _setting_samples(tmp_path: Path) -> dict:
    """Per config key: (CLI word, the field value it gives, config-file
    value, the field value it gives). A fifth item is the config value the
    CLI overrides, when it must differ from the fourth."""
    tables = {}
    for name, fallback in (("cli", "unmapped_as_logic_deviation"), ("config", "unmapped_report")):
        path = tmp_path / f"{name}-table.json"
        path.write_text(json.dumps(
            {"exception_map": {"EOFError": "identity"}, "fallback": fallback}
        ))
        tables[name] = (str(path), taxonomy.load_table(path))
    return {
        "out_dir": ("cli-out", "cli-out", "config-out", "config-out"),
        "jobs": ("3", 3, 2, 2),
        "interpreter": ("python3 -u", ("python3", "-u"),
                        ["python3", "-X", "dev"], ("python3", "-X", "dev")),
        "wall_time_ms": ("1500", 1500, 2500, 2500),
        "memory_bytes": ("134217728", 2**27, 2**28, 2**28),
        "threshold_k": ("5", 5, 4, 4),
        "classification_table": (*tables["cli"], *tables["config"]),
        "indicator": ("target", "target", "any", "any"),
        "run_id": ("cli-run", "cli-run", "config-run", "config-run"),
        "artifact_dir": ("cli-artifacts", "cli-artifacts", "config-artifacts", "config-artifacts"),
        "degeneration.repeat_count": ("7", 7, 8, 8),
        "degeneration.block_size": ("2", 2, 4, 4),
        "degeneration.enum_count": ("30", 30, 40, 40),
        "degeneration.parse_valid_frac": ("0.5", 0.5, 0.7, 0.7),
        "degeneration.window_frac": ("0.8", 0.8, 0.9, 0.9),
    }


def _setting_field(config: pipeline.RunConfig, setting):
    owner = config.degeneration_config if setting.key.startswith("degeneration.") else config
    return getattr(owner, setting.field)


class TestSettingPrecedence:
    @pytest.mark.parametrize("setting", RUN_SETTINGS, ids=lambda s: s.key)
    def test_cli_then_config_then_default(self, setting, mini_corpus, tmp_path, monkeypatch):
        samples = _setting_samples(tmp_path)
        cli_word, cli_value, config_value, config_field, *overridden = samples[setting.key]

        def resolved(use_cli: bool, config_entry) -> object:
            captured = []
            monkeypatch.setattr(pipeline, "run_pipeline", lambda config: captured.append(config))
            args = []
            if config_entry is not None:
                section, _, name = setting.key.rpartition(".")
                entry = {section: {name: config_entry}} if section else {name: config_entry}
                config_path = tmp_path / "config.json"
                config_path.write_text(json.dumps(entry))
                args += ["--config", config_path]
            if use_cli:
                args += [setting.flag, cli_word]
            assert _run(args + ["pipeline", "--dataset", mini_corpus["tasks"],
                                "--completions", mini_corpus["completions"]]) == 0
            return _setting_field(captured[0], setting)

        assert resolved(True, overridden[0] if overridden else config_value) == cli_value
        assert resolved(False, config_value) == config_field
        assert resolved(False, None) == _setting_field(pipeline.RunConfig(dataset_path=""), setting)

    def test_samples_cover_every_setting(self, tmp_path):
        assert set(_setting_samples(tmp_path)) == {s.key for s in RUN_SETTINGS}

    @pytest.mark.parametrize(
        "entry",
        [{"jobs": "four"}, {"threshold_k": "many"}, {"wall_time_ms": "x"},
         {"interpreter": 3}, {"indicator": "bogus"},
         {"degeneration": {"window_frac": "wide"}}, {"degeneration": 3},
         {"threshold_k": 0}, {"jobs": 0},
         {"jobs": 2.7}, {"threshold_k": True}, {"wall_time_ms": 1500.9},
         {"memory_bytes": 2.0**28}, {"degeneration": {"repeat_count": 7.9}},
         {"degeneration": {"window_frac": True}}, {"degeneration": {"parse_valid_frac": False}},
         {"completions": 5}, {"dataset": ["tasks.jsonl"]}, {"interpreter": [1, 2]},
         {"interpreter": []}, {"interpreter": ""}, {"wall_time_ms": 50},
         {"memory_bytes": 1024}],
        ids=["jobs", "threshold_k", "wall_time_ms", "interpreter", "indicator",
             "window_frac", "degeneration-section", "threshold_k-zero", "jobs-zero",
             "jobs-float", "threshold_k-bool", "wall_time_ms-float", "memory_bytes-float",
             "repeat_count-float", "window_frac-bool", "parse_valid_frac-bool",
             "completions-number", "dataset-list", "interpreter-non-string-word",
             "interpreter-empty-list", "interpreter-empty-string",
             "wall_time_ms-below-minimum", "memory_bytes-below-minimum"],
    )
    def test_mistyped_config_value_is_config_error(self, entry, mini_corpus, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(entry))
        code = _run(["--config", config_path, "--out-dir", tmp_path / "out", "validate",
                     "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"]])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("entry", "named"),
        [({"thershold_k": 9}, "thershold_k"),
         ({"degeneration": {"repeat_cont": 3}}, "degeneration.repeat_cont"),
         ({"fail_fast": True}, "fail_fast")],
        ids=["misspelt", "misspelt-threshold", "removed"],
    )
    def test_unknown_config_key_is_config_error(
        self, entry, named, mini_corpus, tmp_path, capsys
    ):
        # Such a key would otherwise leave its setting at its default in silence.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(entry))
        code = _run(["--config", config_path, "--out-dir", tmp_path / "out", "pipeline",
                     "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"]])
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert error["message"] == f"unknown config keys: {named!r}"
        assert not (tmp_path / "out").exists()

    def test_empty_interpreter_flag_is_config_error(self, mini_corpus, tmp_path, capsys):
        # An empty command would otherwise run every program under the
        # harness's own interpreter.
        code = _run(["--interpreter", "", "--out-dir", tmp_path / "out", "pipeline",
                     "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"]])
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert error["message"] == "bad value for 'interpreter': the interpreter command is empty"
        assert not (tmp_path / "out").exists()

    def test_fail_fast_is_a_usage_error(self, mini_corpus, tmp_path, capsys):
        code = _run(["--fail-fast", "--out-dir", tmp_path / "out", "pipeline",
                     "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"]])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args", [["--jobs", "0"], ["--jobs", "-3"], ["--threshold-k", "0"]],
        ids=["jobs-zero", "jobs-negative", "threshold_k-zero"],
    )
    def test_non_positive_count_flag_is_config_error(self, args, mini_corpus, tmp_path, capsys):
        # Refused before any stage runs, not after validate and identify.
        code = _run([*args, "--out-dir", tmp_path / "out", "pipeline",
                     "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"]])
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert "must be at least 1" in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["--limits.wall-ms", "50"], ["--limits.mem-bytes", "5"]],
                             ids=["wall-ms", "mem-bytes"])
    def test_limit_flag_below_minimum_is_config_error(self, args, tmp_path, capsys):
        # Refused also by a stage that runs no program.
        code = _run([*args, "--out-dir", tmp_path / "out", "identify",
                     "--states", EXPECTED / "states.jsonl"])
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert "must be at least" in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("key", "value"),
        [("repeat_count", 1), ("block_size", 0), ("enum_count", 1), ("enum_count", 0),
         ("window_frac", 1.5), ("window_frac", -0.1), ("parse_valid_frac", 2.0)],
    )
    @pytest.mark.parametrize("source", ["cli", "config"])
    def test_out_of_range_threshold_is_config_error(
        self, source, key, value, mini_corpus, tmp_path, capsys
    ):
        # Such a threshold would gate every generation (or none) in silence.
        if source == "cli":
            args = [f"--degeneration.{key.replace('_', '-')}", value]
        else:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"degeneration": {key: value}}))
            args = ["--config", config_path]
        code = _run([*args, "--out-dir", tmp_path / "out", "validate",
                     "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"]])
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert f"degeneration.{key}" in error["message"]
        assert not (tmp_path / "out").exists()


class TestDegenerationFlags:
    def test_threshold_flag_changes_verdict(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        dataset.write_text(
            json.dumps(
                {
                    "task_id": "t",
                    "question": "q",
                    "test_cases": [{"input": "", "expected_output": "ok\nok\nok\nok"}],
                }
            )
            + "\n"
        )
        completions = tmp_path / "completions.jsonl"
        source = "print('ok')\n" * 4  # four repeats: below the default threshold
        completions.write_text(
            json.dumps({"task_id": "t", "model_id": "m", "raw_response": source}) + "\n"
        )
        out_default = tmp_path / "default"
        assert _run(["--out-dir", out_default, "validate", "--dataset", dataset,
                     "--completions", completions]) == 0
        default_records = _read_lines(out_default / STATES_FILE)
        assert default_records[0]["status"] == "pass"

        out_strict = tmp_path / "strict"
        assert _run(["--out-dir", out_strict, "--degeneration.repeat-count", "3",
                     "validate", "--dataset", dataset, "--completions", completions]) == 0
        strict_records = _read_lines(out_strict / STATES_FILE)
        assert strict_records[0]["status"] == "not_executed"
        assert strict_records[0]["classification"]["cause"] == "stuttering"


# The input-file options each command takes.
_COMMAND_INPUTS = {
    "validate": ["--dataset", "--completions"],
    "identify": ["--states"],
    "build-bench": ["--profiles"],
    "evaluate": ["--benchmark", "--profiles"],
    "report": ["--profiles"],
    "pipeline": ["--dataset", "--completions"],
}


class TestParser:
    def test_top_level_help_lists_every_setting(self, capsys):
        assert _run(["--help"]) == 0
        out = capsys.readouterr().out
        for setting in RUN_SETTINGS:
            assert setting.flag in out, setting.flag
        for command in _COMMAND_INPUTS:
            assert command in out, command

    @pytest.mark.parametrize("command", sorted(_COMMAND_INPUTS))
    def test_command_help_lists_its_inputs(self, command, capsys):
        assert _run([command, "--help"]) == 0
        out = capsys.readouterr().out
        for option in _COMMAND_INPUTS[command]:
            assert option in out, option
        if "--dataset" not in _COMMAND_INPUTS[command]:
            assert "--dataset" not in out

    def test_no_command_is_one_json_error_line(self, capsys):
        assert _run([]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_options_take_no_prefix(self, mini_corpus, tmp_path, capsys):
        # --out must not be read as --out-dir.
        assert _run(["--out", tmp_path / "out", "validate", "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"]]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    def test_missing_input_file_is_one(self, tmp_path, capsys):
        assert _run(["--out-dir", tmp_path / "out", "identify",
                     "--states", tmp_path / "absent.jsonl"]) == 1
        assert "absent.jsonl" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "route",
        ["flag", "directory", "config-dataset", "config-completions", "identify",
         "build-bench", "evaluate", "report"],
    )
    def test_missing_input_is_one_on_every_route(self, route, mini_corpus, tmp_path, capsys):
        # A path from a config key or a stage's default input in the out
        # dir is read as one from a flag is; so is a directory.
        out, absent = tmp_path / "out", tmp_path / "absent.jsonl"
        if route == "directory":
            absent.mkdir()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "config-dataset": {"dataset": str(absent),
                               "completions": str(mini_corpus["completions"])},
            "config-completions": {"dataset": str(mini_corpus["tasks"]),
                                   "completions": str(absent)},
        }.get(route, {})))
        flag = ["validate", "--dataset", absent, "--completions", mini_corpus["completions"]]
        args = {
            "flag": flag,
            "directory": flag,
            "config-dataset": ["validate"],
            "config-completions": ["validate"],
        }.get(route, [route])
        assert _run(["--config", config, "--out-dir", out, *args]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        missing = out if route in ("identify", "build-bench", "evaluate", "report") else absent
        assert error["message"].startswith(f"cannot read {missing}")
        assert not out.exists()

    def test_import_loads_only_stdlib_modules(self):
        # Compared with a bare interpreter, since site hooks may preload
        # packages of their own.
        src_root = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
        probe = "import json, sys\n{}\nprint(json.dumps([m.split('.')[0] for m in sys.modules]))"

        def top_level_modules(statement: str) -> set[str]:
            proc = subprocess.run([sys.executable, "-c", probe.format(statement)], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            return set(json.loads(proc.stdout))

        added = top_level_modules("import haluscope.cli, haluscope.pipeline") - \
            top_level_modules("pass")
        assert {m for m in added if m not in sys.stdlib_module_names} == {"haluscope"}


class TestSafeNames:
    @pytest.mark.parametrize(
        "pairs, response",
        [([("a b", "m"), ("a_b", "m")], "print()"), ([("a__b", "c"), ("a", "b__c")], "print()"),
         ([("t", "m__s0"), ("t", "m", 0)], "print()"), ([("a b", "m"), ("a_b", "m")], STUTTER)],
        ids=["unsafe-character", "separator", "sample-suffix", "gated-response"],
    )
    def test_artifact_dir_refuses_pairs_sharing_a_directory(
        self, pairs, response, tmp_path, capsys
    ):
        # Each key is (task, model), or (task, model, sample index). Gated
        # completions are refused too: they would share a directory as well.
        tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
        _write_lines(tasks, [json.dumps({**_TASK, "task_id": task_id})
                             for task_id in sorted({key[0] for key in pairs})])
        _write_lines(completions, [
            json.dumps({"task_id": task_id, "model_id": model_id, "raw_response": response,
                        **{"sample_index": index for index in sample}})
            for task_id, model_id, *sample in pairs
        ])
        artifacts = tmp_path / "artifacts"
        args = ["validate", "--dataset", tasks, "--completions", completions]
        assert _run(["--artifact-dir", artifacts, "--out-dir", tmp_path / "out", *args]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValidationError"
        for key in pairs:
            assert repr(key) in error["message"]
        assert not artifacts.exists()
        # Without --artifact-dir nothing is named after the pairs.
        assert _run(["--out-dir", tmp_path / "plain", *args]) == 0
