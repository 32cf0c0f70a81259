from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from haluscope import pipeline, taxonomy
from haluscope.cli import RUN_SETTINGS, main
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
_MANIFEST_SUMMARY = {
    "record_type": "summary",
    "provenance": {"run_ids": [], "threshold_k": 2},
    "categories": [],
}
_TASK = {"task_id": "t", "question": "q", "test_cases": [{"input": "", "expected_output": ""}]}


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert _run(["validate", "--no-such-flag"]) == 1
        err = capsys.readouterr().err
        assert json.loads(err)["exit_code"] == 1

    def test_missing_dataset_config_is_one(self, tmp_path, capsys):
        assert _run(["--out-dir", tmp_path, "validate"]) == 1

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
        "source, status",
        [("x = " + "-" * 100_000 + "1\nprint(x)\n", "runtime_failure"),
         ("x = 0" + "+1" * 200_000 + "\n", "not_executed")],
        ids=["parser-exhausted", "recursion-exhausted"],
    )
    def test_pathological_nesting_reaches_a_state(self, source, status, tmp_path):
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
        assert _run(["--out-dir", out, "--threshold-k", "1", "pipeline",
                     "--dataset", tasks, "--completions", completions]) == 0
        rows = [r for r in _read_lines(out / STATES_FILE) if r["model_id"] == "nested"]
        assert rows and all(r["status"] == status for r in rows)

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
        dataset = tmp_path / "tasks.jsonl"
        dataset.write_text(
            json.dumps(
                {
                    "task_id": "t",
                    "question": "q",
                    "test_cases": [{"input": "", "expected_output": ""}],
                }
            )
            + "\n"
        )
        code = _run(["--out-dir", out, "evaluate", "--dataset", dataset])
        assert code != 0
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ReportError"

    @pytest.mark.parametrize(
        "command, filename, bad_record",
        [
            ("identify", STATES_FILE,
             json.dumps({k: v for k, v in _STATE_ROW.items() if k != "test_count"})),
            ("identify", STATES_FILE, "[1, 2]"),
            ("evaluate", BENCHMARK_FILE,
             json.dumps({"record_type": "entry", "task_id": "t", "target_subcategory": "bogus",
                         "observed_frequency": 3, "contributing_models": ["m"]})),
            ("validate", "tasks.jsonl",
             json.dumps({**_TASK, "task_id": "u", "limits": {"wall_time_ms": "x"}})),
        ],
        ids=["states-missing-field", "states-not-an-object", "manifest-bad-subcategory",
             "tasks-bad-limit"],
    )
    def test_malformed_artifact_names_path_and_line(
        self, tmp_path, capsys, command, filename, bad_record
    ):
        out = tmp_path / "out"
        out.mkdir()
        path = out / filename
        first = {STATES_FILE: _STATE_ROW, BENCHMARK_FILE: _MANIFEST_SUMMARY}.get(filename, _TASK)
        _write_lines(path, [json.dumps(first), bad_record])
        args = ["--out-dir", out, command]
        if command == "validate":
            completions = tmp_path / "completions.jsonl"
            _write_lines(completions, [json.dumps({"task_id": "t", "model_id": "m",
                                                   "raw_response": "print()"})])
            args += ["--dataset", path, "--completions", completions]
        assert _run(args) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "IngestionError"
        assert payload["exit_code"] == 2
        assert payload["message"].startswith(f"{path}:2: ")

    def test_mutually_exclusive_sources(self, mini_corpus, tmp_path):
        provider = tmp_path / "provider.json"
        provider.write_text(json.dumps({"endpoint": "file", "model_id": "m", "path": "."}))
        code = _run(["--out-dir", tmp_path / "out", "validate",
                     "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"],
                     "--provider", provider])
        assert code == 1


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
        "fail_fast": (None, True, True, True, False),
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
                args += [setting.flag] if setting.is_flag else [setting.flag, cli_word]
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
         {"interpreter": 3}, {"fail_fast": "false"}, {"indicator": "bogus"},
         {"degeneration": {"window_frac": "wide"}}, {"degeneration": 3}],
        ids=["jobs", "threshold_k", "wall_time_ms", "interpreter", "fail_fast", "indicator",
             "window_frac", "degeneration-section"],
    )
    def test_mistyped_config_value_is_config_error(self, entry, mini_corpus, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(entry))
        code = _run(["--config", config_path, "--out-dir", tmp_path / "out", "validate",
                     "--dataset", mini_corpus["tasks"],
                     "--completions", mini_corpus["completions"]])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()


class TestFileProviderFlow:
    def test_validate_with_file_provider(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        dataset.write_text(
            json.dumps(
                {
                    "task_id": "pt",
                    "question": "print double",
                    "test_cases": [{"input": "4", "expected_output": "8"}],
                }
            )
            + "\n"
        )
        store = tmp_path / "responses"
        store.mkdir()
        (store / "pt__stored-model.json").write_text(
            json.dumps({"text": "```python\nprint(int(input())*2)\n```"})
        )
        provider = tmp_path / "provider.json"
        provider.write_text(
            json.dumps({"endpoint": "file", "model_id": "stored-model", "path": str(store)})
        )
        out = tmp_path / "out"
        assert _run(["--out-dir", out, "validate", "--dataset", dataset,
                     "--provider", provider]) == 0
        records = _read_lines(out / STATES_FILE)
        assert len(records) == 1
        assert records[0]["status"] == "pass"
        # fetched completions are persisted for audit
        assert (out / "completions.jsonl").exists()


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
