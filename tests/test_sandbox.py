from __future__ import annotations

import json
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haluscope.corpus import Completion, Dataset, ResourceLimits, Task, TestCase
from haluscope.pipeline import RunConfig, classify_corpus, validate_stage
from haluscope.sandbox import (
    ENFORCEMENT_SLACK_MS,
    ExecutionRequest,
    ProcessExit,
    Status,
    classify_termination,
    compare_output,
    execute,
    execute_batch,
    outcome_from_dict,
    outcome_to_dict,
)
from test_cli import normalize_measurements

LIMITS = ResourceLimits(wall_time_ms=3000, memory_bytes=256 * 2**20)
# An interpreter other than the harness's own, so compiling takes a child.
FOREIGN = [sys.executable, "-u"]


class TestCompareOutput:
    def test_trailing_newline_normalized(self):
        assert compare_output("6\n", "6") is True

    def test_interior_whitespace_significant_in_exact_mode(self):
        assert compare_output("1 2", "1  2") is False

    def test_numeric_mode_tolerance(self):
        assert compare_output("0.3333333", "0.3333334") is False
        assert compare_output("0.3333333", "0.3333334", numeric_mode=True) is True

    def test_numeric_mode_respects_tolerance_bound(self):
        assert compare_output("1.0", "1.1", numeric_mode=True) is False

    def test_trailing_blank_lines_dropped(self):
        assert compare_output("a\nb\n\n\n", "a\nb") is True

    def test_per_line_trailing_whitespace_stripped(self):
        assert compare_output("a   \nb\t", "a\nb") is True

    def test_leading_whitespace_significant(self):
        assert compare_output("  a", "a") is False

    def test_numeric_mode_non_numeric_tokens_compare_exactly(self):
        assert compare_output("abc 1.0", "abc 1.0000001", numeric_mode=True) is True
        assert compare_output("abc 1.0", "abd 1.0", numeric_mode=True) is False

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet="ab 1", max_size=8), max_size=6))
    def test_trailing_whitespace_invariance(self, lines):
        text = "\n".join(lines)
        padded = "\n".join(line + "  " for line in lines) + "\n\n"
        assert compare_output(text, padded) is True


class TestExecute:
    def test_pass(self):
        outcome = execute("print(int(input())*2)", TestCase("3", "6"), LIMITS)
        assert outcome.status is Status.PASS
        assert outcome.actual_output == "6\n"

    def test_undefined_name_is_runtime_failure(self):
        outcome = execute("for i in range(N):\n    print(i)\n", TestCase("", ""), LIMITS)
        assert outcome.status is Status.RUNTIME_FAILURE
        assert outcome.exception_name == "NameError"

    def test_busy_loop_hits_time_limit(self):
        limits = ResourceLimits(wall_time_ms=1000, memory_bytes=256 * 2**20)
        outcome = execute("while True: pass", TestCase("", ""), limits)
        assert outcome.status is Status.TIME_LIMIT_EXCEEDED
        assert 1000 <= outcome.wall_time_ms <= 1000 + ENFORCEMENT_SLACK_MS

    def test_allocation_bomb_hits_memory_limit(self):
        limits = ResourceLimits(wall_time_ms=8000, memory_bytes=128 * 2**20)
        outcome = execute("x = [0]\nwhile True:\n    x = x + x\n", TestCase("", ""), limits)
        assert outcome.status is Status.MEMORY_LIMIT_EXCEEDED

    def test_syntax_failure_detected_before_input(self):
        outcome = execute("def f(:\n", TestCase("ignored", ""), LIMITS)
        assert outcome.status is Status.SYNTAX_FAILURE
        assert "SyntaxError" in outcome.exception_message
        assert outcome.exception_name == ""  # reserved for runtime failures

    def test_wrong_output(self):
        outcome = execute("print(5)", TestCase("", "6"), LIMITS)
        assert outcome.status is Status.WRONG_OUTPUT
        assert outcome.actual_output == "5\n"

    def test_socket_connect_blocked(self):
        source = (
            "import socket\n"
            "socket.create_connection(('93.184.216.34', 80), 3)\n"
            "print('CONNECTED')\n"
        )
        outcome = execute(source, TestCase("", "CONNECTED"), LIMITS)
        assert outcome.status is not Status.PASS
        assert "CONNECTED" not in outcome.actual_output

    def test_missing_interpreter_is_sandbox_error(self):
        outcome = execute("print(1)", TestCase("", "1"), LIMITS, interpreter=["/no/such/bin"])
        assert outcome.status is Status.SANDBOX_ERROR

    def test_totality_on_weird_source(self):
        # nothing a program does should raise out of the harness
        for source in ("print(1)\x00", "﻿print(1)", "", "\x00\x01\x02"):
            outcome = execute(source, TestCase("", "1"), LIMITS)
            assert isinstance(outcome.status, Status)
            assert outcome.status is not Status.SANDBOX_ERROR

    def test_stdin_fed_to_program(self):
        outcome = execute(
            "import sys\nprint(sys.stdin.read().strip().upper())",
            TestCase("hello", "HELLO"),
            LIMITS,
        )
        assert outcome.status is Status.PASS

    def test_sys_exit_nonzero_is_unknown_runtime_failure(self):
        outcome = execute("import sys\nsys.exit(7)", TestCase("", ""), LIMITS)
        assert outcome.status is Status.RUNTIME_FAILURE
        assert outcome.exception_name == "UnknownError"

    def test_fresh_working_directory(self):
        source = (
            "import os\n"
            "open('scratch.txt', 'w').write('x')\n"
            "print(sorted(os.listdir('.')))\n"
        )
        first = execute(source, TestCase("", ""), LIMITS)
        second = execute(source, TestCase("", ""), LIMITS)
        assert first.actual_output == second.actual_output  # no leakage across runs

    def test_artifact_directory(self, tmp_path):
        outcome = execute(
            "print(int(input())+1)", TestCase("1", "2"), LIMITS, artifact_dir=tmp_path / "a"
        )
        assert outcome.status is Status.PASS
        stored = json.loads((tmp_path / "a" / "outcome.json").read_text())
        assert stored["status"] == "pass"
        assert (tmp_path / "a" / "stdin.txt").read_text() == "1"


class TestCompileStage:
    @pytest.mark.parametrize(
        "source, status, prefix",
        [
            ("def f(:\n", Status.SYNTAX_FAILURE, "SyntaxError: invalid syntax"),
            ("if True:\nprint(1)\n", Status.SYNTAX_FAILURE,
             "IndentationError: expected an indented block"),
            ("  print(1)\n", Status.SYNTAX_FAILURE, "IndentationError: unexpected indent"),
            ("if True:\n\tx = 1\n        print(x)\n", Status.SYNTAX_FAILURE,
             "TabError: inconsistent use of tabs and spaces"),
            ("return 1\n", Status.SYNTAX_FAILURE, "SyntaxError: 'return' outside function"),
            ("print(1)\x00", Status.SYNTAX_FAILURE, "SyntaxError: source code"),
            ("print(1)\n", Status.PASS, ""),
        ],
        ids=["invalid", "missing-indent", "unexpected-indent", "mixed-tabs", "return-outside",
             "null-byte", "valid"],
    )
    def test_in_process_and_child_compile_agree(self, source, status, prefix):
        own = execute(source, TestCase("", "1"), LIMITS)
        foreign = execute(source, TestCase("", "1"), LIMITS, interpreter=FOREIGN)
        for outcome in (own, foreign):
            assert outcome.status is status
            assert outcome.exception_message.startswith(prefix)
            assert outcome.exception_name == ""

    @pytest.mark.parametrize(
        "source, interpreter, children",
        [
            ("print(1)", None, 1),
            ("print(1)", [sys.executable], 1),
            ("def f(:\n", None, 0),
            ("print(1)", FOREIGN, 2),
            ("def f(:\n", FOREIGN, 1),
        ],
        ids=["own-pass", "own-explicit-pass", "own-syntax", "foreign-pass", "foreign-syntax"],
    )
    def test_child_count(self, source, interpreter, children, monkeypatch):
        started = []

        class CountingPopen(subprocess.Popen):
            def __init__(self, args, *rest, **kwargs):
                started.append(args)
                super().__init__(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", CountingPopen)
        execute(source, TestCase("", "1"), LIMITS, interpreter=interpreter)
        assert len(started) == children

    def test_coding_cookie_read_from_the_bytes(self):
        # prog.py's bytes are compiled, not the str, so an unknown encoding
        # is a syntax failure, as it is for a child reading the file.
        outcome = execute("# coding: bogus\nprint(1)\n", TestCase("", "1"), LIMITS)
        assert outcome.status is Status.SYNTAX_FAILURE
        assert outcome.exception_message == "SyntaxError: unknown encoding: bogus"


class TestClassifyTermination:
    def test_last_exception_line_wins_for_chained(self):
        stderr = (
            "Traceback (most recent call last):\n"
            '  File "prog.py", line 2, in <module>\n'
            "ValueError: invalid literal for int() with base 10: 'x'\n"
            "\nThe above exception was the direct cause of the following exception:\n\n"
            "Traceback (most recent call last):\n"
            '  File "prog.py", line 4, in <module>\n'
            "ValueError: bad literal\n"
        )
        raw = ProcessExit(returncode=1, timed_out=False, stage="run", memory_limit_bytes=2**28)
        termination = classify_termination(raw, stderr)
        assert termination.status is Status.RUNTIME_FAILURE
        assert termination.exception_name == "ValueError"
        assert termination.exception_message == "bad literal"

    def test_nameerror_final_line(self):
        stderr = (
            "Traceback (most recent call last):\n"
            '  File "prog.py", line 1, in <module>\n'
            "NameError: name 'N' is not defined\n"
        )
        raw = ProcessExit(returncode=1, timed_out=False, stage="run", memory_limit_bytes=2**28)
        assert classify_termination(raw, stderr).exception_name == "NameError"

    def test_unparseable_stderr_is_unknown(self):
        raw = ProcessExit(returncode=2, timed_out=False, stage="run", memory_limit_bytes=2**28)
        termination = classify_termination(raw, "something exploded, no traceback")
        assert termination.status is Status.RUNTIME_FAILURE
        assert termination.exception_name == "UnknownError"

    def test_program_stderr_noise_not_mistaken_for_exception(self):
        raw = ProcessExit(returncode=3, timed_out=False, stage="run", memory_limit_bytes=2**28)
        termination = classify_termination(raw, "progress: 10%\ndone: ok\n")
        assert termination.exception_name == "UnknownError"

    def test_memory_error_beats_timer(self):
        stderr = (
            "Traceback (most recent call last):\n"
            '  File "prog.py", line 3, in <module>\n'
            "MemoryError\n"
        )
        raw = ProcessExit(returncode=1, timed_out=True, stage="run", memory_limit_bytes=2**28)
        assert classify_termination(raw, stderr).status is Status.MEMORY_LIMIT_EXCEEDED

    def test_sigkill_with_peak_near_limit_is_memory(self):
        raw = ProcessExit(
            returncode=-int(signal.SIGKILL),
            timed_out=False,
            stage="run",
            memory_limit_bytes=2**28,
            peak_memory_bytes=int(0.97 * 2**28),
        )
        assert classify_termination(raw, "").status is Status.MEMORY_LIMIT_EXCEEDED

    def test_timer_kill_with_high_peak_is_still_timeout(self):
        raw = ProcessExit(
            returncode=-int(signal.SIGKILL),
            timed_out=True,
            stage="run",
            memory_limit_bytes=2**28,
            peak_memory_bytes=int(0.97 * 2**28),
        )
        assert classify_termination(raw, "").status is Status.TIME_LIMIT_EXCEEDED

    def test_sigxcpu_is_timeout(self):
        raw = ProcessExit(
            returncode=-int(signal.SIGXCPU),
            timed_out=False,
            stage="run",
            memory_limit_bytes=2**28,
        )
        assert classify_termination(raw, "").status is Status.TIME_LIMIT_EXCEEDED

    def test_compile_stage_syntax(self):
        stderr = (
            '  File "prog.py", line 1\n'
            "    def f(:\n"
            "          ^\n"
            "SyntaxError: invalid syntax\n"
        )
        raw = ProcessExit(returncode=1, timed_out=False, stage="compile", memory_limit_bytes=2**28)
        termination = classify_termination(raw, stderr)
        assert termination.status is Status.SYNTAX_FAILURE

    def test_compile_stage_inconclusive_returns_none(self):
        raw = ProcessExit(returncode=1, timed_out=False, stage="compile", memory_limit_bytes=2**28)
        assert classify_termination(raw, "py_compile: no such module") is None

    def test_clean_exit_returns_none(self):
        raw = ProcessExit(returncode=0, timed_out=False, stage="run", memory_limit_bytes=2**28)
        assert classify_termination(raw, "") is None

    def test_dotted_exception_name_uses_leaf(self):
        stderr = (
            "Traceback (most recent call last):\n"
            '  File "prog.py", line 1, in <module>\n'
            "socket.gaierror: [Errno -2] Name or service not known\n"
        )
        raw = ProcessExit(returncode=1, timed_out=False, stage="run", memory_limit_bytes=2**28)
        assert classify_termination(raw, stderr).exception_name == "gaierror"


class TestIsolationAndBatch:
    def test_order_independence(self):
        sources = [
            ("print(int(input())+1)", TestCase("1", "2")),
            ("print(undefined_thing)", TestCase("", "")),
            ("print('wrong')", TestCase("", "right")),
            ("print(input()[::-1])", TestCase("ab", "ba")),
        ]
        requests = [
            ExecutionRequest(key=(i,), source_code=s, test=t, limits=LIMITS)
            for i, (s, t) in enumerate(sources)
        ]
        forward = [o.status for o in execute_batch(requests, jobs=1)]
        reverse = [o.status for o in execute_batch(list(reversed(requests)), jobs=2)]
        assert forward == list(reversed(reverse))

    def test_classify_corpus_runs_every_test(self):
        task = Task(
            task_id="t",
            question="q",
            test_cases=(TestCase("1", "2"), TestCase("2", "3"), TestCase("3", "5")),
            limits=LIMITS,
        )
        source = "print(int(input())+1)"
        pairs = classify_corpus(
            Dataset("d", (task,)), [Completion("t", "m", source, source)], jobs=2
        )
        assert [o.status for _, o in pairs] == [Status.PASS, Status.PASS, Status.WRONG_OUTPUT]
        assert [r.test_index for r, _ in pairs] == [0, 1, 2]

    def test_classify_corpus_fail_fast_stops_per_completion(self):
        pairs = classify_corpus(*_fail_fast_corpus(), fail_fast=True)
        statuses: dict[str, list[Status]] = {}
        for record, outcome in pairs:
            statuses.setdefault(record.model_id, []).append(outcome.status)
        assert statuses == {
            "m-first": [Status.WRONG_OUTPUT],
            "m-pass": [Status.PASS, Status.PASS, Status.PASS],
            "m-second": [Status.PASS, Status.WRONG_OUTPUT],
        }

    def test_fail_fast_states_independent_of_jobs(self, mini_corpus, tmp_path):
        states = []
        for jobs in (1, 4):
            config = RunConfig(
                dataset_path=str(mini_corpus["tasks"]),
                completions_path=str(mini_corpus["completions"]),
                out_dir=str(tmp_path / f"jobs{jobs}"),
                jobs=jobs,
                fail_fast=True,
            )
            states.append(normalize_measurements(validate_stage(config).read_text()))
        assert states[0] == states[1]
        assert len(states[0].splitlines()) < 48  # some completions stopped early

    def test_fail_fast_artifact_dirs_distinct_per_model(self, tmp_path):
        dataset, completions = _fail_fast_corpus()
        classify_corpus(dataset, completions, fail_fast=True, artifact_root=str(tmp_path))
        dirs = sorted(str(p.parent.relative_to(tmp_path)) for p in tmp_path.rglob("prog.py"))
        assert dirs == [
            "t__m-first/test_000",
            "t__m-pass/test_000",
            "t__m-pass/test_001",
            "t__m-pass/test_002",
            "t__m-second/test_000",
            "t__m-second/test_001",
        ]
        sources = {c.model_id: c.source_code for c in completions}
        for directory in dirs:
            model_id = directory.split("/")[0].split("__")[1]
            assert (tmp_path / directory / "prog.py").read_text() == sources[model_id]


def _fail_fast_corpus() -> tuple[Dataset, list[Completion]]:
    """One three-test task answered by a program passing every test, one
    failing the first test and one failing the second."""
    task = Task(
        task_id="t",
        question="q",
        test_cases=(TestCase("1", "2"), TestCase("2", "3"), TestCase("3", "4")),
        limits=LIMITS,
    )
    sources = {
        "m-pass": "print(int(input())+1)",
        "m-first": "print(int(input())+2)",
        "m-second": "n = int(input())\nprint(n+1 if n < 2 else 0)",
    }
    completions = [Completion("t", model, src, src) for model, src in sources.items()]
    return Dataset("d", (task,)), completions


def test_outcome_round_trip():
    outcome = execute("print(undefined)", TestCase("", ""), LIMITS)
    assert outcome_from_dict(outcome_to_dict(outcome)) == outcome
