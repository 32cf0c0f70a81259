from __future__ import annotations

import contextlib
import errno
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haluscope
from haluscope import sandbox
from haluscope.corpus import Completion, ResourceLimits, Task, TestCase
from haluscope.pipeline import RunConfig, classify_corpus, validate_stage
from haluscope.sandbox import (
    ExecutionOutcome,
    ExecutionRequest,
    ProcessExit,
    Status,
    classify_termination,
    compare_output,
    execute,
    execute_batch,
    outcome_to_dict,
)
from test_cli import LONE_SURROGATE

LIMITS = ResourceLimits(wall_time_ms=3000, memory_bytes=256 * 2**20)
# Extra wall time the enforcement machinery may consume beyond the limit.
ENFORCEMENT_SLACK_MS = 500
# An interpreter argv other than the harness's own, as `--interpreter` gives.
FOREIGN = [sys.executable, "-u"]


class TestCompareOutput:
    def test_trailing_newline_normalized(self):
        assert compare_output("6\n", "6") is True

    def test_interior_whitespace_significant_in_exact_mode(self):
        assert compare_output("1 2", "1  2") is False
        assert compare_output("0.3333333", "0.3333334") is False

    def test_trailing_blank_lines_dropped(self):
        assert compare_output("a\nb\n\n\n", "a\nb") is True

    def test_per_line_trailing_whitespace_stripped(self):
        assert compare_output("a   \nb\t", "a\nb") is True

    def test_leading_whitespace_significant(self):
        assert compare_output("  a", "a") is False

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet="ab 1", max_size=8), max_size=6))
    def test_trailing_whitespace_invariance(self, lines):
        text = "\n".join(lines)
        padded = "\n".join(line + "  " for line in lines) + "\n\n"
        assert compare_output(text, padded) is True


class TestExecute:
    def test_pass(self, tmp_path):
        outcome = execute(
            "print(int(input())*2)", TestCase("3", "6"), LIMITS, artifact_dir=tmp_path
        )
        assert outcome.status is Status.PASS
        assert (tmp_path / "stdout.txt").read_text() == "6\n"

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

    def test_wrong_output(self, tmp_path):
        outcome = execute("print(5)", TestCase("", "6"), LIMITS, artifact_dir=tmp_path)
        assert outcome.status is Status.WRONG_OUTPUT
        assert (tmp_path / "stdout.txt").read_text() == "5\n"

    def test_socket_connect_blocked(self, tmp_path):
        source = (
            "import socket\n"
            "socket.create_connection(('93.184.216.34', 80), 3)\n"
            "print('CONNECTED')\n"
        )
        outcome = execute(source, TestCase("", "CONNECTED"), LIMITS, artifact_dir=tmp_path)
        assert outcome.status is not Status.PASS
        assert "CONNECTED" not in (tmp_path / "stdout.txt").read_text()

    def test_interpreter_started_by_the_program_is_guarded(self):
        connect = (
            "import socket\n"
            "try:\n"
            "    socket.create_connection(('127.0.0.1', 9), 1)\n"
            "except OSError as exc:\n"
            "    print(exc.errno)\n"
        )
        source = (
            "import subprocess, sys\n"
            f"proc = subprocess.run([sys.executable, '-c', {connect!r}], capture_output=True)\n"
            "print(proc.stdout.decode().strip())\n"
        )
        outcome = execute(source, TestCase("", str(errno.EPERM)), LIMITS)
        assert outcome.status is Status.PASS, outcome

    def test_missing_interpreter_is_sandbox_error(self):
        outcome = execute("print(1)", TestCase("", "1"), LIMITS, interpreter=["/no/such/bin"])
        assert outcome.status is Status.SANDBOX_ERROR

    def test_totality_on_weird_source(self):
        # nothing a program does should raise out of the harness
        removing = "import os\nos.remove({!r})\n"
        for source in ("print(1)\x00", "﻿print(1)", "", "\x00\x01\x02",
                       removing.format("stdout.txt"),
                       removing.format("stderr.txt") + "raise ValueError\n", LONE_SURROGATE):
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

    def test_fresh_working_directory(self, tmp_path):
        source = (
            "import os\n"
            "open('scratch.txt', 'w').write('x')\n"
            "print(sorted(os.listdir('.')))\n"
        )
        for run in ("first", "second"):
            execute(source, TestCase("", ""), LIMITS, artifact_dir=tmp_path / run)
        # no leakage across runs
        assert (tmp_path / "first" / "stdout.txt").read_text() == (
            tmp_path / "second" / "stdout.txt").read_text()

    def test_thread_dying_of_memory_error_does_not_fail_a_clean_exit(self):
        outcome = execute(PARITY_PROGRAMS["thread-exception"], TestCase("", "main"), LIMITS)
        assert outcome.status is Status.PASS
        assert outcome.exception_name == ""

    def test_artifact_directory(self, tmp_path):
        outcome = execute(
            "print(int(input())+1)", TestCase("1", "2"), LIMITS, artifact_dir=tmp_path / "a"
        )
        assert outcome.status is Status.PASS
        stored = json.loads((tmp_path / "a" / "outcome.json").read_text())
        assert stored["status"] == "pass"
        assert (tmp_path / "a" / "stdin.txt").read_text() == "1"

    def test_artifact_directory_holds_the_streams(self, tmp_path):
        source = "print('partial')\nraise ValueError('bad')\n"
        outcome = execute(source, TestCase("", "partial"), LIMITS, artifact_dir=tmp_path)
        assert outcome.status is Status.RUNTIME_FAILURE
        assert (tmp_path / "stdout.txt").read_text() == "partial\n"
        stderr = (tmp_path / "stderr.txt").read_text()
        assert stderr.startswith("Traceback (most recent call last):\n")
        assert stderr.endswith("ValueError: bad\n")
        assert set(json.loads((tmp_path / "outcome.json").read_text())) == {
            "status", "exception_name", "exception_message", "wall_time_ms", "peak_memory_bytes"
        }

    def test_capture_file_replaced_by_a_fifo(self):
        # Opening a FIFO for reading waits for a writer; the harness must not.
        harness = (
            "import json\n"
            "from haluscope.corpus import ResourceLimits, TestCase\n"
            "from haluscope.sandbox import ExecutionRequest, execute_batch\n"
            "limits = ResourceLimits(wall_time_ms=2000, memory_bytes=256 * 2**20)\n"
            "fifo = 'import os\\nos.remove({0!r})\\nos.mkfifo({0!r})\\n'\n"
            "sources = [fifo.format('stdout.txt'),"
            " fifo.format('stderr.txt') + 'raise ValueError\\n']\n"
            "requests = [ExecutionRequest(s, TestCase('', ''), limits) for s in sources]\n"
            "outcomes = execute_batch(requests)\n"
            "print(json.dumps([[o.status.value, o.exception_name] for o in outcomes]))\n"
        )
        proc = _run_harness(harness)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            ["pass", ""], ["runtime_failure", "UnknownError"]
        ]

    def test_memory_does_not_grow_with_the_executions(self):
        # Each program prints 40 MiB; a harness keeping what they print
        # would peak 40 MiB higher per execution.
        harness = (
            "import json, resource\n"
            "from haluscope.corpus import ResourceLimits, TestCase\n"
            "from haluscope.sandbox import ExecutionRequest, execute_batch\n"
            "limits = ResourceLimits(wall_time_ms=10000, memory_bytes=256 * 2**20)\n"
            "request = ExecutionRequest(\"print('x' * (40 * 2**20))\", TestCase('', ''), limits)\n"
            "peaks = []\n"
            "for count in (1, 4):\n"
            "    outcomes = execute_batch([request] * count)\n"
            "    assert {o.status.value for o in outcomes} == {'wrong_output'}\n"
            "    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "print(json.dumps(peaks))\n"
        )
        proc = _run_harness(harness)
        assert proc.returncode == 0, proc.stderr
        one, four = json.loads(proc.stdout.splitlines()[-1])
        assert four - one < 8 * 2**10  # ru_maxrss is in KiB


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
    def test_own_and_foreign_interpreter_agree(self, source, status, prefix):
        own = execute(source, TestCase("", "1"), LIMITS)
        foreign = execute(source, TestCase("", "1"), LIMITS, interpreter=FOREIGN)
        for outcome in (own, foreign):
            assert outcome.status is status
            assert outcome.exception_message.startswith(prefix)
            assert outcome.exception_name == ""

    @pytest.mark.parametrize(
        "source, interpreter",
        [
            ("print(1)", None),
            ("print(1)", [sys.executable]),
            ("def f(:\n", None),
            ("print(1)", FOREIGN),
            ("def f(:\n", FOREIGN),
        ],
        ids=["own-pass", "own-explicit-pass", "own-syntax", "foreign-pass", "foreign-syntax"],
    )
    def test_child_count(self, source, interpreter, monkeypatch):
        # The one-shot fork server is the only child: its forked child
        # compiles prog.py, whatever the interpreter.
        started = []

        class CountingPopen(subprocess.Popen):
            def __init__(self, args, *rest, **kwargs):
                started.append(args)
                super().__init__(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", CountingPopen)
        execute(source, TestCase("", "1"), LIMITS, interpreter=interpreter)
        assert len(started) == 1

    def test_syntax_error_raised_by_the_program_is_runtime_failure(self):
        outcome = execute("print(1)\neval('def f(:')\n", TestCase("", "1"), LIMITS)
        assert outcome.status is Status.RUNTIME_FAILURE
        assert outcome.exception_name == "SyntaxError"

    def test_coding_cookie_read_from_the_bytes(self):
        # prog.py's bytes are compiled, not the str, so an unknown encoding
        # is a syntax failure, as it is for a child reading the file.
        outcome = execute("# coding: bogus\nprint(1)\n", TestCase("", "1"), LIMITS)
        assert outcome.status is Status.SYNTAX_FAILURE
        assert outcome.exception_message == "SyntaxError: unknown encoding: bogus"


_DELETED = (
    "import atexit\n"
    "atexit.register(lambda: print('atexit'))\n"
    "class Deleted:\n"
    "    def __init__(self, name):\n        self.name = name\n"
    "    def __del__(self):\n        print('del', self.name)\n"
)
# Programs whose every observable must match a plain `python prog.py`.
PARITY_PROGRAMS = {
    "uncaught": "def f():\n    return 1 / 0\nf()\n",
    "chained": "try:\n    int('x')\nexcept ValueError as e:\n    raise KeyError('k') from e\n",
    "exit-none": "import sys\nprint('a')\nsys.exit()\n",
    "exit-int": "import sys\nprint('a')\nsys.exit(3)\n",
    "exit-str": "import sys\nsys.exit('bye')\n",
    "recursion": "def f(n):\n    return f(n + 1)\nf(0)\n",
    "atexit-thread": (
        "import atexit, threading, time\n"
        "atexit.register(lambda: print('atexit'))\n"
        "def work():\n    time.sleep(0.05)\n    print('thread')\n"
        "threading.Thread(target=work).start()\n"
        "print('main')\n"
    ),
    "identity": (
        "import sys\n"
        "print(__name__, __file__, type(__loader__).__name__, sorted(globals()))\n"
        "print(sys.argv, sys.orig_argv[1:], sys.path)\n"
    ),
    "stdin": "import sys\nprint(sys.stdin.read().upper())\n",
    # fds 0-2 are files, as under `python prog.py < stdin.txt > ...`: a
    # pipe is not seekable.
    "stdio-seek": (
        "import sys\n"
        "print([stream.seekable() for stream in (sys.stdin, sys.stdout, sys.stderr)])\n"
        "first = sys.stdin.read()\n"
        "sys.stdin.seek(0)\n"
        "print(repr(first), repr(sys.stdin.read()))\n"
    ),
    "environment": "import os\nprint(sorted(os.environ.items()))\n",
    "thread-exception": (
        "import threading\n"
        "def work():\n    raise MemoryError\n"
        "worker = threading.Thread(target=work)\nworker.start()\nworker.join()\n"
        "print('main')\n"
    ),
    "excepthook": (
        "import sys, traceback\n"
        "def hook(kind, value, tb):\n"
        "    print('hooked', kind.__name__, file=sys.stderr)\n"
        "    traceback.print_exception(kind, value, tb)\n"
        "sys.excepthook = hook\n"
        "def f():\n    raise ValueError('bad')\n"
        "f()\n"
    ),
    "segv": "import os, signal\nprint('x')\nos.kill(os.getpid(), signal.SIGSEGV)\n",
    "parser-exhausted": "x = " + "-" * 100000 + "1\n",
    "keyboard-interrupt": "print('a')\nraise KeyboardInterrupt\n",
    "stdout-closed": "import os\nprint('lost')\nos.close(1)\n",
    "cwd-listing": "import os\nprint(sorted(os.listdir('.')))\n",
    "syntax-error": "def f(:\n",
    "lone-surrogate": LONE_SURROGATE,
    # Python reports the first null byte or non-UTF-8 byte, line by line;
    # a lone surrogate is written as bytes that are not UTF-8.
    "null-byte": "x = 1\0",
    "null-byte-before-non-utf8": "x = 1\0 # \udcff",
    "non-utf8-line-before-null-byte": "# \udcff\nx = 1\0",
    "null-byte-alone-on-line-2": "print(1)\n\0\n",
    # `__del__` of what the program's globals hold runs at exit, after the
    # atexit handlers, in the order the globals were bound.
    "del-global": _DELETED + "a = Deleted('a')\nprint('main')\n",
    "del-two-in-order": _DELETED + "a = Deleted('a')\nb = Deleted('b')\nprint('main')\n",
    "del-exit": _DELETED + "import sys\na = Deleted('a')\nsys.exit(3)\n",
    "del-uncaught": _DELETED + "a = Deleted('a')\nraise ValueError('bad')\n",
}


def _normalized(text: str) -> str:
    text = re.sub(r"haluscope-exec-\w+", "<workdir>", text)
    return re.sub(r"haluscope-zygote-\w+", "<server>", text)


def _through_execute(source: str, stdin: str, interpreter, monkeypatch) -> tuple:
    """(returncode, stdout, stderr) of the run stage of `execute`."""
    seen = {}
    read, classify = sandbox._read_capped, sandbox.classify_termination

    def reading(path, *args):
        seen[path.name] = read(path, *args)
        return seen[path.name]

    def classifying(raw, stderr):
        seen["returncode"] = raw.returncode
        return classify(raw, stderr)

    monkeypatch.setattr(sandbox, "_read_capped", reading)
    monkeypatch.setattr(sandbox, "classify_termination", classifying)
    execute(source, TestCase(stdin, ""), LIMITS, interpreter=interpreter)
    return seen["returncode"], seen["stdout.txt"], seen["stderr.txt"]


def _through_python(source: str, stdin: str, interpreter) -> tuple:
    """(returncode, stdout, stderr) of `python prog.py` in a temp dir laid
    out and named as the sandbox's, with the guard environment and its
    guard in a directory named as a fork server's."""
    with tempfile.TemporaryDirectory(prefix="haluscope-exec-") as tmp, \
            tempfile.TemporaryDirectory(prefix="haluscope-zygote-") as server_dir:
        workdir = Path(tmp)
        (workdir / "prog.py").write_bytes(source.encode("utf-8", "surrogatepass"))
        (workdir / "stdin.txt").write_text(stdin, encoding="utf-8")
        env = sandbox._guard_env(workdir, sandbox._write_guard(Path(server_dir)))
        with (workdir / "stdin.txt").open("rb") as fin, \
                (workdir / "stdout.txt").open("wb") as fout, \
                (workdir / "stderr.txt").open("wb") as ferr:
            proc = subprocess.run(
                (interpreter or [sys.executable]) + [str(workdir / "prog.py")],
                cwd=workdir, env=env, stdin=fin, stdout=fout, stderr=ferr, timeout=30,
            )
        return (
            proc.returncode,
            (workdir / "stdout.txt").read_text(encoding="utf-8"),
            (workdir / "stderr.txt").read_text(encoding="utf-8"),
        )


def _run_harness(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a child interpreter importing this checkout's
    haluscope, so that a harness that hangs or dies fails the test alone."""
    src_root = str(Path(haluscope.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def _running(pid: int) -> bool:
    """Whether `pid` is a process that has not exited (neither gone nor a
    zombie)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.fixture
def popens(monkeypatch) -> list[subprocess.Popen]:
    """Every `subprocess.Popen` started while the test runs."""
    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return started


class TestForkServer:
    @pytest.mark.parametrize("interpreter", [None, FOREIGN], ids=["own", "foreign"])
    @pytest.mark.parametrize("name", sorted(PARITY_PROGRAMS))
    def test_parity_with_plain_python(self, name, interpreter, monkeypatch):
        source = PARITY_PROGRAMS[name]
        forked = _through_execute(source, "hello\n", interpreter, monkeypatch)
        plain = _through_python(source, "hello\n", interpreter)
        assert [_normalized(part) if isinstance(part, str) else part for part in forked] == [
            _normalized(part) if isinstance(part, str) else part for part in plain
        ]
        if name == "parser-exhausted":
            assert forked[2] == "MemoryError\n"

    def test_programs_hash_with_one_fixed_secret(self, monkeypatch):
        # A forked child and a `python prog.py` child under the guard
        # environment: hash randomization off, and one hash of a string.
        source = "import sys\nprint(sys.flags.hash_randomization, hash('x'))\n"
        forked = _through_execute(source, "", None, monkeypatch)
        assert forked == _through_python(source, "", None)
        assert forked[1].split()[0] == "0"

    def test_program_killing_its_server_spares_the_harness(self):
        harness = (
            "import json\n"
            "from haluscope.corpus import ResourceLimits, TestCase\n"
            "from haluscope.sandbox import ExecutionRequest, execute_batch\n"
            "limits = ResourceLimits(wall_time_ms=3000, memory_bytes=256 * 2**20)\n"
            "sources = ['print(1)', 'import os, signal\\nos.kill(os.getppid(), signal.SIGTERM)\\n',"
            " 'print(1)']\n"
            "requests = [ExecutionRequest(s, TestCase('', '1'), limits) for s in sources]\n"
            "outcomes = execute_batch(requests, jobs=1)\n"
            "print(json.dumps([[o.status.value, o.exception_name, o.exception_message]"
            " for o in outcomes]))\n"
        )
        proc = _run_harness(harness)
        assert proc.returncode == 0, proc.stderr
        first, killer, third = json.loads(proc.stdout.splitlines()[-1])
        assert first[0] == third[0] == "pass"
        assert killer == [
            "runtime_failure", "UnknownError", "the fork server was killed while the program ran"
        ]

    @pytest.mark.parametrize("jobs", [1, 2], ids=lambda jobs: f"jobs={jobs}")
    def test_interrupt_leaves_no_program_running(self, jobs, tmp_path):
        # Ctrl-C while the first program sleeps: the harness must still end
        # every program it started before it exits.
        pids = tmp_path / "pids"
        pids.mkdir()
        program = (
            "import os, time\n"
            f"open(os.path.join({str(pids)!r}, str(os.getpid())), 'w').close()\n"
            "time.sleep(300)\n"
        )
        harness = (
            "import os, signal, threading, time\n"
            "from pathlib import Path\n"
            "from haluscope.corpus import ResourceLimits, TestCase\n"
            "from haluscope.sandbox import ExecutionRequest, execute_batch\n"
            "limits = ResourceLimits(wall_time_ms=3000, memory_bytes=256 * 2**20)\n"
            "def interrupt():\n"
            f"    while not any(Path({str(pids)!r}).iterdir()):\n"
            "        time.sleep(0.01)\n"
            "    os.kill(os.getpid(), signal.SIGINT)\n"
            "threading.Thread(target=interrupt, daemon=True).start()\n"
            f"execute_batch([ExecutionRequest({program!r}, TestCase('', ''), limits)] * 2,"
            f" jobs={jobs})\n"
        )
        try:
            _run_harness(harness)
            started = [int(path.name) for path in pids.iterdir()]
            assert started
            assert [pid for pid in started if _running(pid)] == []
        finally:
            for path in pids.iterdir():
                with contextlib.suppress(ProcessLookupError, PermissionError):
                    os.killpg(int(path.name), signal.SIGKILL)

    def test_memory_of_a_program_that_dies_early(self):
        source = (
            "import os, signal\n"
            "block = b'x' * (64 * 2**20)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        outcome = execute(source, TestCase("", ""), LIMITS)
        assert outcome.peak_memory_bytes >= 64 * 2**20

    def test_nothing_outlives_a_batch(self, tmp_path, monkeypatch, popens):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        sources = ["print(1)", "import os, signal\nos.kill(os.getppid(), signal.SIGKILL)\n"] * 3
        requests = [ExecutionRequest(s, TestCase("", "1"), LIMITS) for s in sources]
        statuses = [o.status for o in execute_batch(requests, jobs=2)]
        assert statuses == [Status.PASS, Status.RUNTIME_FAILURE] * 3
        assert popens and all(server.returncode is not None for server in popens)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_reuses_one_server_per_worker(self, jobs, popens):
        requests = [ExecutionRequest("print(1)", TestCase("", "1"), LIMITS)] * 6
        assert {o.status for o in execute_batch(requests, jobs=jobs)} == {Status.PASS}
        assert 1 <= len(popens) <= jobs

    def test_server_starts_before_the_first_request_is_read(self, popens):
        servers_at_first_pull = []

        def requests():
            deadline = time.monotonic() + 10
            while not popens and time.monotonic() < deadline:
                time.sleep(0.01)
            servers_at_first_pull.append(len(popens))
            yield ExecutionRequest("print(1)", TestCase("", "1"), LIMITS)

        assert [o.status for o in execute_batch(requests())] == [Status.PASS]
        assert servers_at_first_pull == [1]

    @pytest.mark.parametrize("jobs", [1, 2], ids=lambda jobs: f"jobs={jobs}")
    def test_exception_from_the_requests_cancels_the_queued_ones(self, jobs, tmp_path):
        # Four requests are read before the generator raises; only those a
        # worker had taken may run, and each ends before the exception leaves.
        pids = tmp_path / "pids"
        pids.mkdir()
        program = (
            "import os, time\n"
            f"open(os.path.join({str(pids)!r}, str(os.getpid())), 'w').close()\n"
            "time.sleep(300)\n"
        )
        limits = ResourceLimits(wall_time_ms=2000, memory_bytes=256 * 2**20)

        def requests():
            yield from [ExecutionRequest(program, TestCase("", ""), limits)] * 4
            deadline = time.monotonic() + 10
            while not any(pids.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

        try:
            with pytest.raises(KeyboardInterrupt):
                execute_batch(requests(), jobs=jobs)
            started = [int(path.name) for path in pids.iterdir()]
            assert 1 <= len(started) <= jobs
            assert [pid for pid in started if _running(pid)] == []
        finally:
            for path in pids.iterdir():
                with contextlib.suppress(ProcessLookupError, PermissionError):
                    os.killpg(int(path.name), signal.SIGKILL)

    def test_empty_batch_leaves_nothing(self, tmp_path, monkeypatch, popens):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert execute_batch(iter(())) == []
        assert all(server.returncode is not None for server in popens)
        assert list(tmp_path.iterdir()) == []

    def test_server_that_never_starts_is_sandbox_error(self):
        # `python -c pass <server> ...` exits at once, without a ready reply.
        outcome = execute(
            "print(1)", TestCase("", "1"), LIMITS, interpreter=[sys.executable, "-c", "pass"]
        )
        assert outcome.status is Status.SANDBOX_ERROR
        assert "fork server failed to start" in outcome.exception_message


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

    @pytest.mark.parametrize(
        "stage, stderr, status, name",
        [
            ("compile", "MemoryError\n", Status.MEMORY_LIMIT_EXCEEDED, ""),
            ("compile", "RecursionError: maximum recursion depth exceeded during compilation\n",
             Status.RUNTIME_FAILURE, "RecursionError"),
            ("run", "MemoryError\n", Status.RUNTIME_FAILURE, "UnknownError"),
        ],
        ids=["compile-memory", "compile-recursion", "run-memory"],
    )
    def test_bare_exception_line_read_in_compile_stage_only(self, stage, stderr, status, name):
        # An error from compiling is printed without a traceback.
        raw = ProcessExit(returncode=1, timed_out=False, stage=stage, memory_limit_bytes=2**28)
        termination = classify_termination(raw, stderr)
        assert termination.status is status
        assert termination.exception_name == name

    def test_clean_exit_returns_none(self):
        # A clean exit is judged by its output alone, even when a thread
        # died or the program printed a caught traceback.
        raw = ProcessExit(returncode=0, timed_out=False, stage="run", memory_limit_bytes=2**28)
        memory_error = (
            'Traceback (most recent call last):\n  File "prog.py", line 3, in <module>\n'
            "MemoryError\n"
        )
        for stderr in ("", memory_error):
            assert classify_termination(raw, stderr) is None

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
            ExecutionRequest(source_code=s, test=t, limits=LIMITS)
            for s, t in sources
        ]
        forward = [o.status for o in execute_batch(requests, jobs=1)]
        reverse = [o.status for o in execute_batch(list(reversed(requests)), jobs=2)]
        assert forward == list(reversed(reverse))

    def test_classify_corpus_runs_every_test(self):
        task = Task(
            task_id="t",
            test_cases=(TestCase("1", "2"), TestCase("2", "3"), TestCase("3", "5")),
            limits=LIMITS,
        )
        source = "print(int(input())+1)"
        pairs = classify_corpus(
            {"t": task}, [Completion("t", "m", source)], jobs=2
        )
        assert [o.status for _, o in pairs] == [Status.PASS, Status.PASS, Status.WRONG_OUTPUT]
        assert [r.test_index for r, _ in pairs] == [0, 1, 2]

    def test_missing_interpreter_fails_every_execution(self):
        task = Task("t", (TestCase("1", "2"), TestCase("2", "3"), TestCase("3", "4")), LIMITS)
        completions = [Completion("t", m, "print(1)") for m in ("m1", "m2")]
        pairs = classify_corpus(
            {"t": task}, completions, interpreter=["/no/such/bin"], jobs=2
        )
        assert [o.status for _, o in pairs] == [Status.SANDBOX_ERROR] * 6

    def test_unknown_task_skipped_with_one_warning(self, tmp_path, caplog):
        tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
        tasks.write_text(json.dumps(
            {"task_id": "t", "question": "q", "test_cases": [{"input": "", "expected_output": "1"}]}
        ) + "\n")
        completions.write_text("".join(
            json.dumps({"task_id": task_id, "model_id": "m", "raw_response": "print(1)"}) + "\n"
            for task_id in ("t", "ghost")
        ))
        config = RunConfig(str(tasks), str(completions), out_dir=str(tmp_path / "out"))
        with caplog.at_level("WARNING"):
            states = validate_stage(config)
        assert [json.loads(line)["task_id"] for line in states.read_text().splitlines()] == ["t"]
        assert [r.getMessage() for r in caplog.records if "ghost" in r.getMessage()] == [
            "skipping completion for unknown task_id 'ghost' (model m)"
        ]

    def test_artifact_dirs_distinct_per_model(self, tmp_path):
        tasks, completions = _three_model_corpus()
        pairs = classify_corpus(tasks, completions, artifact_root=str(tmp_path))
        statuses: dict[str, list[Status]] = {}
        for record, outcome in pairs:
            statuses.setdefault(record.model_id, []).append(outcome.status)
        assert statuses == {
            "m-first": [Status.WRONG_OUTPUT] * 3,
            "m-pass": [Status.PASS] * 3,
            "m-second": [Status.PASS, Status.WRONG_OUTPUT, Status.WRONG_OUTPUT],
        }
        dirs = sorted(str(p.parent.relative_to(tmp_path)) for p in tmp_path.rglob("prog.py"))
        assert dirs == [
            f"t__{model}/test_{index:03d}"
            for model in ("m-first", "m-pass", "m-second")
            for index in range(3)
        ]
        sources = {c.model_id: c.source_code for c in completions}
        for directory in dirs:
            model_id = directory.split("/")[0].split("__")[1]
            assert (tmp_path / directory / "prog.py").read_text() == sources[model_id]


    def test_artifact_dirs_distinct_per_sample(self, tmp_path):
        task = Task("t1", (TestCase("1", "2"),), LIMITS)
        sources = ("print(int(input())+1)", "print(int(input())+2)")
        completions = [
            Completion("t1", "m", src, sample_index=i) for i, src in enumerate(sources)
        ]
        pairs = classify_corpus({"t1": task}, completions, artifact_root=str(tmp_path))
        assert sorted(outcome.status for _, outcome in pairs) == [Status.PASS, Status.WRONG_OUTPUT]
        dirs = sorted(str(p.parent.relative_to(tmp_path)) for p in tmp_path.rglob("prog.py"))
        assert dirs == ["t1__m__s0/test_000", "t1__m__s1/test_000"]
        for directory, source in zip(dirs, sources):
            assert (tmp_path / directory / "prog.py").read_text() == source


def _three_model_corpus() -> tuple[dict[str, Task], list[Completion]]:
    """One three-test task answered by a program passing every test, one
    failing the first test and one failing the second."""
    task = Task(
        task_id="t",
        test_cases=(TestCase("1", "2"), TestCase("2", "3"), TestCase("3", "4")),
        limits=LIMITS,
    )
    sources = {
        "m-pass": "print(int(input())+1)",
        "m-first": "print(int(input())+2)",
        "m-second": "n = int(input())\nprint(n+1 if n < 2 else 0)",
    }
    completions = [Completion("t", model, src) for model, src in sources.items()]
    return {"t": task}, completions


def test_outcome_round_trip():
    outcome = execute("print(undefined)", TestCase("", ""), LIMITS)
    stored = outcome_to_dict(outcome)
    assert ExecutionOutcome(**{**stored, "status": Status(stored["status"])}) == outcome
