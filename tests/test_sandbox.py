from __future__ import annotations

import contextlib
import errno
import json
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haluscope
from haluscope import sandbox
from haluscope.corpus import ResourceLimits, TestCase
from haluscope.errors import HarnessFault
from haluscope.pipeline import RunConfig, validate_stage
from haluscope.sandbox import (
    ExecutionOutcome,
    ExecutionRequest,
    ProcessExit,
    Status,
    classify_termination,
    compare_output,
    execute,
    execute_batch,
)
from test_cli import AS_3_10, LONE_SURROGATE

LIMITS = ResourceLimits(wall_time_ms=3000, memory_bytes=256 * 2**20)
# Extra wall time the enforcement machinery may consume beyond the limit.
ENFORCEMENT_SLACK_MS = 500
# An interpreter argv other than the harness's own, as `--interpreter` gives:
# HALUSCOPE_TEST_FOREIGN, split as a shell would, may name another version.
FOREIGN = shlex.split(os.environ.get("HALUSCOPE_TEST_FOREIGN", "")) or [sys.executable, "-u"]


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

    @pytest.mark.parametrize(
        "attempt",
        [
            "import _socket\n_socket.socket().connect(('127.0.0.1', 9))\n",
            "import socket\nudp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)\n"
            "udp.sendmsg([b'x'], [], 0, ('127.0.0.1', 9))\n",
            "import importlib, socket\nimportlib.reload(socket)\n"
            "socket.socket().connect(('127.0.0.1', 9))\n",
        ],
        ids=["socket-extension", "udp-sendmsg", "reloaded-socket"],
    )
    def test_network_denied_past_the_socket_module(self, attempt):
        source = "try:\n" + textwrap.indent(attempt, "    ") + (
            "except OSError as exc:\n    print(exc.errno)\n")
        outcome = execute(source, TestCase("", str(errno.EPERM)), LIMITS)
        assert outcome.status is Status.PASS, outcome

    def test_socketpair_messages_pass(self):
        source = (
            "import socket\n"
            "ours, theirs = socket.socketpair()\n"
            "ours.sendmsg([b'x'])\n"
            "print(theirs.recv(1))\n"
        )
        assert execute(source, TestCase("", "b'x'"), LIMITS).status is Status.PASS

    def test_missing_interpreter_raises_its_oserror(self):
        with pytest.raises(FileNotFoundError, match="/no/such/bin"):
            execute("print(1)", TestCase("", "1"), LIMITS, interpreter=["/no/such/bin"])

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
        for source, code in (("import sys\nsys.exit(7)", 7), ("import sys\nsys.exit('msg')", 1),
                             ("import os\nos._exit(1)", 1)):
            outcome = execute(source, TestCase("", ""), LIMITS)
            assert outcome.status is Status.RUNTIME_FAILURE
            assert outcome.exception_name == "UnknownError"
            assert outcome.exception_message == f"exit code {code} without an uncaught exception"

    @pytest.mark.parametrize(
        "source, name, message",
        [
            ("x = 5\nraise Exception(f'bad value\\nDetails: {x}')\n", "Exception", ""),
            ("a, b = 1, 2\nassert a == b, f'Mismatch:\\nGot: {a}'\n", "AssertionError", ""),
            ("e = ValueError('v')\ne.add_note('IndexError: note')\nraise e\n", "ValueError", ""),
            ("raise ExceptionGroup('eg', [ValueError(1)])\n", "ExceptionGroup", ""),
            ("import sys, traceback\ntry:\n    raise ValueError('v')\nexcept ValueError:\n"
             "    traceback.print_exc()\nsys.exit(1)\n",
             "UnknownError", "exit code 1 without an uncaught exception"),
            ("class myerr(Exception):\n    pass\nraise myerr('m')\n", "myerr", ""),
        ],
        ids=["multi-line-message", "multi-line-assert", "note", "exception-group",
             "printed-traceback", "lowercase-class"],
    )
    def test_exception_is_the_one_that_ended_the_program(self, source, name, message):
        # The exception's type comes from the child, not from what stderr
        # holds (TestClassifyTermination has a forged traceback); its text
        # is only in stderr.
        outcome = execute(source, TestCase("", ""), LIMITS)
        assert outcome.status is Status.RUNTIME_FAILURE
        assert (outcome.exception_name, outcome.exception_message) == (name, message)

    @pytest.mark.parametrize(
        "ending, name", [("raise KeyError('k')", "KeyError"), ("sys.exit(2)", "UnknownError")]
    )
    def test_grandchild_holding_the_report_pipe_does_not_stall(self, ending, name, tmp_path):
        source = (
            "import os, sys, time\n"
            "pid = os.fork()\n"
            "if pid == 0:\n    time.sleep(3)\n    os._exit(0)\n"
            "print(pid)\n" + ending + "\n"
        )
        started = time.monotonic()
        outcome = execute(source, TestCase("", ""), LIMITS, artifact_dir=tmp_path)
        elapsed = time.monotonic() - started
        with contextlib.suppress(ProcessLookupError):
            os.kill(int((tmp_path / "stdout.txt").read_text()), signal.SIGKILL)
        assert elapsed < 1.5
        assert (outcome.status, outcome.exception_name) == (Status.RUNTIME_FAILURE, name)

    def test_long_report_is_capped(self):
        # The report (the syntax flag, then the type's name) is cut to one
        # atomic pipe write.
        source = "raise type('E' * 5000, (Exception,), {})()\n"
        outcome = execute(source, TestCase("", ""), LIMITS)
        assert (outcome.status, outcome.exception_name) == (Status.RUNTIME_FAILURE, "E" * 4095)
        assert outcome.exception_message == ""

    def test_exception_whose_str_raises(self, tmp_path):
        # Only the program's hook may call `__str__`: this one does not.
        source = (
            "import sys\n"
            "class Broken(Exception):\n"
            "    def __str__(self):\n"
            "        print('str called')\n        raise RuntimeError('no')\n"
            "sys.excepthook = lambda *args: None\n"
            "raise Broken()\n"
        )
        outcome = execute(source, TestCase("", ""), LIMITS, artifact_dir=tmp_path)
        assert (outcome.status, outcome.exception_name, outcome.exception_message) == (
            Status.RUNTIME_FAILURE, "Broken", "")
        assert (tmp_path / "stdout.txt").read_text() == ""

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
            ["pass", ""], ["runtime_failure", "ValueError"]
        ]

    @pytest.mark.parametrize(
        "source, status, captured",
        [
            ("import os\nprint(1)\nos.remove('stdout.txt')\n", Status.PASS, "1\n"),
            ("import os\nprint(1)\nos.remove('stdout.txt')\nopen('other.txt', 'w').write('2')\n"
             "os.symlink('other.txt', 'stdout.txt')\n", Status.PASS, "1\n"),
            ("import os\nos.remove('stdout.txt')\nopen('stdout.txt', 'w').write('1')\n",
             Status.WRONG_OUTPUT, ""),
        ],
        ids=["print-then-remove", "print-then-symlink", "new-file-without-printing"],
    )
    def test_output_is_what_the_program_printed(self, source, status, captured, tmp_path):
        # What the program wrote to its stdout is judged, not what it left
        # at the name stdout.txt.
        outcome = execute(source, TestCase("", "1"), LIMITS, artifact_dir=tmp_path)
        assert outcome.status is status
        assert (tmp_path / "stdout.txt").read_text() == captured

    def test_exit_code_out_of_the_range_of_a_c_long(self):
        # CPython casts the code to a C long and exits 255 when it does not
        # fit, where its low byte would read 2**64 as a clean exit.
        outcome = execute("import sys\nprint(1)\nsys.exit(2**64)\n", TestCase("", "1"), LIMITS)
        assert (outcome.status, outcome.exception_message) == (
            Status.RUNTIME_FAILURE, "exit code 255 without an uncaught exception")

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
            ("# coding: ascii\nprint('\u00e9')\n", Status.SYNTAX_FAILURE,
             "SyntaxError: encoding problem: ascii"),
            ("# coding: utf-16\nprint(1)\n", Status.SYNTAX_FAILURE,
             "SyntaxError: encoding problem: utf-16"),
            ("\ufeff# coding: latin-1\nprint(1)\n", Status.SYNTAX_FAILURE,
             "SyntaxError: encoding problem: iso-8859-1 with BOM"),
        ],
        ids=["invalid", "missing-indent", "unexpected-indent", "mixed-tabs", "return-outside",
             "null-byte", "valid", "cookie-ascii", "cookie-utf-16", "bom-cookie-latin-1"],
    )
    def test_own_and_foreign_interpreter_agree(self, source, status, prefix, tmp_path):
        # `prefix` begins the last line of stderr: the interpreter's own
        # text, whose type the outcome holds.
        for interpreter in (None, FOREIGN):
            artifacts = tmp_path / ("own" if interpreter is None else "foreign")
            outcome = execute(source, TestCase("", "1"), LIMITS, interpreter=interpreter,
                              artifact_dir=artifacts)
            assert outcome.status is status
            assert outcome.exception_message == prefix.partition(":")[0]
            assert outcome.exception_name == ""
            last_line = (artifacts / "stderr.txt").read_text().splitlines()[-1:]
            assert "".join(last_line).startswith(prefix)

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

    @pytest.mark.parametrize(
        "source, status, name",
        [("x = " + "-" * 100000 + "1\n", Status.MEMORY_LIMIT_EXCEEDED, ""),
         ("x = " + "1+" * 100000 + "1\n", Status.RUNTIME_FAILURE, "RecursionError")],
        ids=["memory", "recursion"],
    )
    def test_error_from_compiling_that_is_no_syntax_error(self, source, status, name):
        outcome = execute(source, TestCase("", "1"), LIMITS)
        assert (outcome.status, outcome.exception_name) == (status, name)

    def test_syntax_error_raised_by_the_program_is_runtime_failure(self):
        outcome = execute("print(1)\neval('def f(:')\n", TestCase("", "1"), LIMITS)
        assert outcome.status is Status.RUNTIME_FAILURE
        assert outcome.exception_name == "SyntaxError"

    def test_coding_cookie_read_from_the_bytes(self, tmp_path):
        # prog.py's bytes are read, not the str, so an unknown encoding is a
        # syntax failure, as it is for `python prog.py`.
        outcome = execute("# coding: bogus\nprint(1)\n", TestCase("", "1"), LIMITS,
                          artifact_dir=tmp_path)
        assert (outcome.status, outcome.exception_message) == (
            Status.SYNTAX_FAILURE, "SyntaxError")
        stderr = (tmp_path / "stderr.txt").read_text()
        assert stderr.splitlines()[-1] == "SyntaxError: encoding problem: bogus"


_DELETED = (
    "import atexit\n"
    "atexit.register(lambda: print('atexit'))\n"
    "class Deleted:\n"
    "    def __init__(self, name):\n        self.name = name\n"
    "    def __del__(self):\n        print('del', self.name)\n"
)
_MAIN_FILE = (
    "import atexit, sys\n"
    "def show(when):\n"
    "    main = sys.modules['__main__']\n"
    "    print(when, hasattr(main, '__file__'), hasattr(main, '__cached__'))\n"
    "atexit.register(show, 'atexit')\n"
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
    "excepthook-raises": (
        "import atexit, sys\n"
        "atexit.register(lambda: print('atexit'))\n"
        "def hook(kind, value, tb):\n"
        "    print('handling', sys.exc_info()[0])\n"
        "    raise RuntimeError('hook')\n"
        "sys.excepthook = hook\n"
        "print('out')\n"
        "raise ValueError('v')\n"
    ),
    # As `PyErr_Print`: sys.last_* are set before the hook runs; a missing
    # hook is reported; a hook's SystemExit is the program's exit.
    "excepthook-last-vars": (
        "import atexit, sys\n"
        "def show():\n"
        "    print(sys.last_type.__name__, repr(sys.last_value), sys.last_traceback.tb_lineno,"
        " getattr(sys, 'last_exc', None) is sys.last_value)\n"
        "atexit.register(show)\n"
        "raise ValueError('v')\n"
    ),
    "excepthook-missing": "import sys\ndel sys.excepthook\nprint('out')\nraise ValueError('v')\n",
    "excepthook-exits": (
        "import atexit, sys\n"
        "atexit.register(lambda: print('atexit'))\n"
        "def hook(kind, value, tb):\n    raise SystemExit(5)\n"
        "sys.excepthook = hook\n"
        "print('out')\n"
        "raise ValueError('v')\n"
    ),
    # Without a sys.stderr a non-int exit code goes to fd 2.
    "exit-str-stderr-none": "import sys\nsys.stderr = None\nprint('out')\nsys.exit('bye')\n",
    "exit-str-stderr-deleted": "import sys\ndel sys.stderr\nprint('out')\nsys.exit('bye')\n",
    "segv": "import os, signal\nprint('x')\nos.kill(os.getpid(), signal.SIGSEGV)\n",
    "parser-exhausted": "x = " + "-" * 100000 + "1\n",
    "keyboard-interrupt": "print('a')\nraise KeyboardInterrupt\n",
    "stdout-closed": "import os\nprint('lost')\nos.close(1)\n",
    # Finalization flushes the sys.stdout and sys.stderr that exist (a
    # failure exits 120), then drops sys.__stdout__ and sys.__stderr__, which
    # flushes them and ignores a failure.
    "stdout-replaced-by-stringio": (
        "import io, sys\n"
        "sys.stdout = io.StringIO()\n"
        "print(1)\nprint(2)\n"
        "sys.__stdout__.write(sys.stdout.getvalue())\n"
    ),
    "stdout-deleted": "import sys\nprint(1)\ndel sys.stdout\n",
    "stderr-deleted": "import sys\nprint(1)\ndel sys.stderr\n",
    "stdout-closed-then-deleted": "import os, sys\nprint('lost')\nos.close(1)\ndel sys.stdout\n",
    "stdout-closed-stderr-none": "import os, sys\nprint('lost')\nos.close(1)\nsys.stderr = None\n",
    "stdout-closed-own-excepthook": (
        "import os, sys\n"
        "sys.excepthook = lambda *args: print('hooked', file=sys.stderr)\n"
        "print('lost')\nos.close(1)\n"
    ),
    "stdout-without-closed": (
        "import sys\n"
        "class Upper:\n"
        "    def write(self, text):\n        sys.__stdout__.write(text.upper())\n"
        "    def flush(self):\n        pass\n"
        "sys.stdout = Upper()\n"
        "print('x')\n"
    ),
    "cwd-listing": "import os\nprint(sorted(os.listdir('.')))\n",
    "syntax-error": "def f(:\n",
    "lone-surrogate": LONE_SURROGATE,
    # Python reports the first null byte or non-UTF-8 byte, line by line;
    # a lone surrogate is written as bytes that are not UTF-8.
    "null-byte": "x = 1\0",
    "null-byte-before-non-utf8": "x = 1\0 # \udcff",
    "non-utf8-line-before-null-byte": "# \udcff\nx = 1\0",
    "null-byte-alone-on-line-2": "print(1)\n\0\n",
    # A declared encoding: a BOM, or a cookie that lets a byte that is not
    # UTF-8 through.
    "bom": "\ufeffprint(1)\n",
    "cookie-then-non-utf8": "# coding: latin-1\nprint('\udce9')\n",
    # A cookie the tokenizer cannot use is an error without a location; one
    # on line 2 after code is not a cookie.
    "cookie-unknown": "# coding: bogus\nprint(1)\n",
    "cookie-ascii-then-non-ascii": "# coding: ascii\nprint('\u00e9')\n",
    "cookie-utf-16": "# coding: utf-16\nprint(1)\n",
    "bom-then-cookie-latin-1": "\ufeff# coding: latin-1\nprint(1)\n",
    "cookie-after-code": "x=1\n# coding: bogus\nprint(2)\n",
    # Switching to the cookie's decoder reads the rest of its line: cp037
    # finds no line end and takes the file; a refused byte past the first
    # 8 KiB is reported at its position in the tokenizer's second read.
    "cookie-cp037": "# coding: cp037\nprint(1)\n",
    "cookie-ascii-non-ascii-past-8-kib": "# coding: ascii\n" + "#" * 9000 + "\nprint('\u00e9')\n",
    # `__del__` of what the program's globals hold runs at exit, after the
    # atexit handlers, in the order the globals were bound.
    "del-global": _DELETED + "a = Deleted('a')\nprint('main')\n",
    "del-two-in-order": _DELETED + "a = Deleted('a')\nb = Deleted('b')\nprint('main')\n",
    "del-exit": _DELETED + "import sys\na = Deleted('a')\nsys.exit(3)\n",
    "del-uncaught": _DELETED + "a = Deleted('a')\nraise ValueError('bad')\n",
    # What only the uncaught exception holds, through its traceback's frames,
    # goes when finalization sets sys.last_* to None, before the globals.
    "del-in-traceback-frame": (
        _DELETED + "a = Deleted('a')\ndef f():\n    x = Deleted('x')\n    raise ValueError\nf()\n"
    ),
    # `__main__.__file__` and `__cached__` are deleted after a run that did
    # not exit, before the atexit handlers; a hook still sees them.
    "main-file-end": _MAIN_FILE + "show('main')\n",
    "main-file-uncaught": (
        _MAIN_FILE + "def hook(*args):\n    show('hook')\n    sys.__excepthook__(*args)\n"
        "sys.excepthook = hook\nraise ValueError('v')\n"
    ),
    "main-file-exit": _MAIN_FILE + "sys.exit(2)\n",
    "main-file-deleted-by-the-program": _MAIN_FILE + "del __file__\nshow('main')\n",
    "recursion-limit": "import sys\nprint(sys.getrecursionlimit())\n",
    "excepthook-exits-del-global": (
        _DELETED + "import sys\na = Deleted('a')\n"
        "def hook(kind, value, tb):\n    raise SystemExit(5)\n"
        "sys.excepthook = hook\nraise ValueError('v')\n"
    ),
}
# Parity programs the sandbox still gets wrong on every Python version, each
# with the FOUND line of CHANGES.md that names the gap: a fix makes it XPASS.
PARITY_GAPS = {
    "recursion-limit": "CHANGES.md FOUND line 66: the sandbox reads 1005, python prog.py 1000",
    "excepthook-exits-del-global": (
        "CHANGES.md FOUND line 74: after a hook's SystemExit the sandbox runs __del__ of a"
        " global, python prog.py does not"
    ),
}


def _normalized(text: str) -> str:
    text = re.sub(r"haluscope-exec-\w+", "<workdir>", text)
    return re.sub(r"haluscope-zygote-\w+", "<server>", text)


def _through_execute(source: str, stdin: str, interpreter, monkeypatch) -> tuple:
    """(returncode, stdout, stderr) of the forked child of `execute`, the
    streams as its artifact directory holds them."""
    seen = {}
    classify = sandbox.classify_termination

    def classifying(raw):
        seen["returncode"] = raw.returncode
        return classify(raw)

    monkeypatch.setattr(sandbox, "classify_termination", classifying)
    with tempfile.TemporaryDirectory() as artifacts:
        execute(source, TestCase(stdin, ""), LIMITS, interpreter=interpreter,
                artifact_dir=artifacts)
        streams = [(Path(artifacts) / name).read_bytes().decode("utf-8")
                   for name in ("stdout.txt", "stderr.txt")]
    return seen["returncode"], *streams


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


def _harness_env() -> dict[str, str]:
    """The environment of a child interpreter importing this checkout's
    haluscope."""
    src_root = str(Path(haluscope.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src_root, *filter(None, [os.environ.get("PYTHONPATH")])])}


def _run_harness(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a child interpreter importing this checkout's
    haluscope, so that a harness that hangs or dies fails the test alone."""
    return subprocess.run(
        [sys.executable, "-c", code], env=_harness_env(), capture_output=True, text=True,
        timeout=60,
    )


def _validate_a_sleeper(
    tmp_path: Path, wall_ms: int
) -> tuple[subprocess.Popen, list[int], Path]:
    """Start the CLI's `validate`, with a private TMPDIR, on one program
    that writes its pid and its parent's, its fork server's, then sleeps.
    Returns the CLI's process, those two pids once written, and the TMPDIR."""
    pids, private = tmp_path / "pids", tmp_path / "tmp"
    pids.mkdir()
    private.mkdir()
    program = (
        "import os, time\n"
        f"with open(os.path.join({str(pids)!r}, str(os.getpid())), 'w') as out:\n"
        "    out.write(str(os.getppid()))\n"
        "time.sleep(300)\n"
    )
    tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
    tasks.write_text(json.dumps(
        {"task_id": "t", "question": "q", "test_cases": [{"input": "", "expected_output": ""}]}
    ) + "\n")
    completions.write_text(
        json.dumps({"task_id": "t", "model_id": "m", "raw_response": program}) + "\n")
    cli = subprocess.Popen(
        [sys.executable, "-c", "from haluscope.cli import entrypoint; entrypoint()",
         "--out-dir", str(tmp_path / "out"), "--limits.wall-ms", str(wall_ms), "validate",
         "--dataset", str(tasks), "--completions", str(completions)],
        env={**_harness_env(), "TMPDIR": str(private)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while not [p for p in pids.iterdir() if p.read_text()] and time.monotonic() < deadline:
            time.sleep(0.01)
        (path,) = pids.iterdir()
        return cli, [int(path.name), int(path.read_text())], private
    except BaseException:
        cli.kill()
        cli.wait()
        raise


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
    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=[pytest.mark.xfail(strict=True, reason=PARITY_GAPS[name])]
                     if name in PARITY_GAPS else [])
        for name in sorted(PARITY_PROGRAMS)
    ])
    def test_parity_with_plain_python(self, name, interpreter, monkeypatch):
        source = PARITY_PROGRAMS[name]
        forked = _through_execute(source, "hello\n", interpreter, monkeypatch)
        plain = _through_python(source, "hello\n", interpreter)
        assert [_normalized(part) if isinstance(part, str) else part for part in forked] == [
            _normalized(part) if isinstance(part, str) else part for part in plain
        ]
        if name == "parser-exhausted":  # 3.12 and later add a message
            assert forked[2].splitlines()[-1].split(":")[0] == "MemoryError"
            outcome = execute(source, TestCase("hello\n", ""), LIMITS, interpreter=interpreter)
            assert outcome.status is Status.MEMORY_LIMIT_EXCEEDED

    def test_programs_hash_with_one_fixed_secret(self, monkeypatch):
        # A forked child and a `python prog.py` child under the guard
        # environment: hash randomization off, and one hash of a string.
        source = "import sys\nprint(sys.flags.hash_randomization, hash('x'))\n"
        forked = _through_execute(source, "", None, monkeypatch)
        assert forked == _through_python(source, "", None)
        assert forked[1].split()[0] == "0"

    @pytest.mark.parametrize("interpreter", [None, FOREIGN], ids=["own", "foreign"])
    def test_programs_find_the_modules_of_plain_python(self, interpreter, monkeypatch):
        # The server keeps only `resource` beyond what every interpreter has
        # loaded at start-up, so a child holds what `python prog.py` holds.
        source = "import sys\nprint(*sorted(sys.modules))\n"
        forked = _through_execute(source, "", interpreter, monkeypatch)[1].split()
        plain = _through_python(source, "", interpreter)[1].split()
        assert set(forked) - set(plain) <= {"resource"}
        assert set(plain) <= set(forked)

    @pytest.mark.parametrize("interpreter", [None, FOREIGN], ids=["own", "foreign"])
    def test_program_using_ctypes(self, interpreter):
        # The server's own import of ctypes left sys.modules again, so the
        # program's loads a fresh copy.
        source = ("import ctypes\nlibc = ctypes.CDLL(None)\n"
                  "print(libc.abs(-3), libc.strlen(b'four'), ctypes.sizeof(ctypes.c_int32))\n")
        outcome = execute(source, TestCase("", "3 4 4"), LIMITS, interpreter=interpreter)
        assert outcome.status is Status.PASS

    def test_excepthook_that_raises_leaves_the_original_exception(self):
        outcome = execute(PARITY_PROGRAMS["excepthook-raises"], TestCase("", ""), LIMITS)
        assert (outcome.status, outcome.exception_name) == (Status.RUNTIME_FAILURE, "ValueError")

    def test_workdir_of_any_bytes(self, tmp_path, monkeypatch):
        # The request carries the workdir's bytes: a space, a line end and a
        # byte that is not UTF-8 reach the child as they are.
        base = tmp_path / os.fsdecode(b"a b\nc\xff")
        base.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(base))
        source = (
            "import os\n"
            "cwd = os.getcwd()\n"
            "print(cwd == os.environ['HOME'] == os.environ['TMPDIR'],"
            " os.fsencode(os.path.dirname(cwd)).hex())\n"
        )
        expected = f"True {os.fsencode(os.path.realpath(base)).hex()}"
        outcome = execute(source, TestCase("", expected), LIMITS)
        assert outcome.status is Status.PASS, outcome

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

    def test_sigterm_to_the_cli_cleans_up_as_ctrl_c_does(self, tmp_path):
        # SIGTERM while the program sleeps: the harness still kills it at
        # its wall limit, reaps its server and removes its temp dirs, then
        # dies of SIGTERM.
        cli, started, private = _validate_a_sleeper(tmp_path, wall_ms=2000)
        try:
            cli.send_signal(signal.SIGTERM)
            assert cli.wait(timeout=60) == -signal.SIGTERM
            assert [pid for pid in started if _running(pid)] == []
            assert list(private.iterdir()) == []
        finally:
            cli.kill()
            cli.wait()
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(started[0], signal.SIGKILL)

    def test_sigkill_of_the_cli_leaves_no_program_running(self, tmp_path):
        # The kernel kills the fork server with the harness thread that
        # started it, and the program with its server.
        cli, started, private = _validate_a_sleeper(tmp_path, wall_ms=10000)
        try:
            cli.kill()
            cli.wait()
            deadline = time.monotonic() + 2
            while [pid for pid in started if _running(pid)] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [pid for pid in started if _running(pid)] == []
            # Their temp dirs stay: removing them is ROADMAP item 10's cleanup.
            assert sorted(p.name.rpartition("-")[0] for p in private.iterdir()) == [
                "haluscope-exec", "haluscope-zygote"]
        finally:
            for pid in started:
                with contextlib.suppress(ProcessLookupError, PermissionError):
                    os.kill(pid, signal.SIGKILL)
            shutil.rmtree(private, ignore_errors=True)

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

    def test_no_descriptor_outlives_its_execution(self):
        # A leaked raw descriptor raises no ResourceWarning, so compare the
        # open descriptors around a pass, a timeout, a program killing its
        # server, a FIFO in place of stdout.txt and a server that never
        # starts; then no child of the harness may be left either.
        harness = (
            "import json, os, sys\n"
            "from haluscope.corpus import ResourceLimits, TestCase\n"
            "from haluscope.errors import HarnessFault\n"
            "from haluscope.sandbox import ExecutionRequest, execute_batch\n"
            "limits = ResourceLimits(wall_time_ms=1000, memory_bytes=256 * 2**20)\n"
            "sources = ['print(1)', 'while True: pass',"
            " 'import os, signal\\nos.kill(os.getppid(), signal.SIGKILL)\\n',"
            " 'import os\\nos.remove(\"stdout.txt\")\\nos.mkfifo(\"stdout.txt\")\\n']\n"
            "requests = [ExecutionRequest(s, TestCase('', '1'), limits) for s in sources]\n"
            "before = sorted(os.listdir('/proc/self/fd'))\n"
            "statuses = [o.status.value for o in execute_batch(requests)]\n"
            "try:\n"
            "    execute_batch(requests[:1], interpreter=[sys.executable, '-c', 'pass'])\n"
            "except HarnessFault as exc:\n"
            "    fault = str(exc)\n"
            "after = sorted(os.listdir('/proc/self/fd'))\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    children = True\n"
            "except ChildProcessError:\n"
            "    children = False\n"
            "print(json.dumps([statuses, fault, children, before, after]))\n"
        )
        proc = _run_harness(harness)
        assert proc.returncode == 0, proc.stderr
        statuses, fault, children, before, after = json.loads(proc.stdout.splitlines()[-1])
        assert statuses == ["pass", "time_limit_exceeded", "runtime_failure", "wrong_output"]
        assert fault == "fork server failed to start: exit status 0 before a ready reply"
        assert not children
        assert after == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_reuses_one_server_per_worker(self, jobs, popens):
        requests = [ExecutionRequest("print(1)", TestCase("", "1"), LIMITS)] * 6
        assert {o.status for o in execute_batch(requests, jobs=jobs)} == {Status.PASS}
        assert 1 <= len(popens) <= jobs

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_server_that_never_starts_is_started_once_per_worker(self, jobs, popens):
        # The first failed start ends the batch: no worker takes another
        # request and starts a server for it.
        requests = [ExecutionRequest("print(1)", TestCase("", "1"), LIMITS)] * 6
        with pytest.raises(HarnessFault, match="^fork server failed to start: "):
            execute_batch(requests, jobs=jobs, interpreter=[sys.executable, "-c", "pass"])
        assert 1 <= len(popens) <= jobs

    def test_a_worker_without_requests_starts_no_server(self, popens):
        request = ExecutionRequest("print(1)", TestCase("", "1"), LIMITS)
        assert [o.status for o in execute_batch([request], jobs=2)] == [Status.PASS]
        assert len(popens) == 1

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
        assert popens == []
        assert list(tmp_path.iterdir()) == []

    def test_server_that_never_starts_raises(self):
        # `python -c pass <server> ...` exits at once, without a ready reply
        # and with an empty log: the cause is how it ended.
        with pytest.raises(HarnessFault) as fault:
            execute("print(1)", TestCase("", "1"), LIMITS,
                    interpreter=[sys.executable, "-c", "pass"])
        assert str(fault.value) == "fork server failed to start: exit status 0 before a ready reply"

    def test_server_that_never_replies_ready_raises(self, tmp_path, monkeypatch, popens):
        monkeypatch.setattr(sandbox, "_SERVER_START_TIMEOUT_S", 0.5)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(HarnessFault) as fault:
            execute("print(1)", TestCase("", "1"), LIMITS,
                    interpreter=[sys.executable, "-c", "import time; time.sleep(60)"])
        assert str(fault.value) == "fork server failed to start: no ready reply within 0.5 s"
        assert [server.returncode for server in popens] == [-signal.SIGKILL]
        assert list(tmp_path.iterdir()) == []

    def test_interpreter_older_than_3_11_raises(self, tmp_path):
        wrapper = tmp_path / "as_3_10.py"
        wrapper.write_text(AS_3_10)
        with pytest.raises(HarnessFault) as fault:
            execute("print(1)", TestCase("", "1"), LIMITS,
                    interpreter=[sys.executable, str(wrapper)])
        assert str(fault.value) == (
            "fork server failed to start: the fork server needs CPython 3.11 or newer, not 3.10.13"
        )

    def test_server_that_stops_replying_raises(self, tmp_path, monkeypatch, popens):
        # A server that replies ready, then nothing: the batch raises once
        # the wall limit and the grace period pass, and leaves nothing.
        monkeypatch.setattr(sandbox, "_SERVER_GRACE_S", 0.2)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        silent = ("import os, sys, time\n"
                  "os.write(int(sys.argv[-1]), b'ready\\n')\n"
                  "time.sleep(60)\n")
        limits = ResourceLimits(wall_time_ms=100, memory_bytes=256 * 2**20)
        requests = [ExecutionRequest("print(1)", TestCase("", "1"), limits)] * 3
        with pytest.raises(HarnessFault, match="^fork server did not start the program$"):
            execute_batch(requests, interpreter=[sys.executable, "-c", silent])
        assert [server.returncode for server in popens] == [-signal.SIGKILL]
        assert list(tmp_path.iterdir()) == []

    def test_child_that_cannot_be_set_up_raises(self):
        # A harness whose hard RLIMIT_FSIZE is below the programs' cannot
        # give them theirs: the forked child replies `error`.
        harness = (
            "import json, resource\n"
            "from haluscope.corpus import ResourceLimits, TestCase\n"
            "from haluscope.errors import HarnessFault\n"
            "from haluscope.sandbox import OUTPUT_LIMIT_BYTES, ExecutionRequest, execute_batch\n"
            "limit = OUTPUT_LIMIT_BYTES - 4096\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))\n"
            "limits = ResourceLimits(wall_time_ms=3000, memory_bytes=256 * 2**20)\n"
            "try:\n"
            "    execute_batch([ExecutionRequest('print(1)', TestCase('', '1'), limits)] * 3)\n"
            "except HarnessFault as exc:\n"
            "    print(json.dumps(str(exc)))\n"
        )
        proc = _run_harness(harness)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]).startswith(
            "fork server could not set up the program: ValueError("
        )


class TestClassifyTermination:
    def test_last_exception_line_wins_for_chained(self):
        source = "try:\n    int('x')\nexcept ValueError as e:\n    raise KeyError('k') from e\n"
        outcome = execute(source, TestCase("", ""), LIMITS)
        assert outcome.status is Status.RUNTIME_FAILURE
        assert (outcome.exception_name, outcome.exception_message) == ("KeyError", "")

    def test_nameerror_final_line(self):
        termination = classify_termination(_exit(exception_name="NameError"))
        assert termination.status is Status.RUNTIME_FAILURE
        assert termination.exception_name == "NameError"
        assert termination.exception_message == ""

    def test_nonzero_exit_without_exception_is_unknown(self):
        termination = classify_termination(_exit(2))
        assert termination.status is Status.RUNTIME_FAILURE
        assert termination.exception_name == "UnknownError"
        assert termination.exception_message == "exit code 2 without an uncaught exception"

    def test_program_stderr_noise_not_mistaken_for_exception(self):
        source = (
            "import sys\n"
            "sys.stderr.write('progress: 10%\\nTraceback (most recent call last):\\n"
            "  File \"prog.py\", line 1, in <module>\\nKeyError: 1\\n')\n"
            "sys.exit(3)\n"
        )
        outcome = execute(source, TestCase("", ""), LIMITS)
        assert outcome.status is Status.RUNTIME_FAILURE
        assert outcome.exception_name == "UnknownError"

    def test_memory_error_beats_timer(self):
        raw = _exit(exception_name="MemoryError", timed_out=True)
        assert classify_termination(raw).status is Status.MEMORY_LIMIT_EXCEEDED

    def test_sigkill_with_peak_near_limit_is_memory(self):
        raw = _exit(-int(signal.SIGKILL), peak_memory_bytes=int(0.97 * 2**28))
        assert classify_termination(raw).status is Status.MEMORY_LIMIT_EXCEEDED

    def test_timer_kill_with_high_peak_is_still_timeout(self):
        raw = _exit(-int(signal.SIGKILL), timed_out=True, peak_memory_bytes=int(0.97 * 2**28))
        assert classify_termination(raw).status is Status.TIME_LIMIT_EXCEEDED

    def test_sigxcpu_is_timeout(self):
        raw = _exit(-int(signal.SIGXCPU))
        assert classify_termination(raw).status is Status.TIME_LIMIT_EXCEEDED

    def test_compile_stage_syntax(self):
        termination = classify_termination(_exit(exception_name="SyntaxError", syntax_error=True))
        assert termination.status is Status.SYNTAX_FAILURE
        assert termination.exception_message == "SyntaxError"
        assert termination.exception_name == ""

    @pytest.mark.parametrize(
        "name, syntax_error, status, reported",
        [
            ("MemoryError", False, Status.MEMORY_LIMIT_EXCEEDED, ""),
            ("RecursionError", False, Status.RUNTIME_FAILURE, "RecursionError"),
            ("SyntaxError", False, Status.RUNTIME_FAILURE, "SyntaxError"),
            ("IndentationError", True, Status.SYNTAX_FAILURE, ""),
        ],
        ids=["memory", "recursion", "syntax-while-running", "indentation-while-compiling"],
    )
    def test_syntax_failure_only_by_the_syntax_flag(self, name, syntax_error, status, reported):
        # The child sets the flag for a SyntaxError (an isinstance check)
        # from compiling; any other exception is classified by its name.
        termination = classify_termination(_exit(exception_name=name, syntax_error=syntax_error))
        assert termination.status is status
        assert termination.exception_name == reported

    def test_clean_exit_returns_none(self):
        # A clean exit is judged by its output alone, even when a thread
        # died of an exception.
        assert classify_termination(_exit(0)) is None

    def test_dotted_exception_name_uses_leaf(self):
        source = "import socket\nraise socket.gaierror(-2, 'Name or service not known')\n"
        outcome = execute(source, TestCase("", ""), LIMITS)
        assert outcome.exception_name == "gaierror"


def _exit(returncode: int = 1, timed_out: bool = False, **fields) -> ProcessExit:
    """A ProcessExit under a 256 MiB limit."""
    return ProcessExit(returncode, timed_out, memory_limit_bytes=2**28, **fields)


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

    def test_validate_runs_every_test(self, tmp_path):
        tests = [("1", "2"), ("2", "3"), ("3", "5")]
        rows = _validate(tmp_path, tests, [{"model_id": "m", "source_code": "print(int(input())+1)"}],
                         jobs=2)
        assert [row["status"] for row in rows] == ["pass", "pass", "wrong_output"]
        assert [row["test_index"] for row in rows] == [0, 1, 2]

    def test_all_gated_corpus_starts_no_server(self, tmp_path, popens):
        answers = [
            {"model_id": "m-stutter", "source_code": "print(1)\n" * 50},
            {"model_id": "m-gibberish", "source_code": "qz xv ## @@ !! zz"},
        ]
        rows = _validate(tmp_path, [("", "1")], answers, jobs=2)
        assert [(row["model_id"], row["status"]) for row in rows] == [
            ("m-gibberish", "not_executed"), ("m-stutter", "not_executed")]
        assert popens == []

    def test_missing_interpreter_fails_every_execution(self, tmp_path):
        # No execution can run, so the corpus gets no states.jsonl at all.
        tests = [("1", "2"), ("2", "3"), ("3", "4")]
        answers = [{"model_id": m, "source_code": "print(1)"} for m in ("m1", "m2")]
        with pytest.raises(FileNotFoundError, match="/no/such/bin"):
            _validate(tmp_path, tests, answers, interpreter=("/no/such/bin",), jobs=2)
        assert list((tmp_path / "out").iterdir()) == []

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

    def test_harness_faults_logged_once_with_the_first_cause(
        self, mini_corpus, tmp_path, caplog, monkeypatch
    ):
        # A full disk fails each execution's own files: each is a
        # sandbox_error row, and the run goes on.
        def full_disk(directory, source_code, test):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sandbox, "_lay_out", full_disk)
        config = RunConfig(str(mini_corpus["tasks"]), str(mini_corpus["completions"]),
                           out_dir=str(tmp_path), jobs=2)
        with caplog.at_level("WARNING"):
            states = validate_stage(config)
        rows = [json.loads(line) for line in states.read_text().splitlines()]
        faults = [row for row in rows if row["status"] != "not_executed"]
        assert faults and {row["status"] for row in faults} == {"sandbox_error"}
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"{len(faults)} executions ended in harness faults, the first: "
             f"OSError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}")
        ]

    def test_artifact_dirs_distinct_per_model(self, tmp_path):
        root = tmp_path / "artifacts"
        tests, answers = _three_model_corpus()
        rows = _validate(tmp_path, tests, answers, artifact_dir=str(root))
        statuses: dict[str, list[Status]] = {}
        for row in rows:
            statuses.setdefault(row["model_id"], []).append(Status(row["status"]))
        assert statuses == {
            "m-first": [Status.WRONG_OUTPUT] * 3,
            "m-pass": [Status.PASS] * 3,
            "m-second": [Status.PASS, Status.WRONG_OUTPUT, Status.WRONG_OUTPUT],
        }
        dirs = sorted(str(p.parent.relative_to(root)) for p in root.rglob("prog.py"))
        assert dirs == [
            f"t__{model}/test_{index:03d}"
            for model in ("m-first", "m-pass", "m-second")
            for index in range(3)
        ]
        sources = {answer["model_id"]: answer["source_code"] for answer in answers}
        for directory in dirs:
            model_id = directory.split("/")[0].split("__")[1]
            assert (root / directory / "prog.py").read_text() == sources[model_id]

    def test_artifact_dirs_distinct_per_sample(self, tmp_path):
        root = tmp_path / "artifacts"
        sources = ("print(int(input())+1)", "print(int(input())+2)")
        answers = [
            {"model_id": "m", "source_code": src, "sample_index": i} for i, src in enumerate(sources)
        ]
        rows = _validate(tmp_path, [("1", "2")], answers, task_id="t1", artifact_dir=str(root))
        assert sorted(Status(row["status"]) for row in rows) == [Status.PASS, Status.WRONG_OUTPUT]
        dirs = sorted(str(p.parent.relative_to(root)) for p in root.rglob("prog.py"))
        assert dirs == ["t1__m__s0/test_000", "t1__m__s1/test_000"]
        for directory, source in zip(dirs, sources):
            assert (root / directory / "prog.py").read_text() == source


def _validate(tmp_path: Path, tests, answers, task_id: str = "t", **settings) -> list[dict]:
    """The rows of the states.jsonl that `validate_stage` writes under
    `tmp_path`/out for one task of `tests`, (input, expected output) pairs
    run under LIMITS, and `answers`, completions.jsonl rows without their
    task id and raw response."""
    tasks, completions = tmp_path / "tasks.jsonl", tmp_path / "completions.jsonl"
    limits = {"wall_time_ms": LIMITS.wall_time_ms, "memory_bytes": LIMITS.memory_bytes}
    cases = [{"input": given, "expected_output": expected} for given, expected in tests]
    tasks.write_text(json.dumps({"task_id": task_id, "test_cases": cases, "limits": limits}) + "\n")
    completions.write_text("".join(
        json.dumps({"task_id": task_id, "raw_response": "", **answer}) + "\n" for answer in answers
    ))
    config = RunConfig(str(tasks), str(completions), out_dir=str(tmp_path / "out"), **settings)
    return [json.loads(line) for line in validate_stage(config).read_text().splitlines()]


def _three_model_corpus() -> tuple[list[tuple[str, str]], list[dict]]:
    """The tests of one three-test task and its answers: a program passing
    every test, one failing the first test and one failing the second."""
    sources = {
        "m-pass": "print(int(input())+1)",
        "m-first": "print(int(input())+2)",
        "m-second": "n = int(input())\nprint(n+1 if n < 2 else 0)",
    }
    answers = [{"model_id": model, "source_code": src} for model, src in sources.items()]
    return [("1", "2"), ("2", "3"), ("3", "4")], answers


def test_outcome_round_trip(tmp_path):
    outcome = execute("print(undefined)", TestCase("", ""), LIMITS, artifact_dir=tmp_path)
    text = (tmp_path / "outcome.json").read_text(encoding="utf-8")
    stored = json.loads(text)
    assert text == json.dumps(stored, sort_keys=True, indent=2)
    assert stored["status"] == "runtime_failure"
    assert ExecutionOutcome(**{**stored, "status": Status(stored["status"])}) == outcome
