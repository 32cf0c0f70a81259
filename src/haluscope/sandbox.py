"""Isolated execution of one candidate program against one test case.

Each execution runs in a fresh temporary directory with an allowlisted
environment, an OS virtual-memory cap, a CPU-time backstop, a file-size
cap (RLIMIT_FSIZE, the one bound on its captured output too), and a
network-denying interpreter guard: a `sitecustomize` audit hook, inherited
by every interpreter the program starts, raises EPERM on the audit events
of connect, sendto, getaddrinfo and a sendmsg with an address, however the
program reaches them. Isolation is best effort: the harness targets honest
resource accounting, not adversarial security.

Each execution is forked from a fork server (`_forkserver.py`): one
interpreter started with the run child's argv and guard environment,
which forks one child per execution and reports its exit status and
`ru_maxrss`. A batch gives each of its worker threads one server, started
with the thread's first request and again if found dead, and closes every
one before it returns; the kernel kills a server with the thread that
started it (`_forkserver.py`). A fault of a server, one that cannot start,
cannot set up a child or stops replying, ends the batch: it raises out of
`execute_batch` once the batch has cancelled its queued requests and
reaped its servers. A bare `execute` runs as a batch of one.

The forked child runs prog.py through the C call `python prog.py` ends
in, so the program's interpreter reads it with its own file tokenizer.
Reading, compiling and running it share the wall limit, timed from the
request to the server's reply, without interpreter start-up. The child
reports the exception that ended the program uncaught, and that report,
never the program's stderr, decides an outcome's exception fields.

Every server starts with PYTHONHASHSEED set to HASH_SEED, so every
program of every run shares one str and bytes hash secret: a program
printing a set of strings prints it in one order, where a plain
`python prog.py` would draw a random secret per run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import ResourceLimits, TestCase
from .errors import HarnessFault

logger = logging.getLogger(__name__)

# RLIMIT_FSIZE of every program, and so the cap on its captured output.
OUTPUT_LIMIT_BYTES = 64 * 2**20

# PYTHONHASHSEED of every fork server and so of every program; 0 turns
# hash randomization off.
HASH_SEED = "0"

_CAPTURE_FLAGS = os.O_RDONLY | os.O_CREAT | os.O_EXCL

_MEMORY_KILL_SIGNALS = frozenset({signal.SIGKILL, signal.SIGSEGV, signal.SIGABRT, signal.SIGBUS})

_SITECUSTOMIZE_GUARD = """\
import errno
import sys


def _deny(event, args):
    # A sendmsg without an address sends as send() does, which raises no
    # audit event, to a connected socket's peer (a socketpair's, say).
    if event in _NETWORK_EVENTS or event == "socket.sendmsg" and args[1] is not None:
        raise OSError(errno.EPERM, "network access disabled by sandbox")


_NETWORK_EVENTS = frozenset({"socket.connect", "socket.sendto", "socket.getaddrinfo"})
sys.addaudithook(_deny)
"""


class Status(str, Enum):
    PASS = "pass"
    WRONG_OUTPUT = "wrong_output"
    RUNTIME_FAILURE = "runtime_failure"
    TIME_LIMIT_EXCEEDED = "time_limit_exceeded"
    MEMORY_LIMIT_EXCEEDED = "memory_limit_exceeded"
    SYNTAX_FAILURE = "syntax_failure"
    SANDBOX_ERROR = "sandbox_error"


@dataclass(frozen=True)
class ExecutionOutcome:
    """How one execution ended. `exception_name` names a runtime failure's
    exception type; `exception_message` holds the harness's own reason, a
    syntax failure's SyntaxError subclass, or "" when the program's uncaught
    exception decided the status (its text is only in the program's stderr)."""

    status: Status
    exception_name: str = ""
    exception_message: str = ""
    wall_time_ms: int = 0
    peak_memory_bytes: int | None = None


@dataclass(frozen=True)
class ProcessExit:
    """Raw observables of a terminated child, fed to classify_termination,
    with the uncaught exception the child reported ("" names none)."""

    returncode: int
    timed_out: bool
    memory_limit_bytes: int
    peak_memory_bytes: int | None = None
    exception_name: str = ""
    syntax_error: bool = False  # the exception is a SyntaxError from compiling


def compare_output(actual: str, expected: str) -> bool:
    """Line-sequence equality after stripping trailing whitespace per line
    and trailing blank lines."""
    return _normalized_lines(actual) == _normalized_lines(expected)


def _normalized_lines(text: str) -> list[str]:
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def classify_termination(raw: ProcessExit) -> ExecutionOutcome | None:
    """Map a terminated process to a failure status and exception fields,
    without timing or output; None for a clean exit (status then depends
    on output comparison).

    The exception the child reported wins over any text on stderr, which
    the program controls, and is classified under its own type's name (an
    ExceptionGroup too). A SyntaxError from compiling is a syntax failure.
    A nonzero exit without an uncaught exception (`sys.exit(2)`,
    `sys.exit("msg")`, `os._exit(1)`, a failed final flush) is an
    UnknownError. Memory evidence outranks the timer, which outranks the
    reported exception."""
    if raw.returncode == 0 and not raw.timed_out:
        return None
    if raw.syntax_error:
        return ExecutionOutcome(status=Status.SYNTAX_FAILURE, exception_message=raw.exception_name)

    if raw.exception_name == "MemoryError":
        return ExecutionOutcome(
            status=Status.MEMORY_LIMIT_EXCEEDED,
            exception_message="interpreter allocator raised MemoryError",
        )
    if (
        raw.returncode < 0
        and not raw.timed_out
        and -raw.returncode in {int(s) for s in _MEMORY_KILL_SIGNALS}
        and raw.peak_memory_bytes is not None
        and raw.peak_memory_bytes >= 0.9 * raw.memory_limit_bytes
    ):
        return ExecutionOutcome(
            status=Status.MEMORY_LIMIT_EXCEEDED,
            exception_message=(
                f"killed by signal {-raw.returncode} with peak memory "
                f"{raw.peak_memory_bytes} of {raw.memory_limit_bytes} bytes"
            ),
        )
    if raw.timed_out or raw.returncode == -int(signal.SIGXCPU):
        return ExecutionOutcome(
            status=Status.TIME_LIMIT_EXCEEDED,
            exception_message="wall-time limit exceeded",
        )
    if raw.returncode == -int(signal.SIGXFSZ):
        return ExecutionOutcome(
            status=Status.RUNTIME_FAILURE,
            exception_name="OutputLimitExceeded",
            exception_message=f"wrote more than {OUTPUT_LIMIT_BYTES} bytes",
        )
    if raw.exception_name:
        return ExecutionOutcome(status=Status.RUNTIME_FAILURE, exception_name=raw.exception_name)
    return ExecutionOutcome(
        status=Status.RUNTIME_FAILURE,
        exception_name="UnknownError",
        exception_message=f"exit code {raw.returncode} without an uncaught exception",
    )


def _rlimits(limits: ResourceLimits) -> tuple[int, ...]:
    """The kernel limits of a sandboxed process: the soft and hard
    RLIMIT_AS, RLIMIT_CPU and RLIMIT_FSIZE, in that order."""
    wall_s = math.ceil(limits.wall_time_ms / 1000)
    return (limits.memory_bytes, limits.memory_bytes, wall_s + 1, wall_s + 2,
            OUTPUT_LIMIT_BYTES, OUTPUT_LIMIT_BYTES)


def _guard_env(workdir: Path, guard_dir: Path) -> dict[str, str]:
    env = {
        "PYTHONPATH": str(guard_dir),
        "PYTHONHASHSEED": HASH_SEED,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONIOENCODING": "utf-8",
        "HOME": str(workdir),
        "TMPDIR": str(workdir),
    }
    for key in ("PATH", "LANG", "LC_ALL"):
        value = os.environ.get(key)
        if value:
            env[key] = value
    return env


def execute(
    source_code: str,
    test: TestCase,
    limits: ResourceLimits,
    interpreter: Sequence[str] | None = None,
    artifact_dir: str | Path | None = None,
) -> ExecutionOutcome:
    """Run `source_code` against one test case under `limits`.

    An OSError from the execution's own files (its temp dir, prog.py,
    stdin.txt, the captures) or from a request to a server that died a
    moment earlier yields SandboxError, logged at DEBUG with its traceback;
    program behavior never does. A fault of the fork server raises:
    HarnessFault, or the OSError of an interpreter that cannot start.
    Status decision order: SandboxError > SyntaxFailure > MemoryLimitExceeded
    > TimeLimitExceeded > RuntimeFailure > WrongOutput > Pass. With
    `artifact_dir`, it holds prog.py, stdin.txt, outcome.json (its status,
    exception type, wall time and peak memory), stdout.txt and stderr.txt
    (what the program wrote to its stdout and stderr, read through files the
    harness made, as UTF-8 with invalid bytes replaced). The outcome holds
    no program output. Inside a batch the batch's interpreter runs the
    program, and `interpreter` is not read."""
    server = _SERVER.get()
    if server is None:  # outside a batch: a batch of one
        request = ExecutionRequest(source_code, test, limits, artifact_dir)
        return execute_batch([request], interpreter=interpreter)[0]
    server.started()
    stdout_text = stderr_text = ""
    try:
        with tempfile.TemporaryDirectory(prefix="haluscope-exec-") as tmp:
            workdir = Path(tmp)
            _lay_out(workdir, source_code, test)
            # The child opens both by name; read through these, they hold what
            # it wrote, whatever the program later puts at those names. (An
            # ExitStack per execution read 0.1 MiB more exec-multitest RSS.)
            stdout_fd = os.open(workdir / "stdout.txt", _CAPTURE_FLAGS, 0o666)
            stderr_fd = -1
            try:
                stderr_fd = os.open(workdir / "stderr.txt", _CAPTURE_FLAGS, 0o666)
                started = time.monotonic()
                raw = server.run(workdir, limits)
                elapsed_ms = int((time.monotonic() - started) * 1000)
                stdout_text = _read_capture(stdout_fd)
                if artifact_dir is not None:
                    stderr_text = _read_capture(stderr_fd)
            finally:
                os.close(stdout_fd)
                if stderr_fd >= 0:
                    os.close(stderr_fd)
        if raw is None:
            outcome = ExecutionOutcome(
                status=Status.RUNTIME_FAILURE,
                exception_name="UnknownError",
                exception_message="the fork server was killed while the program ran",
                wall_time_ms=elapsed_ms,
            )
        elif (termination := classify_termination(raw)) is not None:
            outcome = dataclasses.replace(
                termination, wall_time_ms=elapsed_ms, peak_memory_bytes=raw.peak_memory_bytes
            )
        else:
            passed = compare_output(stdout_text, test.expected_output)
            outcome = ExecutionOutcome(
                status=Status.PASS if passed else Status.WRONG_OUTPUT,
                wall_time_ms=elapsed_ms,
                peak_memory_bytes=raw.peak_memory_bytes,
            )
    except OSError as exc:  # harness fault, not program behavior
        logger.debug("sandbox fault while executing candidate", exc_info=True)
        outcome = ExecutionOutcome(
            status=Status.SANDBOX_ERROR,
            exception_message=f"{type(exc).__name__}: {exc}",
        )
    if artifact_dir is not None:
        directory = Path(artifact_dir)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            _lay_out(directory, source_code, test)
            (directory / "stdout.txt").write_text(stdout_text, encoding="utf-8")
            (directory / "stderr.txt").write_text(stderr_text, encoding="utf-8")
            (directory / "outcome.json").write_text(
                json.dumps(dataclasses.asdict(outcome), sort_keys=True, indent=2), encoding="utf-8"
            )
        except OSError:
            logger.warning("failed to write execution artifacts to %s", artifact_dir)
    return outcome


def _lay_out(directory: Path, source_code: str, test: TestCase) -> None:
    """Write prog.py and stdin.txt. A lone surrogate is written as its
    bytes: the interpreter refuses them in prog.py as Non-UTF-8 code (a
    syntax failure), and the program reads them from stdin.txt."""
    (directory / "prog.py").write_bytes(source_code.encode("utf-8", "surrogatepass"))
    (directory / "stdin.txt").write_bytes(test.input.encode("utf-8", "surrogatepass"))


def _read_capture(fd: int) -> str:
    # A read allocates what it asks for: the size, which RLIMIT_FSIZE bounds.
    return os.read(fd, os.fstat(fd).st_size).decode("utf-8", errors="replace")


def _write_guard(directory: Path) -> Path:
    guard_dir = directory / "_guard"
    guard_dir.mkdir()
    (guard_dir / "sitecustomize.py").write_text(_SITECUSTOMIZE_GUARD, encoding="utf-8")
    return guard_dir


_FORK_SERVER_SCRIPT = Path(__file__).with_name("_forkserver.py")
# How long a fork server may take to start up.
_SERVER_START_TIMEOUT_S = 60.0
# How long past the wall limit a fork server may take to reply with the
# child's pid, or with its exit once its group was killed.
_SERVER_GRACE_S = 5.0


class _ForkServer:
    """The fork server of one worker thread: an interpreter running
    `_forkserver.py`, its directory (`haluscope-zygote-*`, holding its guard
    and its stderr log), and the harness's ends of its request and reply
    pipes. The thread calls `started` before each request."""

    def __init__(self, argv: list[str]):
        self._argv = argv
        self._dir: Path | None = None
        self._proc: subprocess.Popen | None = None
        self._requests = self._replies = -1

    def started(self) -> None:
        """Start the interpreter, in a new directory, unless it runs: at
        the first request, and again once `poll()` finds it dead. A start
        that fails leaves what it made to `close`."""
        if self._proc is not None and self._proc.poll() is None:
            return
        self.close()
        self._dir = Path(tempfile.mkdtemp(prefix="haluscope-zygote-"))
        self._pending = b""
        guard_dir = _write_guard(self._dir)
        with contextlib.ExitStack() as server_ends:
            requests_r, self._requests = os.pipe()
            server_ends.callback(os.close, requests_r)
            self._replies, replies_w = os.pipe()
            server_ends.callback(os.close, replies_w)
            log = server_ends.enter_context((self._dir / "server.log").open("wb"))
            self._proc = subprocess.Popen(
                self._argv + [str(_FORK_SERVER_SCRIPT), str(requests_r), str(replies_w)],
                cwd=self._dir,
                env=_guard_env(self._dir, guard_dir),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                pass_fds=(requests_r, replies_w),
                start_new_session=True,
            )
        self._poller = select.poll()
        self._poller.register(self._replies, select.POLLIN)
        reply = self._reply(time.monotonic() + _SERVER_START_TIMEOUT_S)
        if reply != b"ready":
            self.kill()  # so the log is whole
            log_text = (self._dir / "server.log").read_text(encoding="utf-8", errors="replace")
            cause = log_text[-2000:].strip() or (
                f"no ready reply within {_SERVER_START_TIMEOUT_S:g} s" if reply is None
                else f"exit status {self._proc.returncode} before a ready reply")
            raise HarnessFault(f"fork server failed to start: {cause}")

    def run(self, workdir: Path, limits: ResourceLimits) -> ProcessExit | None:
        """Fork one child running workdir/prog.py, with this server's
        guard, and time it against the wall limit, killing its process
        group once the limit passes. None when the server died
        while the program ran; the program's group is killed and the server
        reaped then."""
        request = " ".join(map(str, (*_rlimits(limits), os.fsencode(workdir).hex())))
        deadline = time.monotonic() + limits.wall_time_ms / 1000.0
        os.write(self._requests, request.encode("ascii") + b"\n")
        started = self._reply(deadline + _SERVER_GRACE_S)
        if not started:
            raise HarnessFault("fork server did not start the program")
        if started.startswith(b"error "):
            reason = started[len(b"error "):].decode("utf-8", errors="replace")
            raise HarnessFault(f"fork server could not set up the program: {reason}")
        pid = int(started)
        finished = self._reply(deadline)
        timed_out = finished is None
        if timed_out:
            _kill_group(pid)
            finished = self._reply(time.monotonic() + _SERVER_GRACE_S)
        if not finished:
            _kill_group(pid)
            self.kill()
            return None
        returncode, peak, report = finished.split(b" ")
        report = bytes.fromhex(report.decode("ascii")).decode("utf-8", errors="replace")
        return ProcessExit(
            returncode=int(returncode),
            timed_out=timed_out,
            memory_limit_bytes=limits.memory_bytes,
            peak_memory_bytes=int(peak),
            exception_name=report[1:],
            syntax_error=report[:1] == "1",
        )

    def _reply(self, deadline: float) -> bytes | None:
        """The server's next reply line: b"" at EOF, None once `deadline`
        passes first."""
        while b"\n" not in self._pending:
            remaining_ms = (deadline - time.monotonic()) * 1000
            if remaining_ms <= 0 or not self._poller.poll(math.ceil(remaining_ms)):
                return None
            chunk = os.read(self._replies, 4096)
            if not chunk:
                return b""
            self._pending += chunk
        line, self._pending = self._pending.split(b"\n", 1)
        return line

    def kill(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()

    def close(self) -> None:
        """Close the request pipe, kill and reap the server, and remove its
        directory. No forked child is in flight: the server replies to a
        request only once it has reaped the request's child."""
        if self._requests >= 0:
            os.close(self._requests)
            self._requests = -1
        self.kill()
        if self._replies >= 0:
            os.close(self._replies)
            self._replies = -1
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)


# The fork server of this `execute_batch` worker thread; None outside a batch.
_SERVER: ContextVar[_ForkServer | None] = ContextVar("haluscope_forkserver", default=None)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.kill(pid, signal.SIGKILL)


@dataclass(frozen=True)
class ExecutionRequest:
    """One (completion, test) pair for the worker pool."""

    source_code: str
    test: TestCase
    limits: ResourceLimits
    artifact_dir: str | None = None


def execute_batch(
    requests: Iterable[ExecutionRequest], jobs: int = 1, interpreter: Sequence[str] | None = None
) -> list[ExecutionOutcome]:
    """Execute (completion, test) pairs with `interpreter` on up to `jobs`
    worker threads, each in its own temp dir; results come back in request
    order, so they are independent of scheduling. Each runs as one call of
    `execute`, looked up at call time, so a wrapper of it sees each one.
    The pool's initializer gives each worker thread the fork server it forks
    its executions from; every server is ended and reaped before this
    returns, so no process outlives the call and RUSAGE_CHILDREN counts every
    child. A server starts with its thread's first request, so a worker
    without requests starts none.

    The calling thread only reads requests and waits, so an exception
    raised there, by a generator or a signal (Ctrl-C), cancels the queued
    requests, and each running one still ends on its worker thread, which
    kills the program's group at the wall limit or when its server dies,
    before the exception leaves this call. An exception raised by an
    execution, a fork-server fault, ends the batch the same way: no request
    starts once it is raised."""
    argv = list(interpreter or [sys.executable])
    servers: list[_ForkServer] = []
    faulted = threading.Event()

    def serve() -> None:  # the pool's initializer, run by each worker thread
        server = _ForkServer(argv)
        servers.append(server)
        _SERVER.set(server)

    def run(r: ExecutionRequest) -> ExecutionOutcome:
        if faulted.is_set():  # never read: an earlier request raised
            raise CancelledError
        try:
            return execute(r.source_code, r.test, r.limits, artifact_dir=r.artifact_dir)
        except BaseException:
            faulted.set()
            raise

    pool = ThreadPoolExecutor(max(1, jobs), initializer=serve)
    try:
        return list(pool.map(run, requests))
    finally:
        pool.shutdown(cancel_futures=True)
        for server in servers:
            server.close()
