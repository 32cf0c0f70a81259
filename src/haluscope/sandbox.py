"""Isolated execution of one candidate program against one test case.

Each execution runs in a fresh temporary directory with an allowlisted
environment, an OS virtual-memory cap, a CPU-time backstop, and a
socket-denying interpreter guard. Isolation is best effort: the harness
targets honest resource accounting, not adversarial security.

Each execution is forked from a fork server (`_forkserver.py`): one
interpreter started with the run child's argv and guard environment,
which forks one child per execution and reports its exit status and
`ru_maxrss`. A batch runs one interpreter; each of its worker threads
keeps one server until the call returns, and the first one starts before
any request is read. A bare `execute` runs as a batch of one.

The forked child compiles prog.py, then runs it, so a syntax failure is
judged by the interpreter that runs the program. The child replies once
prog.py compiled; a child that ends without that reply ended in the
compile stage. Both stages run under the wall limit, timed from the
request to the server's reply, without interpreter start-up.

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
import re
import select
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import ResourceLimits, TestCase
from .errors import HarnessFault

logger = logging.getLogger(__name__)

# Cap on bytes a program may write to stdout/stderr or to scratch files.
OUTPUT_LIMIT_BYTES = 64 * 2**20

# PYTHONHASHSEED of every fork server and so of every program; 0 turns
# hash randomization off.
HASH_SEED = "0"

_SYNTAX_EXCEPTIONS = frozenset({"SyntaxError", "IndentationError", "TabError"})
_MEMORY_KILL_SIGNALS = frozenset({signal.SIGKILL, signal.SIGSEGV, signal.SIGABRT, signal.SIGBUS})

_TRACEBACK_HEADER = "Traceback (most recent call last):"
_FILE_LINE = re.compile(r'^\s+File "')
_EXC_LINE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(?::\s?(.*))?\s*$"
)
_SITECUSTOMIZE_GUARD = """\
import errno
import socket


def _deny(*args, **kwargs):
    raise OSError(errno.EPERM, "network access disabled by sandbox")


socket.socket.connect = _deny
socket.socket.connect_ex = _deny
socket.socket.sendto = _deny
socket.create_connection = _deny
socket.getaddrinfo = _deny
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
    status: Status
    exception_name: str = ""
    exception_message: str = ""
    wall_time_ms: int = 0
    peak_memory_bytes: int | None = None


@dataclass(frozen=True)
class ProcessExit:
    """Raw observables of a terminated child, fed to classify_termination."""

    returncode: int
    timed_out: bool
    stage: str  # "compile" or "run"
    memory_limit_bytes: int
    peak_memory_bytes: int | None = None


def compare_output(actual: str, expected: str) -> bool:
    """Line-sequence equality after stripping trailing whitespace per line
    and trailing blank lines."""
    return _normalized_lines(actual) == _normalized_lines(expected)


def _normalized_lines(text: str) -> list[str]:
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def classify_termination(raw: ProcessExit, stderr: str) -> ExecutionOutcome | None:
    """Map a terminated process to a failure status and exception fields,
    without timing or output.

    Returns None for a clean exit, whatever stderr holds (status then
    depends on output comparison). The final exception of the last traceback block wins when
    tracebacks are chained. A compile stage prints its error without a
    traceback, so there a bare last line names the exception too, and a
    SyntaxError (subclasses included) is a syntax failure; any other
    exception is read as a run stage's. Memory evidence outranks the timer,
    which outranks the parsed exception."""
    if raw.returncode == 0 and not raw.timed_out:
        return None
    compiling = raw.stage == "compile"
    exc_name, exc_message = _parse_last_exception(stderr, bare=compiling)
    if compiling and exc_name in _SYNTAX_EXCEPTIONS:
        return ExecutionOutcome(
            status=Status.SYNTAX_FAILURE,
            exception_message=f"{exc_name}: {exc_message}" if exc_message else exc_name,
        )

    if exc_name == "MemoryError":
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
    if exc_name:
        return ExecutionOutcome(
            status=Status.RUNTIME_FAILURE,
            exception_name=exc_name,
            exception_message=exc_message,
        )
    return ExecutionOutcome(
        status=Status.RUNTIME_FAILURE,
        exception_name="UnknownError",
        exception_message=f"exit code {raw.returncode} with unparseable stderr",
    )


def _parse_last_exception(stderr: str, bare: bool = False) -> tuple[str, str]:
    """The (name, message) of the final exception in the last traceback
    block; a dotted name gives its last part. Chained blocks ("During
    handling..." / "direct cause") resolve to the last exception line.
    Returns empty strings when no traceback evidence exists; with `bare`,
    the last non-blank line alone is such evidence."""
    lines = stderr.split("\n")
    anchor = -1
    for idx, line in enumerate(lines):
        if line.startswith(_TRACEBACK_HEADER) or _FILE_LINE.match(line):
            anchor = idx
    if anchor < 0 and bare:
        anchor = stderr.rstrip().count("\n")
    if anchor < 0:
        return "", ""
    name, message = "", ""
    for line in lines[anchor:]:
        match = _EXC_LINE.match(line)
        if not match:
            continue
        candidate = match.group(1)
        leaf = candidate.rsplit(".", 1)[-1]
        if "." not in candidate and not leaf[0].isupper():
            continue
        name, message = leaf, match.group(2) or ""
    return name, message


def _rlimits(limits: ResourceLimits) -> dict[str, tuple[int, int]]:
    """The kernel limits of a sandboxed process, by `resource` name."""
    wall_s = math.ceil(limits.wall_time_ms / 1000)
    return {
        "RLIMIT_AS": (limits.memory_bytes, limits.memory_bytes),
        "RLIMIT_CPU": (wall_s + 1, wall_s + 2),
        "RLIMIT_FSIZE": (OUTPUT_LIMIT_BYTES, OUTPUT_LIMIT_BYTES),
    }


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

    Total: every path yields an ExecutionOutcome; SandboxError is reserved
    for harness-side faults (missing interpreter, temp-dir failure) and is
    never produced by program behavior. Status decision order:
    SandboxError > SyntaxFailure > MemoryLimitExceeded > TimeLimitExceeded
    > RuntimeFailure > WrongOutput > Pass. With `artifact_dir`, it holds
    prog.py, stdin.txt, outcome.json (the outcome's fields), stdout.txt and
    stderr.txt (what the program wrote to each, up to OUTPUT_LIMIT_BYTES,
    as UTF-8 with invalid bytes replaced). The outcome holds no program
    output. Inside a batch the batch's interpreter runs the program, and
    `interpreter` is not read."""
    if _SERVERS.get() is None:  # outside a batch: a batch of one
        request = ExecutionRequest(source_code, test, limits, artifact_dir)
        return execute_batch([request], interpreter=interpreter)[0]
    stdout_text = stderr_text = ""
    try:
        outcome, stdout_text, stderr_text = _execute_in_tempdir(source_code, test, limits)
    except Exception as exc:  # harness fault, not program behavior
        logger.exception("sandbox fault while executing candidate")
        outcome = ExecutionOutcome(
            status=Status.SANDBOX_ERROR,
            exception_message=f"{type(exc).__name__}: {exc}",
        )
    if artifact_dir is not None:
        try:
            _write_artifacts(
                Path(artifact_dir), source_code, test, outcome, stdout_text, stderr_text
            )
        except OSError:
            logger.warning("failed to write execution artifacts to %s", artifact_dir)
    return outcome


def _execute_in_tempdir(
    source_code: str, test: TestCase, limits: ResourceLimits
) -> tuple[ExecutionOutcome, str, str]:
    """The outcome of one execution, and the program's stdout and stderr."""
    with tempfile.TemporaryDirectory(prefix="haluscope-exec-") as tmp:
        workdir = Path(tmp)
        _lay_out(workdir, source_code, test)
        server = _SERVERS.get().get()
        started = time.monotonic()
        raw = server.run(workdir, limits)
        elapsed_ms = int((time.monotonic() - started) * 1000)
        stdout_text = _read_capped(workdir / "stdout.txt")
        stderr_text = _read_capped(workdir / "stderr.txt")
    if raw is None:
        outcome = ExecutionOutcome(
            status=Status.RUNTIME_FAILURE,
            exception_name="UnknownError",
            exception_message="the fork server was killed while the program ran",
            wall_time_ms=elapsed_ms,
        )
    elif (termination := classify_termination(raw, stderr_text)) is not None:
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
    return outcome, stdout_text, stderr_text


def _lay_out(directory: Path, source_code: str, test: TestCase) -> None:
    """Write prog.py and stdin.txt. A lone surrogate is written as its
    bytes: the interpreter refuses them in prog.py as Non-UTF-8 code (a
    syntax failure), and the program reads them from stdin.txt."""
    (directory / "prog.py").write_bytes(source_code.encode("utf-8", "surrogatepass"))
    (directory / "stdin.txt").write_bytes(test.input.encode("utf-8", "surrogatepass"))


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
    """One fork-server interpreter running `_forkserver.py`, its directory
    (`haluscope-zygote-*`, holding its guard and its stderr log), and the
    harness's ends of its request and reply pipes."""

    def __init__(self, argv: list[str]):
        self._dir = Path(tempfile.mkdtemp(prefix="haluscope-zygote-"))
        self._proc: subprocess.Popen | None = None
        self._requests = self._replies = -1
        self._pending = b""
        try:
            self._start(argv)
        except BaseException:
            self.close()
            raise

    def _start(self, argv: list[str]) -> None:
        guard_dir = _write_guard(self._dir)
        with contextlib.ExitStack() as server_ends:
            requests_r, self._requests = os.pipe()
            server_ends.callback(os.close, requests_r)
            self._replies, replies_w = os.pipe()
            server_ends.callback(os.close, replies_w)
            log = server_ends.enter_context((self._dir / "server.log").open("wb"))
            self._proc = subprocess.Popen(
                argv + [str(_FORK_SERVER_SCRIPT), str(requests_r), str(replies_w)],
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
        if self._reply(time.monotonic() + _SERVER_START_TIMEOUT_S) != b"ready":
            log_text = (self._dir / "server.log").read_text(encoding="utf-8", errors="replace")
            raise HarnessFault(f"fork server failed to start: {log_text[-2000:].strip()}")

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def run(self, workdir: Path, limits: ResourceLimits) -> ProcessExit | None:
        """Fork one child compiling and running workdir/prog.py, with this
        server's guard, and time it against the wall limit, killing its
        process group once the limit passes. The stage is "compile" until
        the child reports that prog.py compiled. None when the server died
        while the program ran; the program's group is killed and the server
        reaped then."""
        request = {"workdir": str(workdir), "rlimits": _rlimits(limits)}
        deadline = time.monotonic() + limits.wall_time_ms / 1000.0
        os.write(self._requests, json.dumps(request).encode("utf-8") + b"\n")
        started = self._reply(deadline + _SERVER_GRACE_S)
        if not started:
            self.kill()
            raise HarnessFault("fork server did not start the program")
        if started.startswith(b"error "):
            self._reply(deadline)  # the server's report on the child, unused
            reason = started[len(b"error "):].decode("utf-8", errors="replace")
            raise HarnessFault(f"fork server could not set up the program: {reason}")
        pid = int(started)
        stage, timed_out = "compile", False
        while True:
            finished = self._reply(time.monotonic() + _SERVER_GRACE_S if timed_out else deadline)
            if finished == b"compiled":
                stage = "run"
            elif finished is None and not timed_out:
                timed_out = True
                _kill_group(pid)
            else:
                break
        if not finished:
            _kill_group(pid)
            self.kill()
            return None
        returncode, peak = (int(value) for value in finished.split())
        return ProcessExit(
            returncode=returncode,
            timed_out=timed_out,
            stage=stage,
            memory_limit_bytes=limits.memory_bytes,
            peak_memory_bytes=peak,
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
        shutil.rmtree(self._dir, ignore_errors=True)


class _ForkServers:
    """The fork servers of one `execute_batch` call, all running `argv`, one
    per worker thread. A thread's server starts at its first `get` and is
    replaced once dead; `close` ends and reaps every one."""

    def __init__(self, argv: list[str]) -> None:
        self._argv = argv
        self._servers: dict[int, _ForkServer] = {}

    def get(self) -> _ForkServer:
        # Only the thread named in a key reads or writes that key.
        key = threading.get_ident()
        server = self._servers.get(key)
        if server is None or not server.alive():
            if server is not None:
                server.close()
            server = self._servers[key] = _ForkServer(self._argv)
        return server

    def close(self) -> None:
        for server in self._servers.values():
            server.close()
        self._servers.clear()


# The fork servers of the `execute_batch` call this thread works for.
_SERVERS: ContextVar[_ForkServers | None] = ContextVar("haluscope_forkservers", default=None)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.kill(pid, signal.SIGKILL)


def _read_capped(path: Path, cap: int = OUTPUT_LIMIT_BYTES) -> str:
    """A capture file's text; empty when the program removed it, made it
    unreadable or put anything but a regular file in its place (opening a
    FIFO without O_NONBLOCK would wait for a writer)."""
    try:
        with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
            data = fh.read(cap) if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else b""
    except OSError:
        return ""
    return data.decode("utf-8", errors="replace")


def _write_artifacts(
    directory: Path, source_code: str, test: TestCase, outcome: ExecutionOutcome,
    stdout_text: str, stderr_text: str,
) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    _lay_out(directory, source_code, test)
    (directory / "stdout.txt").write_text(stdout_text, encoding="utf-8")
    (directory / "stderr.txt").write_text(stderr_text, encoding="utf-8")
    (directory / "outcome.json").write_text(
        json.dumps(outcome_to_dict(outcome), sort_keys=True, indent=2), encoding="utf-8"
    )


def outcome_to_dict(outcome: ExecutionOutcome) -> dict:
    return {**dataclasses.asdict(outcome), "status": outcome.status.value}


@dataclass(frozen=True)
class ExecutionRequest:
    """One (completion, test) pair for the worker pool."""

    source_code: str
    test: TestCase
    limits: ResourceLimits
    artifact_dir: str | None = None


def execute_request(r: ExecutionRequest) -> ExecutionOutcome:
    return execute(r.source_code, r.test, r.limits, artifact_dir=r.artifact_dir)


def execute_batch(
    requests: Iterable[ExecutionRequest], jobs: int = 1, interpreter: Sequence[str] | None = None
) -> list[ExecutionOutcome]:
    """Execute (completion, test) pairs with `interpreter` on up to `jobs`
    worker threads, each in its own temp dir; results come back in request
    order, so they are independent of scheduling. Each worker thread forks
    its executions from one fork server; every server is ended and reaped
    before this returns, so no process outlives the call and
    RUSAGE_CHILDREN counts every child.

    The first server starts before `requests` is read, so a generator's own
    work (the degeneration gate) overlaps it; a batch without requests still
    starts and kills that server. The calling thread only reads requests
    and waits, so an exception raised there, by the generator or a signal
    (Ctrl-C), cancels the queued requests, and each running one still ends
    on its worker thread, which kills the program's group at the wall limit
    or when its server dies, before the exception leaves this call."""
    servers = _ForkServers(list(interpreter or [sys.executable]))
    pool = ThreadPoolExecutor(max(1, jobs), initializer=_SERVERS.set, initargs=(servers,))
    try:
        pool.submit(servers.get)  # a failed start is retried, and reported, per request
        return list(pool.map(execute_request, requests))
    finally:
        pool.shutdown(cancel_futures=True)
        servers.close()
