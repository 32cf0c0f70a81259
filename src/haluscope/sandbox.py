"""Isolated execution of one candidate program against one test case.

Each execution runs in a fresh temporary directory with an allowlisted
environment, an OS virtual-memory cap, a CPU-time backstop, and a
socket-denying interpreter guard. Isolation is best effort: the harness
targets honest resource accounting, not adversarial security.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

from .corpus import ResourceLimits, TestCase

logger = logging.getLogger(__name__)

# Extra wall time the enforcement machinery may consume beyond the limit.
ENFORCEMENT_SLACK_MS = 500

# Cap on bytes a program may write to stdout/stderr or to scratch files.
OUTPUT_LIMIT_BYTES = 64 * 2**20

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
    actual_output: str = ""
    exception_name: str = ""
    exception_message: str = ""
    traceback: str = ""
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


@dataclass(frozen=True)
class Termination:
    status: Status
    exception_name: str = ""
    exception_message: str = ""
    traceback: str = ""


def default_interpreter() -> list[str]:
    return [sys.executable]


def compare_output(
    actual: str, expected: str, numeric_mode: bool = False, tolerance: float = 1e-6
) -> bool:
    """Line-sequence equality after stripping trailing whitespace per line
    and trailing blank lines. In numeric mode, tokens that both parse as
    decimals compare within `tolerance` absolute difference."""
    a_lines = _normalized_lines(actual)
    e_lines = _normalized_lines(expected)
    if not numeric_mode:
        return a_lines == e_lines
    if len(a_lines) != len(e_lines):
        return False
    for a_line, e_line in zip(a_lines, e_lines):
        a_tokens, e_tokens = a_line.split(), e_line.split()
        if len(a_tokens) != len(e_tokens):
            return False
        for a_tok, e_tok in zip(a_tokens, e_tokens):
            if a_tok == e_tok:
                continue
            try:
                a_val, e_val = float(a_tok), float(e_tok)
            except ValueError:
                return False
            if not abs(a_val - e_val) <= tolerance:
                return False
    return True


def _normalized_lines(text: str) -> list[str]:
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def classify_termination(raw: ProcessExit, stderr: str) -> Termination | None:
    """Map a terminated process to a failure status and exception fields.

    Returns None for a clean run-stage exit (status then depends on output
    comparison) and for an inconclusive compile stage. The final exception
    of the last traceback block wins when tracebacks are chained; memory
    evidence outranks the timer, which outranks the parsed exception."""
    exc_name, exc_message, traceback_text = _parse_last_exception(stderr)

    if raw.stage == "compile":
        if exc_name in _SYNTAX_EXCEPTIONS:
            detail = f"{exc_name}: {exc_message}" if exc_message else exc_name
            return Termination(
                status=Status.SYNTAX_FAILURE,
                exception_message=detail,
                traceback=traceback_text,
            )
        return None

    if exc_name == "MemoryError":
        return Termination(
            status=Status.MEMORY_LIMIT_EXCEEDED,
            exception_message="interpreter allocator raised MemoryError",
            traceback=traceback_text,
        )
    if (
        raw.returncode < 0
        and not raw.timed_out
        and -raw.returncode in {int(s) for s in _MEMORY_KILL_SIGNALS}
        and raw.peak_memory_bytes is not None
        and raw.peak_memory_bytes >= 0.9 * raw.memory_limit_bytes
    ):
        return Termination(
            status=Status.MEMORY_LIMIT_EXCEEDED,
            exception_message=(
                f"killed by signal {-raw.returncode} with peak memory "
                f"{raw.peak_memory_bytes} of {raw.memory_limit_bytes} bytes"
            ),
            traceback=traceback_text,
        )
    if raw.timed_out or raw.returncode == -int(signal.SIGXCPU):
        return Termination(
            status=Status.TIME_LIMIT_EXCEEDED,
            exception_message="wall-time limit exceeded",
        )
    if raw.returncode == 0:
        return None
    if raw.returncode == -int(signal.SIGXFSZ):
        return Termination(
            status=Status.RUNTIME_FAILURE,
            exception_name="OutputLimitExceeded",
            exception_message=f"wrote more than {OUTPUT_LIMIT_BYTES} bytes",
        )
    if exc_name:
        return Termination(
            status=Status.RUNTIME_FAILURE,
            exception_name=exc_name,
            exception_message=exc_message,
            traceback=traceback_text,
        )
    return Termination(
        status=Status.RUNTIME_FAILURE,
        exception_name="UnknownError",
        exception_message=f"exit code {raw.returncode} with unparseable stderr",
        traceback=stderr[-4000:],
    )


def _parse_last_exception(stderr: str) -> tuple[str, str, str]:
    """Extract (name, message, traceback_text) of the final exception in
    the last traceback block. Chained blocks ("During handling..." /
    "direct cause") resolve to the last exception line. Returns empty
    strings when no traceback evidence exists."""
    lines = stderr.split("\n")
    anchor = -1
    for idx, line in enumerate(lines):
        if line.startswith(_TRACEBACK_HEADER) or _FILE_LINE.match(line):
            anchor = idx
    if anchor < 0:
        return "", "", ""
    name, message, line_idx = "", "", -1
    for idx in range(anchor, len(lines)):
        match = _EXC_LINE.match(lines[idx])
        if not match:
            continue
        candidate = match.group(1)
        leaf = candidate.rsplit(".", 1)[-1]
        if "." not in candidate and not leaf[0].isupper():
            continue
        name, message, line_idx = leaf, match.group(2) or "", idx
    if not name:
        return "", "", ""
    # Traceback text: from the first header of the block containing the
    # winning line back to that line, bounded for storage.
    start = anchor
    for idx in range(line_idx, -1, -1):
        if lines[idx].startswith(_TRACEBACK_HEADER):
            start = idx
            break
    text = "\n".join(lines[start : line_idx + 1])
    return name, message, text[-4000:]


def _make_preexec(limits: ResourceLimits):
    import resource

    wall_s = math.ceil(limits.wall_time_ms / 1000)

    def preexec() -> None:
        os.setsid()
        resource.setrlimit(resource.RLIMIT_AS, (limits.memory_bytes, limits.memory_bytes))
        resource.setrlimit(resource.RLIMIT_CPU, (wall_s + 1, wall_s + 2))
        resource.setrlimit(resource.RLIMIT_FSIZE, (OUTPUT_LIMIT_BYTES, OUTPUT_LIMIT_BYTES))

    return preexec


def _guard_env(workdir: Path, guard_dir: Path) -> dict[str, str]:
    env = {
        "PYTHONPATH": str(guard_dir),
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


class _MemorySampler(threading.Thread):
    """Polls /proc/<pid>/status while the child runs. Prefers the kernel's
    VmHWM high-water mark; falls back to max sampled VmSize where the
    platform's procfs omits it. Peak stays None for processes that exit
    before the first sample."""

    _FIELDS = re.compile(r"^(VmHWM|VmSize):\s+(\d+) kB", re.MULTILINE)

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self._pid = pid
        self._halt = threading.Event()
        self.peak_bytes: int | None = None

    def run(self) -> None:
        status_path = f"/proc/{self._pid}/status"
        while not self._halt.is_set():
            try:
                with open(status_path, "r") as fh:
                    text = fh.read()
            except OSError:
                return
            hwm, size = None, None
            for name, kb in self._FIELDS.findall(text):
                if name == "VmHWM":
                    hwm = int(kb) * 1024
                else:
                    size = int(kb) * 1024
            observed = hwm if hwm is not None else size
            if observed is not None and (self.peak_bytes is None or observed > self.peak_bytes):
                self.peak_bytes = observed
            self._halt.wait(0.005)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=1.0)


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
    > RuntimeFailure > WrongOutput > Pass."""
    argv = list(interpreter) if interpreter else default_interpreter()
    try:
        outcome = _execute_in_tempdir(source_code, test, limits, argv)
    except Exception as exc:  # harness fault, not program behavior
        logger.exception("sandbox fault while executing candidate")
        outcome = ExecutionOutcome(
            status=Status.SANDBOX_ERROR,
            exception_message=f"{type(exc).__name__}: {exc}",
        )
    if artifact_dir is not None:
        try:
            _write_artifacts(Path(artifact_dir), source_code, test, outcome)
        except OSError:
            logger.warning("failed to write execution artifacts to %s", artifact_dir)
    return outcome


def _execute_in_tempdir(
    source_code: str, test: TestCase, limits: ResourceLimits, argv: list[str]
) -> ExecutionOutcome:
    with tempfile.TemporaryDirectory(prefix="haluscope-exec-") as tmp:
        workdir = Path(tmp)
        prog = workdir / "prog.py"
        prog.write_text(source_code, encoding="utf-8")
        guard_dir = workdir / "_guard"
        guard_dir.mkdir()
        (guard_dir / "sitecustomize.py").write_text(_SITECUSTOMIZE_GUARD, encoding="utf-8")
        env = _guard_env(workdir, guard_dir)
        preexec = _make_preexec(limits)

        compile_outcome = _compile_stage(argv, prog, workdir, env, preexec, limits)
        if compile_outcome is not None:
            return compile_outcome
        return _run_stage(argv, prog, workdir, env, preexec, limits, test)


def _compile_stage(
    argv: list[str],
    prog: Path,
    workdir: Path,
    env: dict[str, str],
    preexec,
    limits: ResourceLimits,
) -> ExecutionOutcome | None:
    """Byte-compile before feeding input so SyntaxFailure is distinguishable
    from runtime failure. Inconclusive compile failures (an interpreter
    without py_compile) fall through to the run stage."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            argv + ["-m", "py_compile", str(prog)],
            cwd=workdir,
            env=env,
            capture_output=True,
            preexec_fn=preexec,
            timeout=limits.wall_time_ms / 1000.0 + 1.0,
        )
    except subprocess.TimeoutExpired:
        elapsed = int((time.monotonic() - started) * 1000)
        return ExecutionOutcome(
            status=Status.TIME_LIMIT_EXCEEDED,
            exception_message="compile stage exceeded the wall-time limit",
            wall_time_ms=elapsed,
        )
    elapsed = int((time.monotonic() - started) * 1000)
    if proc.returncode == 0:
        return None
    stderr = proc.stderr.decode("utf-8", errors="replace")
    raw = ProcessExit(
        returncode=proc.returncode,
        timed_out=False,
        stage="compile",
        memory_limit_bytes=limits.memory_bytes,
    )
    termination = classify_termination(raw, stderr)
    if termination is None:
        logger.debug("inconclusive compile stage (rc=%d); running anyway", proc.returncode)
        return None
    return ExecutionOutcome(
        status=termination.status,
        exception_message=termination.exception_message,
        traceback=termination.traceback,
        wall_time_ms=elapsed,
    )


def _run_stage(
    argv: list[str],
    prog: Path,
    workdir: Path,
    env: dict[str, str],
    preexec,
    limits: ResourceLimits,
    test: TestCase,
) -> ExecutionOutcome:
    stdin_path = workdir / "stdin.txt"
    stdout_path = workdir / "stdout.txt"
    stderr_path = workdir / "stderr.txt"
    stdin_path.write_text(test.input, encoding="utf-8")

    timed_out = False
    started = time.monotonic()
    with stdin_path.open("rb") as stdin_fh, stdout_path.open("wb") as stdout_fh, \
            stderr_path.open("wb") as stderr_fh:
        proc = subprocess.Popen(
            argv + [str(prog)],
            cwd=workdir,
            env=env,
            stdin=stdin_fh,
            stdout=stdout_fh,
            stderr=stderr_fh,
            preexec_fn=preexec,
        )
        sampler = _MemorySampler(proc.pid)
        sampler.start()
        try:
            proc.wait(timeout=limits.wall_time_ms / 1000.0)
        except subprocess.TimeoutExpired:
            timed_out = True
            _kill_process_group(proc)
            proc.wait()
        finally:
            sampler.stop()
    elapsed_ms = int((time.monotonic() - started) * 1000)

    stdout_text = _read_capped(stdout_path)
    stderr_text = _read_capped(stderr_path)
    raw = ProcessExit(
        returncode=proc.returncode,
        timed_out=timed_out,
        stage="run",
        memory_limit_bytes=limits.memory_bytes,
        peak_memory_bytes=sampler.peak_bytes,
    )
    termination = classify_termination(raw, stderr_text)
    if termination is not None:
        return ExecutionOutcome(
            status=termination.status,
            exception_name=termination.exception_name,
            exception_message=termination.exception_message,
            traceback=termination.traceback,
            wall_time_ms=elapsed_ms,
            peak_memory_bytes=sampler.peak_bytes,
        )
    passed = compare_output(stdout_text, test.expected_output)
    return ExecutionOutcome(
        status=Status.PASS if passed else Status.WRONG_OUTPUT,
        actual_output=stdout_text,
        wall_time_ms=elapsed_ms,
        peak_memory_bytes=sampler.peak_bytes,
    )


def _kill_process_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        proc.kill()


def _read_capped(path: Path, cap: int = OUTPUT_LIMIT_BYTES) -> str:
    with path.open("rb") as fh:
        data = fh.read(cap)
    return data.decode("utf-8", errors="replace")


def _write_artifacts(
    directory: Path, source_code: str, test: TestCase, outcome: ExecutionOutcome
) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "prog.py").write_text(source_code, encoding="utf-8")
    (directory / "stdin.txt").write_text(test.input, encoding="utf-8")
    (directory / "stdout.txt").write_text(outcome.actual_output, encoding="utf-8")
    (directory / "stderr.txt").write_text(outcome.traceback, encoding="utf-8")
    (directory / "outcome.json").write_text(
        json.dumps(outcome_to_dict(outcome), sort_keys=True, indent=2), encoding="utf-8"
    )


def outcome_to_dict(outcome: ExecutionOutcome) -> dict:
    return {
        "status": outcome.status.value,
        "actual_output": outcome.actual_output,
        "exception_name": outcome.exception_name,
        "exception_message": outcome.exception_message,
        "traceback": outcome.traceback,
        "wall_time_ms": outcome.wall_time_ms,
        "peak_memory_bytes": outcome.peak_memory_bytes,
    }


def outcome_from_dict(obj: dict) -> ExecutionOutcome:
    return ExecutionOutcome(
        status=Status(obj["status"]),
        actual_output=obj.get("actual_output", ""),
        exception_name=obj.get("exception_name", ""),
        exception_message=obj.get("exception_message", ""),
        traceback=obj.get("traceback", ""),
        wall_time_ms=int(obj.get("wall_time_ms", 0)),
        peak_memory_bytes=obj.get("peak_memory_bytes"),
    )


@dataclass(frozen=True)
class ExecutionRequest:
    """One (completion, test) pair for the worker pool."""

    key: tuple
    source_code: str
    test: TestCase
    limits: ResourceLimits
    interpreter: tuple[str, ...] | None = None
    artifact_dir: str | None = None


def execute_batch(requests: Sequence[ExecutionRequest], jobs: int = 1) -> list[ExecutionOutcome]:
    """Execute (completion, test) pairs, possibly in parallel. Each worker
    owns its child process and temp dir; results come back in request
    order, so outcomes are independent of scheduling."""
    if jobs <= 1 or len(requests) <= 1:
        return [
            execute(r.source_code, r.test, r.limits, r.interpreter, r.artifact_dir)
            for r in requests
        ]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(execute, r.source_code, r.test, r.limits, r.interpreter, r.artifact_dir)
            for r in requests
        ]
        return [f.result() for f in futures]
