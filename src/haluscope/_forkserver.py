"""Fork server of the sandbox's run stage.

`haluscope.sandbox` starts this file as
`<interpreter> _forkserver.py REQUESTS_FD REPLIES_FD`, with the argv and the
guard environment a `python prog.py` run child would get, so the server
starts up as that child would. It never runs candidate code itself.

Protocol, one line per message:

- at start-up: `ready`;
- request: six integers, the soft and hard RLIMIT_AS, RLIMIT_CPU and
  RLIMIT_FSIZE, then the workdir as the hex of its bytes, all
  space-separated (ASCII, so that every path round-trips);
- reply, from the forked child before it compiles the program: its pid,
  or `error <message>` when it could not be set up;
- reply, from the server once it reaped the child with `os.wait4`:
  `<returncode> <ru_maxrss in bytes> <report as hex, empty without one>`.

The child closes REPLIES_FD after its pid, so no compile and no program
holds a reply fd. It reports an uncaught exception on a pipe the server
makes per request: once the program's globals are dropped, one `os.write`
of `1` for a SyntaxError from compiling (else `0`), the type's name, a
null byte and the message, in UTF-8, cut to PIPE_BUF so that the write is
atomic and never blocks. The server reads the pipe after `wait4` without
blocking: a grandchild the program forked may still hold it open.

EOF on REQUESTS_FD ends the server. The forked child starts its own
session, takes the rlimits and the workdir, sets HOME and TMPDIR to the
workdir (the rest of its environment is the server's), reads stdin.txt and
writes stdout.txt/stderr.txt on fds 0-2, and then does what
`python <workdir>/prog.py` does, exit included. The guard environment sets
PYTHONHASHSEED to the harness constant `sandbox.HASH_SEED` (0), so the
server and every child it forks hash strings with one fixed secret. An
error from compiling is printed, as CPython prints it, without a
traceback.

Standard library only: a foreign interpreter runs this file too. An
interpreter older than CPython 3.11 is refused before `ready`, with its
version on stderr: the emulation of `python prog.py` follows 3.11 and later.
"""

# Beyond `resource`, only modules every interpreter has loaded once it
# started, so that a program finds the modules `python prog.py` would.
import _frozen_importlib_external
import _signal
import builtins
import io
import os
import resource
import sys

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_BOM = b"\xef\xbb\xbf"
# The bytes of an encoding name in a coding cookie.
_NAME_BYTES = b"-_." + bytes(b for b in range(128) if chr(b).isalnum())
# Linux's PIPE_BUF: a write of at most this many bytes to a pipe is atomic.
_REPORT_CAP = 4096


def main():
    if sys.version_info < (3, 11):
        sys.exit(f"the fork server needs CPython 3.11 or newer, not {sys.version.split()[0]}")
    requests, replies = int(sys.argv[1]), int(sys.argv[2])
    os.write(replies, b"ready\n")
    with open(requests, "rb") as lines:
        for request in lines:
            report_r, report_w = os.pipe2(os.O_NONBLOCK | os.O_CLOEXEC)
            pid = os.fork()
            if pid == 0:
                os.close(report_r)
                _child(request, requests, replies, report_w)
            os.close(report_w)
            _, status, usage = os.wait4(pid, 0)
            try:
                report = os.read(report_r, _REPORT_CAP)
            except BlockingIOError:  # empty, and a grandchild holds the write end
                report = b""
            os.close(report_r)
            returncode = os.waitstatus_to_exitcode(status)
            os.write(replies, b"%d %d %s\n" % (returncode, usage.ru_maxrss * 1024,
                                               report.hex().encode("ascii")))


def _child(request, requests, replies, report_fd):
    """Set up the forked child, then compile and run the program, reporting
    an uncaught exception on `report_fd`; never returns. The pid is
    replied before the program compiles, so the harness can kill a child
    stuck compiling, and a program that kills this server cannot hide it."""
    try:
        os.setsid()
        *limits, workdir = request.split()
        limits = [int(limit) for limit in limits]
        resource.setrlimit(resource.RLIMIT_AS, limits[0:2])
        resource.setrlimit(resource.RLIMIT_CPU, limits[2:4])
        resource.setrlimit(resource.RLIMIT_FSIZE, limits[4:6])
        workdir = os.fsdecode(bytes.fromhex(workdir.decode("ascii")))
        os.chdir(workdir)
        # The server started with the guard environment; what its start-up
        # added (LC_CTYPE, by locale coercion) stays, as in a fresh interpreter.
        os.environ["HOME"] = os.environ["TMPDIR"] = workdir
        for fd, name, flags in ((0, "stdin.txt", os.O_RDONLY), (1, "stdout.txt", _WRITE),
                                (2, "stderr.txt", _WRITE)):
            opened = os.open(name, flags, 0o666)
            os.dup2(opened, fd)
            os.close(opened)
    except BaseException as exc:
        message = repr(exc).replace("\n", " ").encode("utf-8", "replace")
        os.write(replies, b"error " + message + b"\n")
        os._exit(1)
    os.write(replies, b"%d\n" % os.getpid())
    os.close(requests)
    os.close(replies)
    try:
        _exit(*_run(os.path.join(workdir, "prog.py")), report_fd)
    finally:
        os._exit(1)  # reached only if finishing raised: never back into the server loop


def _run(prog):
    """Run `prog` as `python prog` runs its main module. Returns the exit
    status, whether an uncaught KeyboardInterrupt ended it, and the report
    on an uncaught exception ("" without one)."""
    main_module = type(sys)("__main__")
    main_module.__file__ = prog
    main_module.__cached__ = None
    main_module.__builtins__ = builtins
    main_module.__annotations__ = {}
    main_module.__loader__ = _frozen_importlib_external.SourceFileLoader("__main__", prog)
    sys.modules["__main__"] = main_module
    sys.argv[:] = [prog]
    sys.orig_argv[-3:] = [prog]  # was: this file, REQUESTS_FD, REPLIES_FD
    sys.path[0] = os.path.dirname(prog)
    # The program's first frame sits below this server's frames; raise the
    # limit by their number so it may recurse as deep as in `python prog`.
    # CPython 3.11 also counts exec's entry into the evaluation loop.
    sys.setrecursionlimit(sys.getrecursionlimit() + _depth() + (sys.version_info[:2] == (3, 11)))
    code = None
    try:
        with open(prog, "rb") as fh:
            source = fh.read()
        _refuse_what_python_refuses(source, prog)
        code = compile(source, prog, "exec", dont_inherit=True)
        exec(code, vars(main_module))
    except SystemExit as exc:
        return _exit_status(exc.code), False, ""
    except BaseException as exc:
        _print_uncaught(exc, code)
        syntax = isinstance(exc, SyntaxError)
        try:  # now, while the globals its `__str__` may use are still bound
            message = str(exc.msg if syntax else exc)
        except Exception:
            message = "<exception str() failed>"
        report = f"{code is None and syntax:d}{type(exc).__name__}\0{message[:_REPORT_CAP]}"
        return 1, isinstance(exc, KeyboardInterrupt), report
    return 0, False, ""


def _refuse_what_python_refuses(source, prog):
    """Raise the SyntaxError `python prog` raises for a coding cookie its
    tokenizer cannot use, for a null byte, or for a byte that is not UTF-8
    in a file that declares no encoding (neither a BOM nor a coding cookie
    on its first two lines). compile() decodes with such a cookie without
    these checks, accepts such bytes in a comment and reports a null byte
    without its location. Python checks line by line; on one line it
    checks UTF-8 only up to the first null byte."""
    declared = bom = source.startswith(_BOM)
    if bom:
        source = source[3:]
    lines = source.splitlines(keepends=True)
    end = 0
    for line in lines[:2]:
        end += len(line)
        name = _coding_cookie(line)
        if name is not None:
            _refuse_cookie(name, bom, source[end - 1:])
            declared = True
            break
        if line.lstrip(b" \t\f")[:1] not in (b"", b"#", b"\r", b"\n"):
            break
    for lineno, line in enumerate(lines, start=1):
        text, null, _ = line.partition(b"\0")
        if not declared:
            try:
                text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SyntaxError(
                    f"Non-UTF-8 code starting with '\\x{text[exc.start]:02x}' in file {prog} on "
                    f"line {lineno}, but no encoding declared; see "
                    "https://peps.python.org/pep-0263/ for details"
                ) from None
        if null:
            raise SyntaxError(
                "source code cannot contain null bytes",
                (prog, lineno, 0, text.decode("utf-8", "replace"), lineno, 0),
            )


def _coding_cookie(line):
    """The encoding a coding cookie on `line` names, found as CPython's
    tokenizer finds it: the first `coding:` or `coding=` followed by a name,
    in a comment that is all the line holds. None without one."""
    comment = line.lstrip(b" \t\f")
    start = comment.find(b"coding") if comment.startswith(b"#") else -1
    while start >= 0:
        start += len(b"coding")
        if comment[start:start + 1] in (b":", b"="):
            rest = comment[start + 1:].lstrip(b" \t")
            name = rest[:len(rest) - len(rest.lstrip(_NAME_BYTES))]
            if name:
                return name.decode("ascii")
        start = comment.find(b"coding", start)
    return None


def _refuse_cookie(name, bom, rest):
    """Raise the SyntaxError, without a location, that the tokenizer raises
    for a cookie naming `name` (normalized as its `get_normal_name` does):
    after a BOM it must name UTF-8; otherwise its decoder must read `rest`,
    the file from the cookie line's last byte, up to the first line end,
    as the tokenizer's switch to that decoder does."""
    spelling = name[:12].lower().replace("_", "-")
    if spelling == "utf-8" or spelling.startswith("utf-8-"):
        return
    if (spelling in ("latin-1", "iso-8859-1", "iso-latin-1")
            or spelling.startswith(("latin-1-", "iso-8859-1-", "iso-latin-1-"))):
        name = "iso-8859-1"
    if bom:
        raise SyntaxError(f"encoding problem: {name} with BOM")
    try:
        io.TextIOWrapper(io.BytesIO(rest), encoding=name).readline()
    except Exception:
        raise SyntaxError(f"encoding problem: {name}") from None


def _depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _exit_status(code):
    """The exit status `Py_Exit` gives a SystemExit code; any value other
    than None or an int is printed to stderr."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    try:
        print(code, file=sys.stderr)
    except Exception:
        pass
    return 1


def _print_uncaught(exc, code):
    """Hand an uncaught exception to sys.excepthook without this server's
    frames. An error from compiling the program carries no traceback, as
    CPython prints it."""
    tb = exc.__traceback__ if code is not None else None
    while tb is not None and tb.tb_frame.f_code is not code:
        tb = tb.tb_next
    exc.__traceback__ = tb
    sys.excepthook(type(exc), exc, tb)


def _exit(status, interrupted, report, report_fd):
    """Finish as `Py_FinalizeEx` does: threading shutdown, atexit handlers,
    the program's globals dropped, `report` written to `report_fd` (once a
    memory bomb's heap is free again), then a flush of stdout and stderr (a
    failed flush exits 120). An uncaught KeyboardInterrupt ends the process
    by SIGINT.

    The emulation is for speed: ending through the interpreter finalizes
    the whole heap the child inherited from this server, about 18 ms of CPU
    per child against 1 ms for `os._exit` (2 CPUs, CPython 3.11). Clearing
    `__main__`'s namespace runs `__del__` of the objects only its globals
    hold, in the order they were bound. Its price is that `__del__` of an
    object held in a reference cycle does not run: that would need
    `gc.collect()` in every child."""
    threading = sys.modules.get("threading")
    if threading is not None:
        threading._shutdown()
    atexit = sys.modules.get("atexit")  # without it, no handler was registered
    if atexit is not None:
        atexit._run_exitfuncs()
    main = sys.modules.get("__main__")
    if main is not None:
        vars(main).clear()
    if report:
        try:
            os.write(report_fd, report.encode("utf-8", "backslashreplace")[:_REPORT_CAP])
        except OSError:  # the program closed the fd or filled the pipe
            pass
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except Exception as exc:
            status = 120
            if stream is sys.stdout:
                sys.stderr.write("Exception ignored on flushing sys.stdout:\n"
                                 if sys.version_info >= (3, 13)
                                 else f"Exception ignored in: {stream!r}\n")
                sys.excepthook(type(exc), exc.with_traceback(None), None)
    if interrupted:
        _signal.signal(_signal.SIGINT, _signal.SIG_DFL)
        os.kill(os.getpid(), _signal.SIGINT)
    os._exit(status)


if __name__ == "__main__":
    main()
