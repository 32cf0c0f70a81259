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
- reply, from the forked child before it reads the program: its pid,
  or `error <message>` when it could not be set up;
- reply, from the server once it reaped the child with `os.wait4`:
  `<returncode> <ru_maxrss in bytes> <report as hex, empty without one>`.

The child closes REPLIES_FD after its pid, so neither the interpreter
reading the program nor the program holds a reply fd. It reports an
uncaught exception on a pipe the server makes per request: once the
program's globals are dropped, one `os.write` of `1` for a SyntaxError
from reading or compiling (else `0`) and the type's name, in UTF-8, cut to
PIPE_BUF so that the write is atomic and never blocks. The server reads the
pipe after `wait4` without blocking: a grandchild the program forked may
still hold it open.

EOF on REQUESTS_FD ends the server. The forked child starts its own
session, takes the rlimits and the workdir, sets HOME and TMPDIR to the
workdir (the rest of its environment is the server's), opens stdin.txt and
the stdout.txt and stderr.txt the harness created as fds 0-2, and then does
what `python <workdir>/prog.py` does, exit included. The guard environment sets
PYTHONHASHSEED to the harness constant `sandbox.HASH_SEED` (0), so the
server and every child it forks hash strings with one fixed secret.

At start the server sets its parent-death signal (`PR_SET_PDEATHSIG`) to
SIGKILL, so it dies with the harness thread that started it; each child
sets the same right after `fork`, and exits at once if the server is gone.
A killed harness still leaves the processes a program starts (a fork
clears the setting) and the `haluscope-exec-*` and `haluscope-zygote-*` dirs.

The child hands prog.py to `PyRun_FileExFlags`, where `python prog.py`
ends too, so on every version the interpreter's own file tokenizer judges
its bytes (BOM, coding cookie, null bytes), and an error from reading or
compiling it prints without a traceback. The server binds that call and
libc's `fopen` through ctypes, then drops the modules the import loaded.

Standard library only: a foreign interpreter runs this file too. One older
than CPython 3.11, or one without ctypes, fails before `ready` with the
cause on stderr: the rest of the emulation follows 3.11 and later.
"""

# Beyond `resource`, only modules every interpreter has loaded once it
# started, so that a program finds the modules `python prog.py` would.
import _frozen_importlib_external
import _signal
import builtins
import os
import resource
import sys

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_PR_SET_PDEATHSIG = 1  # prctl: the signal this process gets when its parent thread ends
_PY_FILE_INPUT = 257  # Py_file_input: the start symbol of a module
# Linux's PIPE_BUF: a write of at most this many bytes to a pipe is atomic.
_REPORT_CAP = 4096
# `PyErr_Display`: how CPython prints an exception where no hook of the program does.
_display = sys.__excepthook__
# What `PyErr_Print` sets and finalization sets to None before it clears `__main__`.
_LAST_EXCEPTION = ("last_type", "last_value", "last_traceback") + (
    ("last_exc",) if sys.version_info >= (3, 12) else ())


def main():
    if sys.version_info < (3, 11):
        sys.exit(f"the fork server needs CPython 3.11 or newer, not {sys.version.split()[0]}")
    prctl, *c_api = _bind()
    prctl(_PR_SET_PDEATHSIG, _signal.SIGKILL)
    server = os.getpid()
    requests, replies = int(sys.argv[1]), int(sys.argv[2])
    os.write(replies, b"ready\n")
    with open(requests, "rb") as lines:
        for request in lines:
            report_r, report_w = os.pipe2(os.O_NONBLOCK | os.O_CLOEXEC)
            pid = os.fork()
            if pid == 0:
                os.close(report_r)
                _child(request, requests, replies, report_w, server, prctl, c_api)
            os.close(report_w)
            _, status, usage = os.wait4(pid, 0)
            try:
                report = os.read(report_r, _REPORT_CAP)
            except BlockingIOError:  # empty, and a grandchild holds the write end
                report = b""
            os.close(report_r)
            os.write(replies, b"%d %d %s\n" % (os.waitstatus_to_exitcode(status),
                                               usage.ru_maxrss * 1024, report.hex().encode()))


def _bind():
    """libc's `prctl` and `fopen`, ctypes' `get_errno` and `PyRun_FileExFlags`,
    typed. What importing ctypes loaded leaves sys.modules: a program's import
    loads it anew."""
    loaded = set(sys.modules)
    import ctypes
    libc = ctypes.CDLL(None, use_errno=True)
    prctl = libc.prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    fopen = libc.fopen
    fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
    fopen.restype = ctypes.c_void_p
    run_file = ctypes.pythonapi.PyRun_FileExFlags
    run_file.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int, ctypes.py_object,
                         ctypes.py_object, ctypes.c_int, ctypes.c_void_p]
    run_file.restype = ctypes.py_object
    for name in sys.modules.keys() - loaded:
        del sys.modules[name]
    return prctl, fopen, ctypes.get_errno, run_file


def _child(request, requests, replies, report_fd, server, prctl, c_api):
    """Set up the forked child, then run the program, reporting an uncaught
    exception on `report_fd`; never returns. The pid is replied before the
    program is read, so the harness can kill a child stuck compiling, and
    a program that kills this server cannot hide it."""
    try:
        prctl(_PR_SET_PDEATHSIG, _signal.SIGKILL)
        if os.getppid() != server:  # the server died before the signal was set
            os._exit(1)
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
        _exit(*_run(os.path.join(workdir, "prog.py"), *c_api), report_fd)
    finally:
        os._exit(1)  # reached only if finishing raised: never back into the server loop


def _run(prog, fopen, get_errno, run_file):
    """Run `prog` as `python prog` runs its main module. Returns the exit
    status, whether an uncaught KeyboardInterrupt ended it, and the report
    on an uncaught exception: the syntax flag and the type's name ("" without
    one)."""
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
    # The program's first frame sits below this server's frames: add their
    # number (and on 3.11 the call's entry into the evaluation loop) so it
    # recurses as deep as under `python prog`. Yet it reads 1005 where that
    # reads 1000, and a limit it sets itself leaves it fewer frames.
    sys.setrecursionlimit(sys.getrecursionlimit() + _depth() + (sys.version_info[:2] == (3, 11)))
    path = os.fsencode(prog)
    try:
        fp = fopen(path, b"rb")
        if fp is None:  # NULL would crash PyRun_FileExFlags
            raise OSError(errno := get_errno(), os.strerror(errno), prog)
        run_file(fp, path, _PY_FILE_INPUT, vars(main_module), vars(main_module), 1, None)
        uncaught = None
    except SystemExit as exc:
        return _exit_status(exc.code), False, ""
    except BaseException as exc:
        uncaught = exc
    status, interrupted, report = 0, False, ""
    if uncaught is not None:
        # Out of the `except`: as under `python prog`, the hook runs while no
        # exception is handled. ctypes raised it in this frame; below are the
        # program's frames, none for an error from reading or compiling.
        tb = uncaught.__traceback__.tb_next
        try:
            _print_uncaught(uncaught, tb)
        except SystemExit as exc:  # the hook ends the program as `sys.exit` does
            return _exit_status(exc.code), False, ""
        syntax = isinstance(uncaught, SyntaxError) and tb is None
        status, interrupted = 1, isinstance(uncaught, KeyboardInterrupt)
        report = f"{syntax:d}{type(uncaught).__name__}"
        # The program's frames hold this frame (f_back): without these, what
        # only the exception holds goes when `_exit` drops sys.last_*.
        uncaught = tb = None
    # As `_PyRun_SimpleFileObject` does after a run that did not exit.
    for name in ("__file__", "__cached__"):
        vars(main_module).pop(name, None)
    return status, interrupted, report


def _depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _exit_status(code):
    """The exit status `_Py_HandleSystemExit` gives a SystemExit code: 0 for
    None, an int cast to a C long (255 out of its range), and 1 for any other
    value, printed to sys.stderr, or to fd 2 without one."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF if -sys.maxsize - 1 <= code <= sys.maxsize else 255
    try:
        if getattr(sys, "stderr", None) is None:
            os.write(2, str(code).encode())
        else:
            sys.stderr.write(str(code))
    except Exception:
        pass
    _write_stderr("\n")
    return 1


def _write_stderr(text):
    """Write `text` as `PySys_WriteStderr` does: to fd 2 if sys.stderr fails."""
    try:
        sys.stderr.write(text)
    except Exception:
        try:
            os.write(2, text.encode())
        except OSError:
            pass


def _print_uncaught(exc, tb):
    """Hand an uncaught exception to sys.excepthook with `tb`, the program's
    frames, as `PyErr_Print` does: after setting sys.last_* (last_exc from
    3.12 on), printing CPython's text for a hook that is missing or raises,
    but letting a SystemExit from the hook propagate."""
    exc.__traceback__ = tb
    if sys.version_info >= (3, 12):
        sys.last_exc = exc
    sys.last_type, sys.last_value, sys.last_traceback = type(exc), exc, tb
    try:
        hook = sys.excepthook
    except AttributeError:
        _write_stderr("sys.excepthook is missing\n")
        _display(type(exc), exc, tb)
        return
    try:
        hook(type(exc), exc, tb)
    except SystemExit:
        raise
    except BaseException as hook_exc:
        _write_stderr("Error in sys.excepthook:\n")
        hook_exc.__traceback__ = hook_exc.__traceback__.tb_next  # the hook's frames
        _display(type(hook_exc), hook_exc, hook_exc.__traceback__)
        _write_stderr("\nOriginal exception was:\n")
        _display(type(exc), exc, tb)


def _exit(status, interrupted, report, report_fd):
    """Finish as `Py_FinalizeEx` does: threading shutdown, atexit handlers,
    sys.last_* set to None, the program's globals dropped, `report` written
    to `report_fd` (once a memory bomb's heap is free again), a flush of
    sys.stdout and sys.stderr where they exist (a failed flush exits 120),
    then one of sys.__stdout__ and sys.__stderr__, which finalization drops
    and so closes, ignoring a failure. An uncaught KeyboardInterrupt ends the
    process by SIGINT.

    The emulation is for speed: finalizing the heap the child inherited
    from this server costs about 18 ms of CPU per child, `os._exit` 1 ms
    (2 CPUs, CPython 3.11). Dropping sys.last_* runs `__del__` of what only
    the uncaught exception holds, and clearing `__main__`'s namespace that of
    what only its globals hold, in binding order, but not of objects in a
    reference cycle: that would need `gc.collect()` in every child."""
    threading = sys.modules.get("threading")
    if threading is not None:
        threading._shutdown()
    atexit = sys.modules.get("atexit")  # without it, no handler was registered
    if atexit is not None:
        atexit._run_exitfuncs()
    for name in _LAST_EXCEPTION:
        setattr(sys, name, None)
    main = sys.modules.get("__main__")
    if main is not None:
        vars(main).clear()
    if report:
        try:
            os.write(report_fd, report.encode("utf-8", "backslashreplace")[:_REPORT_CAP])
        except OSError:  # the program closed the fd or filled the pipe
            pass
    for name in ("stdout", "stderr"):
        stream = getattr(sys, name, None)
        try:
            if stream is not None and not getattr(stream, "closed", False):
                stream.flush()
        except Exception as exc:
            status = 120
            if name == "stdout":
                try:  # as the default sys.unraisablehook prints it, if sys.stderr is there
                    sys.stderr.write("Exception ignored on flushing sys.stdout:\n"
                                     if sys.version_info >= (3, 13)
                                     else f"Exception ignored in: {stream!r}\n")
                    _display(type(exc), exc.with_traceback(exc.__traceback__.tb_next), None)
                except Exception:
                    pass
    for name in ("__stdout__", "__stderr__"):
        try:
            getattr(sys, name).flush()
        except Exception:
            pass
    if interrupted:
        _signal.signal(_signal.SIGINT, _signal.SIG_DFL)
        os.kill(os.getpid(), _signal.SIGINT)
    os._exit(status)


if __name__ == "__main__":
    main()
