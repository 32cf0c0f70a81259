"""Fork server of the sandbox's run stage.

`haluscope.sandbox` starts this file as
`<interpreter> _forkserver.py REQUESTS_FD REPLIES_FD`, with the argv and the
guard environment a `python prog.py` run child would get, so the server
starts up as that child would. It never runs candidate code itself.

Protocol, one line per message:

- at start-up: `ready`;
- request (JSON): `{"workdir", "rlimits"}`;
- reply, from the forked child before it compiles the program: its pid,
  or `error <message>` when it could not be set up;
- reply, from the forked child once the program compiled: `compiled`;
- reply, from the server once it reaped the child with `os.wait4`:
  `<returncode> <ru_maxrss in bytes>`.

EOF on REQUESTS_FD ends the server. The forked child starts its own
session, takes the rlimits and the workdir, sets HOME and TMPDIR to the
workdir (the rest of its environment is the server's), reads stdin.txt and
writes stdout.txt/stderr.txt on fds 0-2, and then does what
`python <workdir>/prog.py` does, exit included. The guard environment sets
PYTHONHASHSEED to the harness constant `sandbox.HASH_SEED` (0), so the
server and every child it forks hash strings with one fixed secret. A child that exits without
`compiled` ended while compiling: an error from compiling is printed, as
CPython prints it, without a traceback.

Standard library only: a foreign interpreter runs this file too.
"""

import atexit
import builtins
import importlib.machinery
import json
import os
import re
import resource
import signal
import sys

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main():
    requests, replies = int(sys.argv[1]), int(sys.argv[2])
    os.write(replies, b"ready\n")
    with open(requests, "rb") as lines:
        for line in lines:
            request = json.loads(line)
            pid = os.fork()
            if pid == 0:
                _child(request, requests, replies)
            _, status, usage = os.wait4(pid, 0)
            returncode = os.waitstatus_to_exitcode(status)
            os.write(replies, b"%d %d\n" % (returncode, usage.ru_maxrss * 1024))


def _child(request, requests, replies):
    """Set up the forked child, then compile and run the program; never
    returns. The pid is replied before the program compiles, so the harness
    can kill a child stuck compiling, and a program that kills this server
    cannot hide it."""
    try:
        os.setsid()
        for name, limit in request["rlimits"].items():
            resource.setrlimit(getattr(resource, name), tuple(limit))
        workdir = request["workdir"]
        os.chdir(workdir)
        # The server started with the guard environment; what its start-up
        # added (LC_CTYPE, by locale coercion) stays, as in a fresh interpreter.
        os.environ.update(HOME=workdir, TMPDIR=workdir)
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
    try:
        _exit(*_run(os.path.join(workdir, "prog.py"), replies))
    finally:
        os._exit(1)  # reached only if finishing raised: never back into the server loop


def _run(prog, replies):
    """Run `prog` as `python prog` runs its main module, replying
    `compiled` and closing `replies` once it compiled. Returns the exit
    status and whether an uncaught KeyboardInterrupt ended it."""
    main_module = type(sys)("__main__")
    main_module.__file__ = prog
    main_module.__cached__ = None
    main_module.__builtins__ = builtins
    main_module.__annotations__ = {}
    main_module.__loader__ = importlib.machinery.SourceFileLoader("__main__", prog)
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
        os.write(replies, b"compiled\n")
        os.close(replies)
        exec(code, vars(main_module))
    except SystemExit as exc:
        return _exit_status(exc.code), False
    except BaseException as exc:
        _print_uncaught(exc, code)
        return 1, isinstance(exc, KeyboardInterrupt)
    return 0, False


def _refuse_what_python_refuses(source, prog):
    """Raise the SyntaxError `python prog` raises for a null byte, or for a
    byte that is not UTF-8 in a file that declares no encoding (neither a
    BOM nor a coding cookie on its first two lines). compile() accepts such
    bytes in a comment and reports a null byte without its location.
    Python checks line by line; on one line it checks UTF-8 only up to the
    first null byte."""
    if b"\0" not in source:
        try:
            source.decode("utf-8")
            return  # the common case, without compiling the patterns below
        except UnicodeDecodeError:
            pass
    declared = source.startswith(b"\xef\xbb\xbf")
    if declared:
        source = source[3:]
    lines = source.splitlines()
    for line in lines[:2]:
        if re.match(rb"[ \t\f]*#.*?coding[:=][ \t]*[-\w.]+", line):
            declared = True
            break
        if not re.match(rb"[ \t\f]*(?:#|$)", line):
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


def _exit(status, interrupted):
    """Finish as `Py_FinalizeEx` does: threading shutdown, atexit handlers,
    the program's globals dropped, then a flush of stdout and stderr (a
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
    atexit._run_exitfuncs()
    main = sys.modules.get("__main__")
    if main is not None:
        vars(main).clear()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except Exception as exc:
            status = 120
            if stream is sys.stdout:
                sys.stderr.write(f"Exception ignored in: {stream!r}\n")
                sys.excepthook(type(exc), exc.with_traceback(None), None)
    if interrupted:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    os._exit(status)


if __name__ == "__main__":
    main()
