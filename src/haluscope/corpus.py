"""Canonical data model: tasks, test cases and completions, and the
strict readers of the JSON and JSON-lines files that hold them.

All values are read-only after construction and safe to share across
workers. The interchange format is JSON-lines with explicit field names.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, TypeVar

from . import gateway
from .errors import ConfigError, HaluscopeError, IngestionError, ValidationError

T = TypeVar("T")

DEFAULT_WALL_TIME_MS = 5_000
DEFAULT_MEMORY_BYTES = 256 * 2**20

MIN_WALL_TIME_MS = 100
MIN_MEMORY_BYTES = 16 * 2**20
# The sandbox waits for a fork server's reply up to the wall limit plus its
# 5 s grace (`sandbox._SERVER_GRACE_S`), through poll(), whose timeout is a
# C int of milliseconds; setrlimit() takes the memory limit as a C long.
MAX_WALL_TIME_MS = 2**31 - 1 - 5_000
MAX_MEMORY_BYTES = 2**63 - 1


@dataclass(frozen=True)
class TestCase:
    """One stdin/stdout check. `input` is fed to the program's standard
    input verbatim; `expected_output` may be the empty string (an explicit
    expectation of no output), but it must always be present."""

    __test__ = False  # domain type, not a pytest class

    input: str
    expected_output: str


@dataclass(frozen=True)
class ResourceLimits:
    wall_time_ms: int = DEFAULT_WALL_TIME_MS
    memory_bytes: int = DEFAULT_MEMORY_BYTES

    def __post_init__(self) -> None:
        for name, least, most in (("wall_time_ms", MIN_WALL_TIME_MS, MAX_WALL_TIME_MS),
                                  ("memory_bytes", MIN_MEMORY_BYTES, MAX_MEMORY_BYTES)):
            value = getattr(self, name)
            if value < least:
                raise ValidationError(f"{name} must be >= {least}, got {value}")
            if value > most:
                raise ValidationError(f"{name} must be <= {most}, got {value}")


@dataclass(frozen=True)
class Task:
    task_id: str
    test_cases: tuple[TestCase, ...]
    limits: ResourceLimits = field(default_factory=ResourceLimits)

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValidationError("task_id must be non-empty")
        if not self.test_cases:
            raise ValidationError(f"task {self.task_id!r} has no test cases")


@dataclass(frozen=True)
class Completion:
    """One model's program for one task."""

    task_id: str
    model_id: str
    source_code: str
    sample_index: int | None = None
    truncated_at_limit: bool = False

    @property
    def key(self) -> tuple:
        """(task, model), plus the sample index when the completion has one."""
        key = (self.task_id, self.model_id)
        return key if self.sample_index is None else (*key, self.sample_index)


_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")


def safe_name(text: str) -> str:
    """`text` as a file name: each character outside [A-Za-z0-9._-]
    becomes "_". Distinct texts can share a name, so a caller naming files
    this way runs its names through `refuse_shared_names` first."""
    return _UNSAFE.sub("_", text)


def refuse_shared_names(named: Iterable[tuple[Hashable, str]]) -> None:
    """Raise ValidationError when two distinct keys of `named`, a stream of
    (key, file name) pairs, share a file name."""
    owners: dict[str, Hashable] = {}
    for key, name in named:
        owner = owners.setdefault(name, key)
        if owner != key:
            raise ValidationError(f"{owner!r} and {key!r} share the file name {name!r}")


def boolean(value) -> bool:
    """A JSON boolean; bool() would read the string "false" as true."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def integer(value) -> int:
    """An int, or a string holding one; int() would truncate a float and
    read a bool as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def identifier(value) -> str:
    """A task or model id: a JSON string, or an integer (not a bool) read
    as its digits; str() would read null as "None"."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected a string or an integer, got {value!r}")
    return str(value)


def string(value) -> str:
    """A JSON string; str() would read 5 as "5", and ids of mixed types
    do not sort."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def json_object(value) -> dict:
    """A JSON object; `or {}` would read "", false and [] as an empty one."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def list_of(read: Callable[[Any], T]) -> Callable[[Any], tuple[T, ...]]:
    """A reader of a JSON list whose items `read` reads; tuple() would
    split a string into letters."""

    def read_list(value) -> tuple[T, ...]:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(map(read, value))
    return read_list


_REQUIRED = object()


def read_field(obj: dict, key: str, read: Callable[[Any], T], default: Any = _REQUIRED) -> T:
    """`read(obj[key])`, with `default` standing in for a missing key; a
    None default makes the field optional, read as None when missing or
    null. A missing required key raises KeyError, and the TypeError or
    ValueError `read` raises is re-raised naming `key`."""
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    if value is None and default is None:
        return None
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{key}: {exc}") from exc


def read_json_object(path: str | Path, error: type[HaluscopeError]) -> dict:
    """The JSON object a UTF-8 file holds. A file that cannot be read, is
    not UTF-8, is not JSON or holds another JSON value raises `error`
    naming the path."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        raise error(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: expected a JSON object")
    return obj


def refuse_repeats(
    decode: Callable[[dict], T], key: Callable[[T], Hashable], what: str
) -> Callable[[dict], T]:
    """`decode`, raising ValidationError("<what> <key>") for a value whose
    key an earlier value had. `read_jsonl` prefixes the error with the path
    and line."""
    seen: set[Hashable] = set()

    def decode_once(obj: dict) -> T:
        value = decode(obj)
        found = key(value)
        if found in seen:
            raise ValidationError(f"{what} {found!r}")
        seen.add(found)
        return value
    return decode_once


def read_jsonl(path: str | Path, decode: Callable[[dict], T]) -> list[T]:
    """Decode every non-blank line of a JSON-lines file, in file order.

    A file that cannot be opened (missing, a directory, unreadable)
    raises ConfigError naming the path. Each line must be UTF-8 and hold
    a JSON object. `decode` turns the object into a value; a KeyError,
    ValueError, TypeError or AttributeError it raises (a missing field, an
    unparseable value, a wrongly typed field) becomes an IngestionError,
    and a ValidationError it raises is re-raised; both messages start
    with `path:line: `."""
    path = str(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    records = []
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}: "
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError("expected a JSON object")
                records.append(decode(obj))
            except UnicodeDecodeError as exc:
                raise IngestionError(f"{where}not UTF-8: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise IngestionError(f"{where}malformed JSON: {exc.msg}") from exc
            except RecursionError as exc:  # nested too deep for json.loads
                raise IngestionError(f"{where}malformed JSON: {exc}") from exc
            except KeyError as exc:
                raise IngestionError(f"{where}missing required field {exc.args[0]!r}") from exc
            except (ValueError, TypeError, AttributeError) as exc:
                raise IngestionError(where + str(exc)) from exc
            except ValidationError as exc:
                raise ValidationError(where + str(exc)) from exc
    return records


def task_from_dict(obj: dict) -> Task:
    task_id = read_field(obj, "task_id", identifier)
    # Missing expected_output is a schema error; the empty string is a
    # legitimate expectation and must survive ingestion.
    cases = tuple(TestCase(input=read_field(case, "input", string),
                           expected_output=read_field(case, "expected_output", string))
                  for case in read_field(obj, "test_cases", list_of(json_object)))
    limits_obj = read_field(obj, "limits", json_object, None) or {}
    limits = ResourceLimits(
        wall_time_ms=read_field(limits_obj, "wall_time_ms", integer, DEFAULT_WALL_TIME_MS),
        memory_bytes=read_field(limits_obj, "memory_bytes", integer, DEFAULT_MEMORY_BYTES),
    )
    return Task(task_id=task_id, test_cases=cases, limits=limits)


def load_dataset(
    path: str | Path, wall_time_ms: int | None = None, memory_bytes: int | None = None
) -> dict[str, Task]:
    """The tasks of a tasks.jsonl file by id, in file order. A row is read
    for `task_id`, `test_cases` (`input`, `expected_output`) and optional
    `limits` (`wall_time_ms`, `memory_bytes`); a repeated id is a
    ValidationError naming the line. The run's limits, where given,
    replace a task's own once those have passed `ResourceLimits`."""
    tasks = read_jsonl(path, refuse_repeats(
        task_from_dict, lambda task: task.task_id, "duplicate task_id"))
    overrides = {"wall_time_ms": wall_time_ms, "memory_bytes": memory_bytes}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if overrides:
        tasks = [replace(task, limits=replace(task.limits, **overrides)) for task in tasks]
    return {task.task_id: task for task in tasks}


def completion_from_dict(obj: dict) -> Completion:
    """A record's completion. `source_code` is the record's own, else
    derived from `raw_response` (first fenced block, else all of it)."""
    raw_response = read_field(obj, "raw_response", string)
    source = read_field(obj, "source_code", string, None)
    return Completion(
        task_id=read_field(obj, "task_id", identifier),
        model_id=read_field(obj, "model_id", identifier),
        source_code=gateway.extract_code(raw_response) if source is None else source,
        sample_index=read_field(obj, "sample_index", integer, None),
        truncated_at_limit=read_field(obj, "truncated_at_limit", boolean, False),
    )


def load_completions(path: str | Path) -> list[Completion]:
    """Load a completions.jsonl file.

    Records may reference task ids the dataset lacks, so partial
    completion dumps stay loadable. Repeated (task_id, model_id) pairs are
    rejected unless every repeat carries its own sample_index; a missing
    sample_index is a value of its own."""
    return read_jsonl(path, refuse_repeats(
        completion_from_dict, lambda c: c.key, "repeated completion"))

