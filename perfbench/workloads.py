"""Seeded corpus generators for the benchmark workloads.

Each generator writes three files into a workload directory:

* ``tasks.jsonl`` and ``completions.jsonl`` -- the only inputs the
  pipeline sees;
* ``oracle.jsonl`` -- the classification every state row must carry,
  one row per (task, model, test_index), with ``test_index`` null for a
  degenerate completion that is never executed.

The seed picks values, texts, program variants within one state and the
assignment of programs to models. It never changes how many completions
take each path, so per-run cost and every count (gated kinds, sandbox
statuses, manifest entries) are the same for every seed. Every model
answers every task once, as in CodeHalu's traffic.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

MODELS = ("model-alpha", "model-bravo", "model-charlie", "model-delta")

DEFAULT_WALL_MS = 5_000
DEFAULT_MEMORY = 256 * 2**20

# cause -> (kind, subcategory): the CodeHalu taxonomy as the harness's
# default classification table is documented to apply it. Kept here, apart
# from haluscope.taxonomy, so the oracle is an independent statement.
STATE = {
    "pass": ("pass", None),
    "TypeError": ("labeled", "data_compliance"),
    "ValueError": ("labeled", "data_compliance"),
    "ZeroDivisionError": ("labeled", "data_compliance"),
    "IndexError": ("labeled", "structure_access"),
    "KeyError": ("labeled", "structure_access"),
    "NameError": ("labeled", "identity"),
    "AttributeError": ("labeled", "identity"),
    "UnboundLocalError": ("labeled", "identity"),
    "ImportError": ("labeled", "external_source"),
    "ModuleNotFoundError": ("labeled", "external_source"),
    "memory_limit_exceeded": ("labeled", "physical_constraint"),
    "RecursionError": ("labeled", "physical_constraint"),
    "OverflowError": ("labeled", "computational_boundary"),
    "FloatingPointError": ("labeled", "computational_boundary"),
    "time_limit_exceeded": ("labeled", "computational_boundary"),
    "output_mismatch": ("labeled", "logic_deviation"),
    "syntactic": ("labeled", "logic_breakdown"),
    "stuttering": ("labeled", "logic_breakdown"),
    "infinite_enumeration": ("labeled", "logic_breakdown"),
    "gibberish": ("labeled", "logic_breakdown"),
    "EOFError": ("unmapped", None),
    "FileNotFoundError": ("unmapped", None),
}

# Programs of the handcrafted taxonomy fixture corpus, by fixture task id.
# Each reads (at most) one integer n and is judged against 2n.
FIXTURE_PROGRAMS = {
    "fx-typeerror": "print(1 + '2')",
    "fx-typeerror-unpack": "a, b = 1\nprint(a)",
    "fx-valueerror": "print(int('notanumber'))",
    "fx-valueerror-unpack": "a, b = [1, 2, 3]\nprint(a)",
    "fx-valueerror-chained": (
        "try:\n    int('x')\nexcept Exception as err:\n"
        "    raise ValueError('bad literal') from err"
    ),
    "fx-zerodivision": "print(1 / 0)",
    "fx-zerodivision-mod": "print(5 % 0)",
    "fx-indexerror": "items = [1]\nprint(items[5])",
    "fx-indexerror-pop": "print([].pop())",
    "fx-keyerror": "table = {'a': 1}\nprint(table['missing'])",
    "fx-keyerror-pop": "print({}.pop('x'))",
    "fx-nameerror": "for i in range(N):\n    print(i)",
    "fx-nameerror-helper": "print(compute_answer(5))",
    "fx-attributeerror": "x = 1\nx.append(2)",
    "fx-attributeerror-none": "result = None\nprint(result.value)",
    "fx-unboundlocal": "def bump():\n    count += 1\n    return count\nprint(bump())",
    "fx-importerror": "from math import not_a_real_name",
    "fx-modulenotfound": "import definitely_not_a_module_xyz",
    "fx-memoryerror-raise": "raise MemoryError('simulated exhaustion')",
    "fx-membomb": "chunk = [0]\nwhile True:\n    chunk = chunk + chunk",
    "fx-recursionerror": "def descend(n):\n    return descend(n + 1)\ndescend(0)",
    "fx-overflowerror": "import math\nprint(math.exp(1000))",
    "fx-floatingpointerror": "raise FloatingPointError('fp fault')",
    "fx-wrongoutput": "print(999)",
    "fx-wrongoutput-offbyone": "print(int(input()) * 2 + 1)",
    "fx-timeout-busy": "while True:\n    pass",
    "fx-timeout-sleep": "import time\ntime.sleep(30)\nprint('done')",
    "fx-syntax-truncation": "import sys\ndata = sys.stdin.read().split()\ndef process(chunk:",
    "fx-pass": "print(int(input()) * 2)",
    "fx-eoferror-unmapped": "first = input()\nsecond = input()\nprint(first)",
    "fx-filenotfound-unmapped": "import os\nprint(os.listdir('/definitely/not/a/directory'))",
}

# The state each fixture program reaches, as the fixture corpus labels it.
FIXTURE_CAUSE = {
    "fx-typeerror": "TypeError",
    "fx-typeerror-unpack": "TypeError",
    "fx-valueerror": "ValueError",
    "fx-valueerror-unpack": "ValueError",
    "fx-valueerror-chained": "ValueError",
    "fx-zerodivision": "ZeroDivisionError",
    "fx-zerodivision-mod": "ZeroDivisionError",
    "fx-indexerror": "IndexError",
    "fx-indexerror-pop": "IndexError",
    "fx-keyerror": "KeyError",
    "fx-keyerror-pop": "KeyError",
    "fx-nameerror": "NameError",
    "fx-nameerror-helper": "NameError",
    "fx-attributeerror": "AttributeError",
    "fx-attributeerror-none": "AttributeError",
    "fx-unboundlocal": "UnboundLocalError",
    "fx-importerror": "ImportError",
    "fx-modulenotfound": "ModuleNotFoundError",
    "fx-memoryerror-raise": "memory_limit_exceeded",
    "fx-membomb": "memory_limit_exceeded",
    "fx-recursionerror": "RecursionError",
    "fx-overflowerror": "OverflowError",
    "fx-floatingpointerror": "FloatingPointError",
    "fx-wrongoutput": "output_mismatch",
    "fx-wrongoutput-offbyone": "output_mismatch",
    "fx-timeout-busy": "time_limit_exceeded",
    "fx-timeout-sleep": "time_limit_exceeded",
    "fx-syntax-truncation": "syntactic",
    "fx-pass": "pass",
    "fx-eoferror-unmapped": "EOFError",
    "fx-filenotfound-unmapped": "FileNotFoundError",
}


def oracle_row(task_id: str, model_id: str, test_index: int | None, cause: str) -> dict:
    kind, subcategory = STATE[cause]
    return {
        "task_id": task_id,
        "model_id": model_id,
        "test_index": test_index,
        "kind": kind,
        "cause": cause,
        "subcategory": subcategory,
    }


def _fenced(code: str, rng: random.Random) -> str:
    lead = rng.choice(("Here is a solution.", "Solution:", "The program below reads stdin."))
    return f"{lead}\n```python\n{code}\n```\n"


def _task(task_id: str, question: str, tests: list[tuple[str, str]], wall_ms: int, memory: int) -> dict:
    return {
        "task_id": task_id,
        "question": question,
        "test_cases": [{"input": i, "expected_output": o} for i, o in tests],
        "limits": {"wall_time_ms": wall_ms, "memory_bytes": memory},
    }


def _completion(task_id: str, model_id: str, raw: str, truncated: bool = False) -> dict:
    return {
        "task_id": task_id,
        "model_id": model_id,
        "raw_response": raw,
        "truncated_at_limit": truncated,
    }


# --- exec-multitest -------------------------------------------------------

MULTITEST_TESTS = 8
MULTITEST_NEGATIVE_TESTS = 3  # tests holding a negative value
MULTITEST_ZERO_LAST_TESTS = 2  # tests whose last value is 0

# Per task, the programs the four models submit. Chosen so the manifest
# entries and every status count are fixed.
MULTITEST_TEMPLATES = (
    ("pass", "pass", "wrong_some", "raise_some"),
    ("pass", "wrong_all", "wrong_some", "pass"),
    ("pass", "raise_all", "wrong_all", "wrong_some"),
    ("pass", "pass", "pass", "wrong_some"),
)

_SUM_BODY = {
    "pass": "print(sum({v}))",
    "wrong_all": "print(sum({v}) + 1)",
    "wrong_some": "print(sum(x for x in {v} if x > 0))",
    "raise_some": "scale = 100 // {v}[-1]\nprint(sum({v}))",
    "raise_all": "print({v}[n])",
}


def _multitest_cause(variant: str, values: list[int]) -> str:
    if variant == "pass":
        return "pass"
    if variant == "wrong_all":
        return "output_mismatch"
    if variant == "wrong_some":
        return "output_mismatch" if any(v < 0 for v in values) else "pass"
    if variant == "raise_some":
        return "ZeroDivisionError" if values[-1] == 0 else "pass"
    return "IndexError"


def _multitest_values(rng: random.Random, negative: bool, zero_last: bool) -> list[int]:
    n = rng.randint(5, 12)
    values = [rng.randint(1, 50) for _ in range(n)]
    if negative:
        for index in rng.sample(range(n - 1), rng.randint(1, 3)):
            values[index] = -values[index]
    if zero_last:
        values[-1] = 0
    return values


def gen_exec_multitest(rng: random.Random) -> tuple[list[dict], list[dict], list[dict]]:
    tasks, completions, oracle = [], [], []
    for t, template in enumerate(MULTITEST_TEMPLATES):
        task_id = f"mt-{t:02d}-{rng.randrange(16**6):06x}"
        negatives = set(rng.sample(range(MULTITEST_TESTS), MULTITEST_NEGATIVE_TESTS))
        zero_last = set(rng.sample(range(MULTITEST_TESTS), MULTITEST_ZERO_LAST_TESTS))
        cases = [
            _multitest_values(rng, i in negatives, i in zero_last) for i in range(MULTITEST_TESTS)
        ]
        tests = [(f"{len(v)}\n{' '.join(map(str, v))}\n", str(sum(v))) for v in cases]
        tasks.append(
            _task(task_id, "Read n and then n integers; print their sum.", tests,
                  DEFAULT_WALL_MS, DEFAULT_MEMORY)
        )
        variants = list(template)
        rng.shuffle(variants)
        for model_id, variant in zip(MODELS, variants):
            name = rng.choice(("values", "nums", "data", "xs"))
            code = (
                f"n = int(input())\n{name} = list(map(int, input().split()))\n"
                + _SUM_BODY[variant].format(v=name)
            )
            completions.append(_completion(task_id, model_id, _fenced(code, rng)))
            oracle.extend(
                oracle_row(task_id, model_id, i, _multitest_cause(variant, values))
                for i, values in enumerate(cases)
            )
    return tasks, completions, oracle


# --- exec-failure-mix -----------------------------------------------------

# Slots name the state each model's program reaches; the seed picks which
# fixture program of that state fills the slot. Normal tasks keep the
# default limits so load cannot turn a pass into a timeout.
FAILURE_NORMAL_TEMPLATES = (
    ("TypeError", "ValueError", "ZeroDivisionError", "pass"),
    ("IndexError", "KeyError", "IndexError", "pass"),
    ("NameError", "AttributeError", "UnboundLocalError", "pass"),
    ("ImportError", "ModuleNotFoundError", "RecursionError", "OverflowError"),
    ("EOFError", "FileNotFoundError", "FloatingPointError", "memory_limit_exceeded"),
    ("output_mismatch", "output_mismatch", "syntactic", "pass"),
)
FAILURE_NORMAL_REPEATS = 2
# One task under a shortened wall limit: two programs time out and two
# fail at compile time, far inside the limit.
FAILURE_TIMEOUT_TASK = (("fx-timeout-busy", "fx-timeout-sleep", "fx-syntax-truncation",
                         "fx-syntax-truncation"), 500, DEFAULT_MEMORY)
# One task under a lowered memory cap: memory bombs and raised MemoryErrors.
FAILURE_MEMORY_TASK = (("fx-membomb", "fx-memoryerror-raise", "fx-membomb",
                        "fx-memoryerror-raise"), DEFAULT_WALL_MS, 128 * 2**20)

# Programs a normal-limit slot may use: no timeouts, no unbounded allocation.
_UNBOUNDED = ("fx-membomb", "fx-timeout-busy", "fx-timeout-sleep")
_NORMAL_VARIANTS = {
    cause: [f for f, c in FIXTURE_CAUSE.items() if c == cause and f not in _UNBOUNDED]
    for cause in STATE
}


def gen_exec_failure_mix(rng: random.Random) -> tuple[list[dict], list[dict], list[dict]]:
    slots: list[tuple[tuple[str, ...], int, int]] = []
    for _ in range(FAILURE_NORMAL_REPEATS):
        for template in FAILURE_NORMAL_TEMPLATES:
            programs = tuple(rng.choice(_NORMAL_VARIANTS[cause]) for cause in template)
            slots.append((programs, DEFAULT_WALL_MS, DEFAULT_MEMORY))
    slots += [FAILURE_TIMEOUT_TASK, FAILURE_MEMORY_TASK]
    rng.shuffle(slots)

    tasks, completions, oracle = [], [], []
    for t, (programs, wall_ms, memory) in enumerate(slots):
        task_id = f"fm-{t:02d}-{rng.randrange(16**6):06x}"
        n = rng.randint(1, 499)
        tasks.append(
            _task(task_id, "Read an integer and print its double.", [(str(n), str(2 * n))],
                  wall_ms, memory)
        )
        assigned = list(programs)
        rng.shuffle(assigned)
        for model_id, fixture_id in zip(MODELS, assigned):
            raw = _fenced(FIXTURE_PROGRAMS[fixture_id], rng)
            completions.append(_completion(task_id, model_id, raw))
            oracle.append(oracle_row(task_id, model_id, 0, FIXTURE_CAUSE[fixture_id]))
    return tasks, completions, oracle


# --- gate-heavy -----------------------------------------------------------

GATE_TASKS = 16
# Per task, the degenerate kinds of the four models' completions.
GATE_TEMPLATE = ("stuttering", "infinite_enumeration", "gibberish", "stuttering")
# Per kind, a fixed multiset of completion shapes, so the total work is
# seed-independent. Line counts span generation limits of roughly 1k to 16k
# tokens. A stutter shape is (lines, repeated block size); a gibberish shape
# is (lines, truncated): a truncated one is a code-like response cut at the
# token limit, the others are token soup.
GATE_SHAPES = {
    "stuttering": tuple(
        (lines, 1 + i % 3)
        for i, lines in enumerate((40, 80, 150, 250, 400, 600, 800, 1000, 1200, 1500, 1800,
                                   2000, 2200, 2500, 2800, 3000) * 2)
    ),
    "infinite_enumeration": tuple(
        (lines, None)
        for lines in (40, 120, 250, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000,
                      2200, 2500, 2800, 3000)
    ),
    "gibberish": tuple(
        (lines, truncated)
        for lines in (30, 120, 300, 600, 1000, 1400, 1800, 2400)
        for truncated in (True, False)
    ),
}

_WORDS = (
    "blorp graak zzt quux frobnicate wibble snark plonk grue vorpal slithy tove "
    "borogove mimsy outgrabe jabber wock bandersnatch frumious tumtum manxome "
    "uffish tulgey galumph beamish chortle callooh frabjous brillig gyre gimble"
).split()
_PUNCT = ("!!", "~~~", "??", "...", "::", ";;", "<>", "%%")
_STUTTER_BLOCKS = (
    ("total += values.pop()",),
    ("result.append(item)",),
    ("print(answer)",),
    ("values.append(left)", "values.append(right)"),
    ("left = mid + 1", "right = mid - 1"),
    ("if x > best:", "best = x", "count += 1"),
    ("for row in grid:", "row.sort()", "grid.append(row)"),
)
_PREFIX = (
    "import sys",
    "def solve():",
    "    data = sys.stdin.read().split()",
    "    n = int(data[0])",
    "    values = list(map(int, data[1:n + 1]))",
    "    total = 0",
    "    best = values[0]",
    "    result = []",
)


def _stutter_text(rng: random.Random, lines: int, block: int) -> str:
    body = rng.choice([b for b in _STUTTER_BLOCKS if len(b) == block])
    out = list(_PREFIX[: rng.randint(3, len(_PREFIX))])
    while len(out) < lines:
        out.extend("    " + line for line in body)
    return "\n".join(out[:lines])


def _enumeration_text(rng: random.Random, lines: int) -> str:
    name = rng.choice(("table", "cache", "lookup", "memo"))
    shape = rng.choice(("{n}[{i}] = {v}", "{n}.append({v})", "{n}[{i}] = 'item_{v}'"))
    out = [f"{name} = {{}}" if "[" in shape else f"{name} = []"]
    for i in range(lines - 1):
        out.append(shape.format(n=name, i=i, v=rng.randint(0, 10**6)))
    return "\n".join(out)


def _soup_text(rng: random.Random, lines: int) -> str:
    out = []
    for _ in range(lines):
        words = [rng.choice(_WORDS) for _ in range(rng.randint(3, 8))]
        if rng.random() < 0.3:
            words.insert(rng.randrange(len(words)), rng.choice(_PUNCT))
        out.append(" ".join(words))
    return "\n".join(out)


def _truncated_code_text(rng: random.Random, lines: int) -> str:
    out = ["data = list(range(100000))", "acc_0 = 0"]
    for i in range(1, lines - 1):
        op = rng.choice(("+", "-", "*", "^"))
        out.append(f"acc_{i} = acc_{i - 1} {op} data[{rng.randrange(100000)}]")
    out.append(f"acc_{lines} = acc_{lines - 1} + data[")
    return "\n".join(out)


def gen_gate_heavy(rng: random.Random) -> tuple[list[dict], list[dict], list[dict]]:
    shapes = {kind: list(pool) for kind, pool in GATE_SHAPES.items()}
    for pool in shapes.values():
        rng.shuffle(pool)

    tasks, completions, oracle = [], [], []
    for t in range(GATE_TASKS):
        task_id = f"gh-{t:02d}-{rng.randrange(16**6):06x}"
        n = rng.randint(1, 499)
        tasks.append(
            _task(task_id, "Read an integer and print its double.", [(str(n), str(2 * n))],
                  DEFAULT_WALL_MS, DEFAULT_MEMORY)
        )
        kinds = list(GATE_TEMPLATE)
        rng.shuffle(kinds)
        for model_id, kind in zip(MODELS, kinds):
            lines, detail = shapes[kind].pop()
            truncated = False
            if kind == "stuttering":
                text = _stutter_text(rng, lines, detail)
                truncated = rng.random() < 0.5
            elif kind == "infinite_enumeration":
                text = _enumeration_text(rng, lines)
            elif detail:
                text, truncated = _truncated_code_text(rng, lines), True
            else:
                text = _soup_text(rng, lines)
            raw = f"Here is the program.\n```python\n{text}"
            if not truncated:
                raw += "\n```\nIt reads the input and prints the answer.\n"
            completions.append(_completion(task_id, model_id, raw, truncated))
            oracle.append(oracle_row(task_id, model_id, None, kind))

    # One control task that every model solves: it keeps the sandbox path
    # (and so executions_per_s) non-zero at a small share of the run.
    task_id = f"gh-ctl-{rng.randrange(16**6):06x}"
    n = rng.randint(1, 499)
    tasks.append(
        _task(task_id, "Read an integer and print its double.", [(str(n), str(2 * n))],
              DEFAULT_WALL_MS, DEFAULT_MEMORY)
    )
    for model_id in MODELS:
        completions.append(_completion(task_id, model_id, _fenced(FIXTURE_PROGRAMS["fx-pass"], rng)))
        oracle.append(oracle_row(task_id, model_id, 0, "pass"))
    return tasks, completions, oracle


# name -> (generator, jobs, why). jobs None means one worker per CPU.
WORKLOADS = {
    "exec-multitest": (
        gen_exec_multitest,
        None,
        "multi-test tasks of short programs at jobs=nproc: the sandbox does nearly all "
        "the work, so compile-once, preexec_fn removal and a zygote show here",
    ),
    "exec-failure-mix": (
        gen_exec_failure_mix,
        1,
        "single-test programs reaching every executed taxonomy state at jobs=1: stderr "
        "parsing, termination classification, kill paths and memory evidence",
    ),
    "gate-heavy": (
        gen_gate_heavy,
        1,
        "long degenerate generations the gate stops before execution, plus one small "
        "passing control task: ingestion, code extraction, the gate, aggregate, bench, report",
    ),
}


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def generate(workload: str, seed: int, directory: Path) -> int:
    """Write the workload's inputs and oracle into `directory`; return the
    number of oracle rows. The same (workload, seed) gives byte-identical
    files."""
    generator = WORKLOADS[workload][0]
    tasks, completions, oracle = generator(random.Random(f"{workload}:{seed}"))
    oracle.sort(key=lambda r: (r["task_id"], r["model_id"], -1 if r["test_index"] is None else r["test_index"]))
    directory.mkdir(parents=True, exist_ok=True)
    _write_jsonl(directory / "tasks.jsonl", tasks)
    _write_jsonl(directory / "completions.jsonl", completions)
    _write_jsonl(directory / "oracle.jsonl", oracle)
    return len(oracle)
