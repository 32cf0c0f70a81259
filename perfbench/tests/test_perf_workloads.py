"""Generator determinism, oracle agreement with the fixture corpus, and the
oracle check."""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import pytest

import check
import workloads

FIXTURES = Path(__file__).resolve().parents[2] / "tests" / "fixtures" / "taxonomy"
SEEDS = (0, 1, 7, 12345)


def _read(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _oracle(directory: Path) -> list[dict]:
    return [json.loads(line) for line in (directory / "oracle.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    for seed in SEEDS:
        workloads.generate(workload, seed, tmp_path / f"a{seed}")
        workloads.generate(workload, seed, tmp_path / f"b{seed}")
        assert _read(tmp_path / f"a{seed}") == _read(tmp_path / f"b{seed}")
    assert _read(tmp_path / "a0") != _read(tmp_path / "a1")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_content_but_not_composition(workload, tmp_path):
    """Counts that the benchmark reports as exact (states per cause, per-task
    subcategory multiplicities behind the manifest) are seed-independent."""

    def composition(seed: int):
        oracle = _oracle(tmp_path / str(seed))
        causes = Counter(r["cause"] for r in oracle)
        per_task: dict[str, Counter] = {}
        for r in oracle:
            per_task.setdefault(r["task_id"], Counter())[str(r["subcategory"])] += 1
        return causes, sorted(sorted(c.items()) for c in per_task.values())

    for seed in SEEDS:
        workloads.generate(workload, seed, tmp_path / str(seed))
    first = composition(SEEDS[0])
    for seed in SEEDS[1:]:
        assert composition(seed) == first


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_model_answers_every_task_once(workload, tmp_path):
    workloads.generate(workload, 3, tmp_path)
    tasks = [json.loads(l)["task_id"] for l in (tmp_path / "tasks.jsonl").read_text().splitlines()]
    pairs = [
        (c["task_id"], c["model_id"])
        for c in map(json.loads, (tmp_path / "completions.jsonl").read_text().splitlines())
    ]
    assert len(pairs) == len(set(pairs)) == len(tasks) * len(workloads.MODELS)
    assert len(workloads.MODELS) >= 4


def test_failure_mix_covers_every_executed_state(tmp_path):
    workloads.generate("exec-failure-mix", 0, tmp_path)
    causes = {r["cause"] for r in _oracle(tmp_path)}
    degenerate = {"stuttering", "infinite_enumeration", "gibberish"}
    assert causes == set(workloads.STATE) - degenerate


def test_fixture_programs_and_oracle_match_the_fixture_corpus():
    expected = json.loads((FIXTURES / "expected_states.json").read_text())
    fixture_code = {}
    for line in (FIXTURES / "completions.jsonl").read_text().splitlines():
        record = json.loads(line)
        match = re.fullmatch(r"```python\n(.*)\n```", record["raw_response"], re.DOTALL)
        fixture_code[record["task_id"]] = match.group(1)
    for fixture_id, code in workloads.FIXTURE_PROGRAMS.items():
        assert code == fixture_code[fixture_id], fixture_id
        row = workloads.oracle_row("t", "m", 0, workloads.FIXTURE_CAUSE[fixture_id])
        assert {k: row[k] for k in ("kind", "cause", "subcategory")} == expected[fixture_id]


def _write_run(workdir: Path, states: list[dict], entries: int = 1) -> None:
    out = workdir / "out"
    out.mkdir(parents=True)
    (out / "states.jsonl").write_text("".join(json.dumps(s) + "\n" for s in states))
    manifest = [{"record_type": "summary"}] + [{"record_type": "entry"}] * entries
    (out / "benchmark.jsonl").write_text("".join(json.dumps(r) + "\n" for r in manifest))
    for name in check.REPORT_FILES:
        (out / name).write_text("x")


def _state(row: dict, **classification) -> dict:
    c = {"kind": row["kind"], "cause": row["cause"]}
    if row["subcategory"] is not None:
        c["subcategory"] = row["subcategory"]
    c.update(classification)
    return {"task_id": row["task_id"], "model_id": row["model_id"],
            "test_index": row["test_index"], "classification": c}


def test_check_counts_disagreeing_missing_and_unexpected_rows(tmp_path):
    workloads.generate("exec-failure-mix", 0, tmp_path)
    oracle = _oracle(tmp_path)
    states = [_state(r) for r in oracle]
    _write_run(tmp_path, states)
    assert check.check_run(tmp_path) == (0, [])

    wrong = [_state(oracle[0], kind="harness_fault", cause="boom")] + states[2:]
    wrong.append(dict(states[1], task_id="stray"))
    (tmp_path / "out" / "states.jsonl").write_text("".join(json.dumps(s) + "\n" for s in wrong))
    failed, problems = check.check_run(tmp_path)
    assert failed == 3 and len(problems) == 3


def test_check_fails_every_row_without_manifest_entries(tmp_path):
    workloads.generate("gate-heavy", 0, tmp_path)
    oracle = _oracle(tmp_path)
    _write_run(tmp_path, [_state(r) for r in oracle], entries=0)
    failed, problems = check.check_run(tmp_path)
    assert failed == len(oracle)
    assert problems == ["benchmark manifest is missing or empty"]
