"""Correctness check of one pipeline run against the generator's oracle."""

from __future__ import annotations

import json
from pathlib import Path

REPORT_FILES = ("report.json", "report.md", "report.csv")


def _read_jsonl(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_run(workdir: Path) -> tuple[int, list[str]]:
    """Return (failed rows, problems) for the run whose artifacts are in
    workdir/out. A row fails when its state disagrees with the oracle, is a
    harness fault, is missing, or is not in the oracle. A run without a
    non-empty manifest or without its report files fails every row."""
    oracle = {
        (r["task_id"], r["model_id"], r["test_index"]): (r["kind"], r["cause"], r["subcategory"])
        for r in _read_jsonl(workdir / "oracle.jsonl")
    }
    out = workdir / "out"
    problems = []
    if not (out / "states.jsonl").is_file():
        return len(oracle), ["states.jsonl is missing"]

    actual = {}
    for row in _read_jsonl(out / "states.jsonl"):
        c = row["classification"]
        actual[(row["task_id"], row["model_id"], row["test_index"])] = (
            c["kind"], c["cause"], c.get("subcategory"))
    failed = 0
    for key, expected in oracle.items():
        got = actual.pop(key, None)
        if got != expected:
            failed += 1
            problems.append(f"{key}: expected {expected}, got {got}")
    for key, got in actual.items():
        failed += 1
        problems.append(f"{key}: unexpected row {got}")

    manifest = out / "benchmark.jsonl"
    entries = 0
    if manifest.is_file():
        entries = sum(1 for r in _read_jsonl(manifest) if r.get("record_type") == "entry")
    if entries == 0:
        problems.append("benchmark manifest is missing or empty")
    missing = [name for name in REPORT_FILES if not (out / name).is_file()]
    if missing:
        problems.append(f"report files missing: {missing}")
    if entries == 0 or missing:
        return len(oracle), problems
    return min(failed, len(oracle)), problems
