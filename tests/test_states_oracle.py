"""End-to-end oracle from states.jsonl to the report: identify,
build-bench, evaluate and report run through `pipeline` over drawn state
rows, and every file they write is compared byte for byte with
`fold_reference`, a brute-force reading of the fold. No sandbox runs."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import fold_reference as ref
from haluscope import pipeline
from haluscope.errors import ReportError
from haluscope.taxonomy import ClassKind, Subcategory

_PASS = {"kind": ClassKind.PASS.value, "cause": "pass"}
_CAUSES = ("NameError", "IndexError", "output_mismatch", "syntactic", "time_limit_exceeded")
_GATED = ("stuttering", "infinite_enumeration", "gibberish")


def _labeled(subcategory: Subcategory, cause: str) -> dict:
    return {"kind": ClassKind.LABELED.value, "cause": cause,
            "category": ref.CATEGORY_OF[subcategory].value, "subcategory": subcategory.value}


def _outcomes(subcategories: list[Subcategory]):
    """(status, classification) of one executed test; labels fall on
    `subcategories`, so that tasks clear the benchmark threshold."""
    labeled = st.builds(lambda sub, cause: ("runtime_failure", _labeled(sub, cause)),
                        st.sampled_from(subcategories), st.sampled_from(_CAUSES))
    return st.one_of(
        st.just(("pass", _PASS)),
        labeled,
        labeled,  # listed twice, so labels outweigh each other outcome
        st.builds(lambda cause: ("runtime_failure", {"kind": ClassKind.UNMAPPED.value,
                                                     "cause": cause}),
                  st.sampled_from(("EOFError", "StopIteration"))),
        st.just(("sandbox_error", {"kind": ClassKind.HARNESS_FAULT.value,
                                   "cause": "interpreter vanished"})),
    )


@st.composite
def _states(draw) -> list[dict]:
    """validate's rows, in its order: for each answered (task, model), one
    sample, either gated (one row, no test index) or executed (one row per
    test). A pair may go unanswered."""
    tasks = {f"t{i}": draw(st.integers(1, 4)) for i in range(draw(st.integers(1, 4)))}
    models = [f"m{i}" for i in range(draw(st.integers(1, 3)))]
    outcomes = _outcomes(draw(st.lists(st.sampled_from(ref.SUBCATEGORIES),
                                       min_size=1, max_size=3, unique=True)))
    rows = []
    for task, test_count in tasks.items():
        for model in models:
            shape = draw(st.sampled_from(("executed",) * 6 + ("gated", "gated", "unanswered")))
            base = {"task_id": task, "model_id": model, "test_count": test_count}
            if shape == "gated":
                label = _labeled(Subcategory.LOGIC_BREAKDOWN, draw(st.sampled_from(_GATED)))
                rows.append({**base, "test_index": None, "classification": label,
                             "status": pipeline.NOT_EXECUTED})
            elif shape == "executed":
                for index in range(test_count):
                    status, classification = draw(outcomes)
                    rows.append({**base, "test_index": index, "classification": classification,
                                 "status": status, "exception_name": classification["cause"],
                                 "wall_time_ms": 3, "peak_memory_bytes": 0})
    return rows


def _jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _expected(rows: list[dict], threshold_k: int, mode: str) -> dict[str, str | None]:
    """Each file's expected text; evaluate's three are None when the
    reference refuses the run: an empty benchmark, or a model without a
    profile of a benchmark task."""
    profiles = ref.profiles(rows)
    records = ref.benchmark(profiles, threshold_k, "oracle")
    entries = records[1:]
    expected = {
        pipeline.PROFILES_FILE: _jsonl(profiles),
        pipeline.FREQUENCIES_FILE: _json(ref.frequencies(profiles)),
        pipeline.BENCHMARK_FILE: _jsonl(records),
        pipeline.COOCCURRENCE_FILE: _json(ref.cooccurrence(profiles)),
        pipeline.EVALUATION_FILE: None,
        pipeline.REPORT_JSON_FILE: None,
    }
    by_model: dict[str, dict[str, dict]] = {}
    for profile in profiles:
        by_model.setdefault(profile["model_id"], {})[profile["task_id"]] = profile
    if not entries or any(e["task_id"] not in by_model[m] for m in by_model for e in entries):
        return expected
    evaluated = {model: ref.evaluate(by_model[model], entries, mode) for model in sorted(by_model)}
    counts = ref.sample_counts(entries)
    report = ref.report_payload(
        counts, ref.report_rows(counts, {m: hits for m, (hits, _) in evaluated.items()}))
    expected[pipeline.EVALUATION_FILE] = _json({
        "indicator_mode": mode,
        "report": report,
        "crosshits": {m: crosshits for m, (_, crosshits) in evaluated.items()},
    })
    expected[pipeline.REPORT_JSON_FILE] = _json(report)
    return expected


def _run_stages(rows: list[dict], threshold_k: int, mode: str) -> dict[str, str | None]:
    """The stages' files over `rows`; evaluate's are None when it refuses
    with ReportError."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / pipeline.STATES_FILE).write_text(_jsonl(rows), encoding="utf-8")
        config = pipeline.RunConfig(dataset_path="", out_dir=tmp, threshold_k=threshold_k,
                                    indicator_mode=mode, run_id="oracle")
        pipeline.identify_stage(config)
        pipeline.build_bench_stage(config)
        try:
            pipeline.evaluate_stage(config)
        except ReportError:
            pass
        pipeline.report_stage(config)
        names = (pipeline.PROFILES_FILE, pipeline.FREQUENCIES_FILE, pipeline.BENCHMARK_FILE,
                 pipeline.COOCCURRENCE_FILE, pipeline.EVALUATION_FILE, pipeline.REPORT_JSON_FILE)
        return {name: (out / name).read_text(encoding="utf-8") if (out / name).exists() else None
                for name in names}


@settings(max_examples=300, deadline=None)
@given(_states(), st.integers(1, 3), st.sampled_from(("target", "any")))
def test_stages_match_the_brute_force_fold(rows, threshold_k, mode):
    assert _run_stages(rows, threshold_k, mode) == _expected(rows, threshold_k, mode)
