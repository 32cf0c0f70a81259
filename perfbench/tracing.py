"""In-memory span tracing of one pipeline run, from outside the library.

`Tracer.install` replaces the public functions of each haluscope module
with timing wrappers. Every wrapped name is a module attribute that its
caller looks up at call time (`pipeline` calls `degeneration.detect`,
`sandbox.execute_batch` calls `execute`, `subprocess.run` constructs
`subprocess.Popen`), so the wrappers see every call without any change to
`src/`. `Tracer.restore` puts the originals back.

A span records its name, start, end, parent span and run id. Spans opened
on a pool thread with nothing open on that thread are parented to the
span the main thread has open, which is `sandbox.execute_batch`.
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

# Sandbox statuses, reported as counts (zero included) in this order.
STATUSES = (
    "pass",
    "wrong_output",
    "runtime_failure",
    "time_limit_exceeded",
    "memory_limit_exceeded",
    "syntax_failure",
    "sandbox_error",
)
GATED_KINDS = ("stuttering", "infinite_enumeration", "gibberish")
STAGES = ("validate", "identify", "build_bench", "evaluate", "report")
RENDERERS = ("render_report", "render_markdown", "render_csv", "render_json")


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    parent: int | None
    run_id: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].span_id
        elif self._main_stack:
            parent = self._main_stack[-1].span_id
        else:
            parent = None
        span = Span(next(self._ids), name, time.perf_counter(), parent, self.run_id)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def wrap(
        self, owner: object, attr: str, name: str, observe: Callable[[Span, object], None] | None = None
    ) -> None:
        """Replace owner.attr with a wrapper recording one span per call;
        `observe(span, result)` may attach attributes from the result."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if observe is not None:
                observe(span, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        from haluscope import aggregate, bench, degeneration, gateway, pipeline, report, sandbox, taxonomy

        self.wrap(pipeline, "load_dataset", "corpus.load_dataset")
        self.wrap(pipeline, "load_completions", "corpus.load_completions")
        self.wrap(gateway, "extract_code", "gateway.extract_code")
        self.wrap(degeneration, "detect", "degeneration.detect",
                  lambda span, verdict: span.attrs.update(kind=verdict.kind.value))
        self.wrap(sandbox, "execute_batch", "sandbox.execute_batch")
        self.wrap(sandbox, "execute", "sandbox.execute",
                  lambda span, outcome: span.attrs.update(
                      status=outcome.status.value, program_ms=outcome.wall_time_ms))
        self.wrap(sandbox, "compare_output", "sandbox.compare_output")
        self.wrap(taxonomy, "classify", "taxonomy.classify")
        for attr in ("build_profiles", "frequency_list", "cooccurrence"):
            self.wrap(aggregate, attr, f"aggregate.{attr}")
        self.wrap(bench, "build", "bench.build",
                  lambda span, manifest: span.attrs.update(entries=len(manifest.entries())))
        self.wrap(report, "evaluate_model", "report.evaluate_model")
        for attr in RENDERERS:
            self.wrap(report, attr, f"report.{attr}")
        for stage in STAGES:
            self.wrap(pipeline, f"{stage}_stage", f"pipeline.{stage}")
        self.wrap(pipeline, "atomic_write", "pipeline.atomic_write")

        tracer = self
        original_popen = subprocess.Popen

        class TracedPopen(original_popen):
            def __init__(self, *args, **kwargs):
                span = tracer.open("subprocess.popen")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(span)

        subprocess.Popen = TracedPopen
        self._patches.append((subprocess, "Popen", original_popen))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        selfs = self_times(self.spans)
        with path.open("w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                row = {
                    "span_id": span.span_id,
                    "name": span.name,
                    "parent": span.parent,
                    "run_id": span.run_id,
                    "start": span.start,
                    "end": span.end,
                    "self_s": selfs[span.span_id],
                    **span.attrs,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its children cover. Children
    running in parallel count once, and only inside the parent's interval."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.span_id: span.duration
        - _covered(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[span.span_id]
        )
        for span in spans
    }


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(*names: str) -> float:
        return sum(s.duration for name in names for s in by_name[name])

    def count(name: str) -> int:
        return len(by_name[name])

    detect_ms = [s.duration * 1000 for s in by_name["degeneration.detect"]]
    executes = by_name["sandbox.execute"]
    execute_ms = [s.duration * 1000 for s in executes]
    program_ms = [s.attrs["program_ms"] for s in executes]
    batch_s = total("sandbox.execute_batch")
    selfs = self_times(spans)

    m: dict[str, tuple[float, str]] = {
        "corpus.load_s": (total("corpus.load_dataset", "corpus.load_completions"), "s"),
        "gateway.extract_s": (total("gateway.extract_code"), "s"),
        "degeneration.detect_s": (total("degeneration.detect"), "s"),
        "degeneration.detect_ms_p95": (p95(detect_ms), "ms"),
    }
    for kind in GATED_KINDS:
        gated = sum(1 for s in by_name["degeneration.detect"] if s.attrs["kind"] == kind)
        m[f"degeneration.gated.{kind}"] = (gated, "count")
    m.update({
        "sandbox.batch_s": (batch_s, "s"),
        "sandbox.executions": (len(executes), "count"),
        "sandbox.execute_ms_p50": (statistics.median(execute_ms), "ms"),
        "sandbox.execute_ms_p95": (p95(execute_ms), "ms"),
        # The sandbox times the program in whole milliseconds, so a median of
        # those readings repeats exactly; the share of execute time is reported.
        "sandbox.program_frac": (sum(program_ms) / sum(execute_ms), "fraction"),
        "sandbox.overhead_ms_p50": (
            statistics.median(e - p for e, p in zip(execute_ms, program_ms)), "ms"),
        "sandbox.spawn_ms_p50": (
            statistics.median(s.duration * 1000 for s in by_name["subprocess.popen"]), "ms"),
        "sandbox.children_per_execution": (count("subprocess.popen") / len(executes), "count"),
        "sandbox.worker_busy_frac": (sum(execute_ms) / 1000 / (batch_s * jobs), "fraction"),
        "sandbox.compare_s": (total("sandbox.compare_output"), "s"),
        "sandbox.faults": (sum(1 for s in executes if s.attrs["status"] == "sandbox_error"), "count"),
    })
    for status in STATUSES:
        m[f"sandbox.status.{status}"] = (
            sum(1 for s in executes if s.attrs["status"] == status), "count")
    m.update({
        "taxonomy.classify_s": (total("taxonomy.classify"), "s"),
        "aggregate.build_profiles_s": (total("aggregate.build_profiles"), "s"),
        "aggregate.frequency_s": (total("aggregate.frequency_list"), "s"),
        "aggregate.cooccurrence_s": (total("aggregate.cooccurrence"), "s"),
        "bench.build_s": (total("bench.build"), "s"),
        "bench.entries": (sum(s.attrs["entries"] for s in by_name["bench.build"]), "count"),
        "report.evaluate_s": (total("report.evaluate_model"), "s"),
        "report.render_s": (total(*(f"report.{r}" for r in RENDERERS)), "s"),
        "report.render_calls": (count("report.render_report"), "count"),
    })
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = (total(f"pipeline.{stage}"), "s")
    m.update({
        "pipeline.self_s": (
            sum(selfs[s.span_id] for stage in STAGES for s in by_name[f"pipeline.{stage}"]), "s"),
        "pipeline.artifact_writes": (count("pipeline.atomic_write"), "count"),
        "pipeline.write_s": (total("pipeline.atomic_write"), "s"),
        "trace.spans": (len(spans), "count"),
    })
    return m
