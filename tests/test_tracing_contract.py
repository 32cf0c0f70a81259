"""perfbench's tracer against the code it wraps: one traced pipeline run
over the mini corpus yields every per-layer metric BENCHMARK.json
declares. A wrapped name that is renamed or removed fails here, not only
under `perfbench/run.py --trace 1`."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

from haluscope import pipeline

ROOT = Path(__file__).resolve().parents[1]


def test_traced_run_yields_every_declared_layer_metric(mini_corpus, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    config = pipeline.RunConfig(
        dataset_path=str(mini_corpus["tasks"]),
        completions_path=str(mini_corpus["completions"]),
        out_dir=str(tmp_path / "out"),
    )
    tracer = tracing.Tracer("contract")
    tracer.install()
    try:
        pipeline.run_pipeline(config)
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer.spans, config.jobs)
    # run.py adds the tracer's own overhead, which needs an untraced run.
    assert sorted(declared - {"trace.overhead_frac"} - set(metrics)) == []
    assert metrics["report.render_calls"] == (1, "count")
    # No mini-corpus completion carries source_code, so each one's code is
    # extracted through the wrapped name; a caller bound to the unwrapped
    # function would leave gateway.extract_s reading 0.
    rows = [json.loads(line) for line in mini_corpus["completions"].read_text().splitlines()]
    assert len(rows) == 24 and not any("source_code" in row for row in rows)
    assert sum(span.name == "gateway.extract_code" for span in tracer.spans) == 24
