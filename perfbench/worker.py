"""Run one haluscope pipeline over a generated workload in this process and
print its measurements as one JSON line.

The benchmark starts a fresh interpreter for every run, so module state,
caches and peak RSS never carry over between runs. Usage:

    python3 perfbench/worker.py WORKDIR --jobs N [--trace]

WORKDIR holds tasks.jsonl and completions.jsonl; the pipeline writes its
artifacts to WORKDIR/out. With --trace the run is traced (see tracing.py),
the spans are written to WORKDIR/spans.jsonl, and the per-layer metrics are
added to the output.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from haluscope import pipeline

    config = pipeline.RunConfig(
        dataset_path=str(args.workdir / "tasks.jsonl"),
        completions_path=str(args.workdir / "completions.jsonl"),
        out_dir=str(args.workdir / "out"),
        jobs=args.jobs,
    )
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(run_id=args.workdir.name)
        tracer.install()

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    try:
        pipeline.run_pipeline(config)
    finally:
        wall_s = time.perf_counter() - started
        if tracer is not None:
            tracer.restore()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "wall_s": wall_s,
        "cpu_s": _cpu_s(self_after) - _cpu_s(self_before)
        + _cpu_s(children_after) - _cpu_s(children_before),
        # ru_maxrss is in KiB on Linux; it covers this process, not its children.
        "peak_rss_mb": self_after.ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.write_spans(args.workdir / "spans.jsonl")
        result["layers"] = tracing.layer_metrics(tracer.spans, args.jobs)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
