"""Run the benchmark over several seeds per workload and write a trajectory
file (BENCH_<label>.json) with each metric's median, quartiles and spread.

    python3 perfbench/record.py --label <name>

Each run is a separate invocation of run.py with BENCHMARK.json's
run_seconds: seeds 1..10 untraced and seeds 1..3 traced, per workload. The
spread is the distance between the first and third quartile of the per-run
values as a share of their median; for an end-to-end metric it should stay
within a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = 10
TRACED_SEEDS = 3


def _invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(results: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / median if median else 0.0, "values": values}
        if name in bounds:
            entry["bound"] = bounds[name]
        summary[name] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "label": args.label,
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "traced_seeds": TRACED_SEEDS,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": len(os.sched_getaffinity(0))},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [_invoke(workload, s, spec["run_seconds"], 0) for s in range(1, SEEDS + 1)]
        traced = [_invoke(workload, s, spec["run_seconds"], 1) for s in range(1, TRACED_SEEDS + 1)]
        runs = plain + traced
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": _summary(plain, bounds),
            "per_layer": _summary(traced, {}),
        }
        for name, entry in record["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {entry['median']:.6g} {entry['unit']}, "
                  f"spread {entry['spread']:.4f} (bound {entry['bound']})", file=sys.stderr)
    out = BENCH_DIR / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
