"""haluscope benchmark: run the full pipeline on a generated workload and
print the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1) as the last line of stdout.

    python3 perfbench/run.py --workload exec-multitest --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is this file's parent directory.
Inputs are generated from the seed into .perfbench_work/<workload>/, and
every pipeline run happens in a fresh interpreter (worker.py). Runs repeat
until --seconds have passed; each metric is the median over the runs. Every
run's states are checked against the generator's oracle (check.py). See
README.md for the metrics, units and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_SAMPLES = 15
RUN_TIMEOUT_S = 120

sys.path.insert(0, str(BENCH_DIR))
import check  # noqa: E402
import workloads  # noqa: E402


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # Sandbox temp directories go under the work directory.
    env["TMPDIR"] = str(WORK_DIR / "tmp")
    return env


def measure_setup(env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing the CLI and the
    pipeline, after one untimed import that fills the bytecode cache."""
    command = [sys.executable, "-c", "import haluscope.cli, haluscope.pipeline"]
    subprocess.run(command, env=env, check=True, capture_output=True)
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True, capture_output=True)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def run_once(workdir: Path, jobs: int, traced: bool, env: dict[str, str]) -> dict:
    """One pipeline run in a fresh worker process, checked against the oracle."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    command = [sys.executable, str(BENCH_DIR / "worker.py"), str(workdir), "--jobs", str(jobs)]
    if traced:
        command.append("--trace")
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": f"run exceeded {RUN_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"ok": False, "traced": traced, "error": proc.stderr[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["failed"], result["problems"] = check.check_run(workdir)
    result.update(ok=True, traced=traced)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "haluscope" / "pipeline.py").is_file():
        print(f"error: no haluscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = WORK_DIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    expected_rows = workloads.generate(args.workload, args.seed, workdir)
    oracle = [json.loads(line) for line in (workdir / "oracle.jsonl").read_text().splitlines()]
    completions = len({(r["task_id"], r["model_id"]) for r in oracle})
    executions = sum(1 for r in oracle if r["test_index"] is not None)
    jobs = workloads.WORKLOADS[args.workload][1] or len(os.sched_getaffinity(0))
    env = _env()

    try:
        setup_s = None if args.trace else measure_setup(env)
    except subprocess.CalledProcessError as exc:
        print(f"error: importing haluscope failed:\n{exc.stderr.decode()[-2000:]}", file=sys.stderr)
        return 1

    # Traced mode alternates untraced and traced runs so the tracing
    # overhead is measured under the same conditions.
    runs: list[dict] = []
    started = time.perf_counter()
    while len(runs) < 1 + args.trace or time.perf_counter() - started < args.seconds:
        runs.append(run_once(workdir, jobs, bool(args.trace) and len(runs) % 2 == 1, env))

    failed = 0
    for index, run in enumerate(runs):
        if not run["ok"]:
            failed += expected_rows
            print(f"run {index} crashed: {run['error']}", file=sys.stderr)
            continue
        failed += run["failed"]
        for problem in run["problems"][:20]:
            print(f"run {index}: {problem}", file=sys.stderr)
    ok = [run for run in runs if run["ok"]]
    traced = [run for run in ok if run["traced"]]
    plain = [run for run in ok if not run["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no pipeline run completed", file=sys.stderr)
        return 1

    def median(key, runs=plain):
        return statistics.median(key(run) for run in runs)

    if args.trace:
        metrics = {
            name: {"value": median(lambda r: r["layers"][name][0], traced),
                   "unit": traced[0]["layers"][name][1]}
            for name in traced[0]["layers"]
        }
        overhead = median(lambda r: r["wall_s"], traced) / median(lambda r: r["wall_s"], plain) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "completions_per_s": {"value": median(lambda r: completions / r["wall_s"]), "unit": "1/s"},
            "executions_per_s": {"value": median(lambda r: executions / r["wall_s"]), "unit": "1/s"},
            "cpu_ms_per_completion": {
                "value": median(lambda r: r["cpu_s"] * 1000 / completions), "unit": "ms"},
            "peak_rss_mb": {"value": median(lambda r: r["peak_rss_mb"]), "unit": "MiB"},
        }
    attempted = expected_rows * len(runs)
    print(
        f"{args.workload} seed={args.seed} jobs={jobs} runs={len(runs)} "
        f"completions={completions} executions={executions} "
        f"failed_frac={failed / attempted:.4f} ({failed}/{attempted} rows)",
        file=sys.stderr,
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
