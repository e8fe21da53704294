"""Benchmark entry point: one workload, one measurement, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports anclab from its src/.  Every
measurement happens in a fresh single-threaded worker process (worker.py).
With --trace 0 the set-up is also repeated in two extra worker processes
that stop before the first timed job, and setup_s is the median of the
three.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1.  The lines before it print the same figures for reading.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
DEADLINE_S = 170.0
# Single-threaded numeric libraries, so a job never competes with itself.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline: float, extra: list[str]) -> dict:
    """Start worker.py in a fresh process and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
    ] + extra
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="anclab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "anclab" / "__init__.py").is_file():
        print(f"error: no anclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # BENCHMARK.json names the metrics of each kind, in order, with units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, deadline, ["--setup-only"])["setup_s"])
        result = run_worker(args, deadline, [])
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    info = result["info"]
    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: worker metrics {sorted(metrics)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  jobs {result['attempted']}  failed {result['failed']}")
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        notes = {
            "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
            "job_p50_ms": f"{result['attempted']} jobs",
            "job_p90_ms": f"{result['attempted']} jobs",
            "check_pass_rate": f"{result['attempted'] - result['failed']}/{result['attempted']}",
        }
        for name, value in metrics.items():
            print(f"  {name:34s} {value:14.6g} {units[name]:10s} {notes.get(name, '')}")
        print(f"  {'host.calib_ms':34s} {info['host.calib_ms']:14.6g} "
              f"{units['host.calib_ms']:10s} host speed, for reading only")
        if info["p90_flag"]:
            print(f"FLAG: {info['p90_flag']}", file=sys.stderr)
    else:
        for name, value in metrics.items():
            print(f"  {name:34s} {value:14.6g} {units[name]}")
        print(f"  traced jobs {info['traced_jobs']}, spans {info['spans']}")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
