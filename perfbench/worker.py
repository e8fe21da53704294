"""One workload in one process: set-up, then a timed closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace 1]

Prints one JSON object as its last stdout line.  run.py starts this script
in a fresh single-threaded process for every measurement; it can also be
run by hand.  With --setup-only it stops before the first timed job and
reports only the set-up time.

Untraced runs time every job and report the end-to-end figures.  Traced
runs alternate short rounds: the round's jobs run untraced, then the same
jobs run again with every layer function wrapped (tracer.py).  The paired
rounds give the tracing overhead, and the two outputs of each job must be
equal.  Rounds last about ROUND_S seconds; between rounds a fixed
calibration kernel records host speed.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
MIN_P90_JOBS = 100
ROUND_S = 0.5


def _use_checkout_sources() -> None:
    """Import anclab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "anclab" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'anclab'} not found; run from a full checkout")
    sys.path.insert(0, str(src))


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python plus numpy kernel (host speed)."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    v = np.linspace(0.0, 1.0, 1 << 15)
    for _ in range(10):
        v = np.sqrt(v * v + 1.0)
    return (time.perf_counter() - start) * 1000.0


def timed_job(job, tracer=None):
    """Run one job; returns (seconds, output or None, failure reason or None).

    An exception in the job or in its check is a failure, never an abort.
    """
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # a failing job is counted, the run goes on
        return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    try:
        output = job.collect(result)
        return elapsed, output, job.check(output)
    except Exception as exc:
        return elapsed, None, f"check raised {type(exc).__name__}: {exc}"


@dataclass
class LoopStats:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    calib_ms: list[float] = field(default_factory=list)
    # Untraced rounds: jobs passed per second of job time, one per round.
    round_rates: list[float] = field(default_factory=list)
    # Paired traced rounds only.
    traced_s: float = 0.0
    untraced_s: float = 0.0
    traced_jobs: int = 0

    def record(self, index: int, job, elapsed: float, reason: str | None, log) -> None:
        self.attempted += 1
        self.latencies.append(elapsed)
        if reason is not None:
            message = f"job {index} ({job.label}): {reason}"
            self.failures.append(message)
            print(f"FAILED {message}", file=log)

    @property
    def passed(self) -> int:
        return self.attempted - len(self.failures)


def closed_loop(jobs, seconds: float, log=sys.stderr, calib=calibrate) -> LoopStats:
    """Run jobs back to back, cycling through the list, for `seconds`."""
    stats = LoopStats()
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        round_end = min(time.perf_counter() + ROUND_S, deadline)
        passed, busy = stats.passed, 0.0
        while time.perf_counter() < round_end:
            job = jobs[index % len(jobs)]
            elapsed, _, reason = timed_job(job)
            stats.record(index, job, elapsed, reason, log)
            busy += elapsed
            index += 1
        if busy > 0:
            stats.round_rates.append((stats.passed - passed) / busy)
        stats.calib_ms.append(calib())
    return stats


def traced_loop(jobs, seconds: float, tracer, log=sys.stderr, calib=calibrate) -> LoopStats:
    """Paired rounds: jobs untraced, then the same jobs traced; outputs must match."""
    stats = LoopStats()
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        round_end = time.perf_counter() + ROUND_S / 2
        plain = []
        while not plain or time.perf_counter() < round_end:
            job = jobs[(index + len(plain)) % len(jobs)]
            elapsed, output, reason = timed_job(job)
            stats.record(index + len(plain), job, elapsed, reason, log)
            stats.untraced_s += elapsed
            plain.append(output)
        for offset, plain_output in enumerate(plain):
            job = jobs[(index + offset) % len(jobs)]
            tracer.job = index + offset
            elapsed, output, reason = timed_job(job, tracer)
            if reason is None and output != plain_output:
                reason = "traced output differs from the untraced output"
            stats.record(index + offset, job, elapsed, reason, log)
            stats.traced_s += elapsed
            stats.traced_jobs += 1
        index += len(plain)
        stats.calib_ms.append(calib())
    return stats


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _median(values) -> float:
    return _percentile(values, 50.0)


def p90_flag(job_count: int) -> str | None:
    """Warning when job_p90_ms rests on fewer than MIN_P90_JOBS jobs."""
    if job_count < MIN_P90_JOBS:
        return (
            f"job_p90_ms comes from {job_count} jobs (< {MIN_P90_JOBS}), "
            "so fewer than 10 lie beyond it"
        )
    return None


def end_to_end(stats: LoopStats, setup_s: float) -> dict[str, float]:
    lat_ms = [s * 1000.0 for s in stats.latencies]
    return {
        "setup_s": setup_s,
        # The median over rounds keeps a few seconds of a faster or slower
        # host from moving the figure, as the latency percentiles do.
        "jobs_per_s": _median(stats.round_rates),
        "job_p50_ms": _percentile(lat_ms, 50.0),
        "job_p90_ms": _percentile(lat_ms, 90.0),
        "check_pass_rate": stats.passed / stats.attempted if stats.attempted else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(stats: LoopStats, tracer, samples_per_job: int) -> dict[str, float]:
    totals = tracer.layer_totals()
    jobs = max(stats.traced_jobs, 1)
    metrics = {}
    for layer, t in totals.items():
        metrics[f"{layer}.calls_per_job"] = t["calls"] / jobs
        metrics[f"{layer}.busy_ms_per_job"] = t["busy_s"] * 1000.0 / jobs
        metrics[f"{layer}.self_ms_per_job"] = t["self_s"] * 1000.0 / jobs
    mc_busy = totals["montecarlo"]["busy_s"]
    metrics["montecarlo.samples_per_s"] = (
        samples_per_job * stats.traced_jobs / mc_busy if mc_busy > 0 else 0.0
    )
    metrics["trace.overhead_pct"] = (
        (stats.traced_s / stats.untraced_s - 1.0) * 100.0 if stats.untraced_s > 0 else 0.0
    )
    metrics["host.calib_ms"] = _median(stats.calib_ms)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--t0", type=float, default=None,
        help="time.monotonic() when the parent started this process",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    start = PROCESS_START if args.t0 is None else args.t0

    _use_checkout_sources()
    import workloads  # noqa: E402  (needs anclab on sys.path)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    workload = workloads.make_workload(args.workload, args.seed, OUT_DIR)
    try:
        warm_up = {}
        for job in workload.jobs:
            warm_up.setdefault(job.cls, job)
        for job in warm_up.values():
            _, _, reason = timed_job(job)
            if reason is not None:
                print(f"FAILED warm-up {job.label}: {reason}", file=sys.stderr)
        setup_s = time.monotonic() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            stats = traced_loop(workload.jobs, args.seconds, tracer)
            metrics = per_layer(stats, tracer, workload.samples_per_job)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
            info = {"traced_jobs": stats.traced_jobs, "spans": tracer.span_count}
        else:
            stats = closed_loop(workload.jobs, args.seconds)
            metrics = end_to_end(stats, setup_s)
            info = {"host.calib_ms": _median(stats.calib_ms), "p90_flag": p90_flag(stats.attempted)}
    finally:
        workload.cleanup()
    for note in sorted(set(workload.notes)):
        print(f"NOTE: {note}", file=sys.stderr)

    print(json.dumps({
        "metrics": metrics,
        "attempted": stats.attempted,
        "failed": len(stats.failures),
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
