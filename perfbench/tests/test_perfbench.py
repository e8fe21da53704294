"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They check the harness, not anclab: seeded inputs are reproducible, failing
jobs are counted without aborting a run, a short p90 sample is flagged, the
tracer leaves job outputs unchanged and reaches every layer, and run.py
prints the result line that BENCHMARK.json describes.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _no_calib() -> float:
    return 0.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(name, tmp_path):
    made = [
        workloads.make_workload(name, seed, tmp_path / str(i))
        for i, seed in enumerate((5, 5, 6))
    ]
    texts = [json.dumps(w.inputs, sort_keys=True).encode() for w in made]
    for w in made:
        w.cleanup()
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_short_runs_flag_p90():
    assert worker.p90_flag(worker.MIN_P90_JOBS - 1) is not None
    assert worker.p90_flag(worker.MIN_P90_JOBS) is None


def _stub(label, run, check=lambda out: None):
    return workloads.Job(cls=label, run=run, check=check, label=label)


def _boom():
    raise RuntimeError("stub failure")


def test_failing_jobs_are_counted_and_the_run_completes():
    jobs = [
        _stub("ok", lambda: 1),
        _stub("raises", _boom),
        _stub("wrong", lambda: 2, check=lambda out: None if out == 1 else "wrong output"),
    ]
    log = io.StringIO()
    stats = worker.closed_loop(jobs, 0.05, log=log, calib=_no_calib)
    assert stats.attempted >= 3
    assert stats.passed == (stats.attempted + 2) // 3  # only "ok" passes
    metrics = worker.end_to_end(stats, setup_s=0.0)
    assert metrics["check_pass_rate"] == pytest.approx(stats.passed / stats.attempted)
    assert 0.0 < metrics["check_pass_rate"] < 1.0
    assert "stub failure" in log.getvalue() and "wrong output" in log.getvalue()


def _sample_jobs(workload):
    """One job per class, at least two jobs."""
    first = {}
    for job in workload.jobs:
        first.setdefault(job.cls, job)
    return list(first.values()) if len(first) > 1 else workload.jobs[:2]


def test_traced_outputs_match_and_every_layer_is_entered(tmp_path):
    calls = dict.fromkeys(tracing.LAYERS, 0)
    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, 3, tmp_path)
        try:
            tracer = tracing.Tracer()
            assert tracer.missing == []
            stats = worker.traced_loop(
                _sample_jobs(workload), 0.01, tracer, log=sys.stderr, calib=_no_calib
            )
        finally:
            workload.cleanup()
        assert stats.failures == [], (name, stats.failures)
        assert stats.traced_jobs >= 2
        for layer, totals in tracer.layer_totals().items():
            calls[layer] += totals["calls"]
            assert 0.0 <= totals["self_s"] <= totals["busy_s"] + 1e-9
    assert all(count > 0 for count in calls.values()), calls


def test_missing_function_reports_zero_calls():
    with pytest.warns(UserWarning, match="no_such_function"):
        tracer = tracing.Tracer({"coding": ("no_such_function",), "power": ("received_power",)})
    assert tracer.missing == ["anclab.coding.no_such_function"]
    from anclab import network, power

    net = network.build_network([1, 1, 1], [[[1.0]], [[1.0]]], [1.0], 1.0)
    tracer.install()
    try:
        power.max_safe_gain(net, network.NodeId(1, 0))  # calls received_power inside
    finally:
        tracer.remove()
    totals = tracer.layer_totals()
    assert totals["coding"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    assert totals["power"]["calls"] == 1


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "cli_small", "--seed", "1", "--seconds", "0.3",
                           "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "cli_small", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
