"""The benchmark still runs on this package: its names and its inputs.

perfbench/tracer.py names, per anclab module, the entry points whose calls
and time make up each per-layer metric.  A name that disappears makes the
tracer report zero for it instead of failing, so this checks every name
against the package.  The benchmark's recorded inputs must also pass
build_network's checks, or its workloads fail to set up, and some of each
workload's jobs (all of optimize_small's and analyze_deep's, one per network
of simulate_wide's) must pass their own checks, as the benchmark runs them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from anclab import load_network

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path and registered, as its dataclasses need."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


LAYERS = _perfbench_module("tracer").LAYERS
WORKLOADS = _perfbench_module("workloads")


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_names_are_callable(layer):
    module = importlib.import_module(f"anclab.{layer}")
    for name in LAYERS[layer]:
        assert callable(getattr(module, name, None)), f"anclab.{layer}.{name}"


def test_benchmark_inputs_build():
    # simulate_wide's pool is the benchmark's only signed one, so the only one
    # whose received powers can cancel; simulate_pool_network builds each network.
    for index in range(WORKLOADS.SIMULATE_POOL):
        WORKLOADS.simulate_pool_network(index)
    configs = sorted((ROOT / "configs").glob("*.json"))
    assert len(configs) == 4
    for path in configs:
        load_network(str(path))


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_benchmark_jobs_pass_their_checks(name, tmp_path):
    # One job of every cli_small class pins each CLI output the benchmark
    # compares with perfbench/refs.  optimize_small runs every job, since a
    # fault in how the optimizer's lockstep starts leave their stack shows on
    # a few networks only, and so does analyze_deep, the one library reader
    # of BoundsReport's values.  simulate_wide runs one job of each of its
    # networks, through the benchmark's readers of SimReport and AgreementCheck.
    workload = WORKLOADS.make_workload(name, 0, tmp_path)
    try:
        if name == "cli_small":
            jobs = list({job.cls: job for job in workload.jobs}.values())
            assert len(jobs) == len(WORKLOADS.cli_classes())
        elif name in ("optimize_small", "analyze_deep"):
            jobs = workload.jobs
            assert len(jobs) == WORKLOADS.INPUTS_PER_RUN
        else:
            pools = [pool for pool, _ in workload.inputs["jobs"]]
            jobs = list(dict(zip(pools, workload.jobs)).values())
            assert len(jobs) == WORKLOADS.SIMULATE_NETWORKS
        for job in jobs:
            assert job.check(job.collect(job.run())) is None, f"{job.cls}: {job.label}"
    finally:
        workload.cleanup()
