"""The four benchmark workloads: seeded inputs, jobs and per-job checks.

Every workload is a closed loop over a fixed cycle of jobs.  A job's `run`
is the timed call; `collect` turns its return value into the job output
(for the CLI, the bytes written) and `check` returns None when that output
is correct or a one-line reason when it is not.  Both run untimed.
Library calls go through the `anclab.<layer>` module attributes, so the
tracer's patched bindings see every call the benchmark makes.

Inputs come only from the benchmark seed.  The seeded random networks of
`analyze_deep`, `optimize_small` and `simulate_wide` are drawn from fixed
pools whose reference results are recorded under refs/ (record_refs.py),
so a run with any seed is compared with outputs of the commit that
recorded them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from anclab import bounds, cli, montecarlo, network, optimize, power, schemes
from anclab.gains import GainAssignment

ROOT = Path(__file__).resolve().parent.parent
REFS = Path(__file__).resolve().parent / "refs"
CONFIGS = ROOT / "configs"
DEMO_OUTPUT = ROOT / "demos" / "output"

POOL_SIZE = 1024
INPUTS_PER_RUN = 256
# Distinct integer tags keep the workloads' random streams apart.
_ANALYZE_TAG, _OPTIMIZE_TAG, _SIMULATE_TAG, _CLI_TAG = 61, 62, 63, 64


def _identity(value):
    return value


@dataclass
class Job:
    cls: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    label: str
    collect: Callable[[object], object] = _identity


@dataclass
class Workload:
    name: str
    inputs: object
    jobs: list[Job]
    samples_per_job: int = 0
    cleanup: Callable[[], None] = lambda: None
    # Checks append here what a reader should see but that is no failure.
    notes: list[str] = field(default_factory=list)


def random_network_dict(rng: np.random.Generator, sizes: list[int], signed: bool) -> dict:
    """Network in `network_from_dict` form, drawn like tests/conftest.random_network."""
    matrices = []
    for l in range(len(sizes) - 1):
        shape = (sizes[l + 1], sizes[l])
        mat = rng.uniform(0.1, 2.0, shape)
        if signed:
            mat *= rng.choice([-1.0, 1.0], size=shape)
        matrices.append(mat.tolist())
    return {
        "layer_sizes": list(sizes),
        "gain_matrices": matrices,
        "power_budgets": rng.uniform(0.5, 4.0, sum(sizes[1:-1])).tolist(),
        "source_power": float(rng.uniform(0.5, 4.0)),
    }


def _rel_diff(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# cli_small
# ---------------------------------------------------------------------------

# (config, exceptional layer) for the `bounds` jobs.
_BOUNDS_CONFIGS = [("chain", 1), ("diamond", 1), ("three_layer", 2), ("wide_bottleneck_base", 2)]
# Exact arguments of demos/07_sweep_experiments.py; sweep-n uses a short grid
# because the demo's 2..50 grid alone would take 84 ms and set the p90.
_SWEEP_ARGS = {
    "sweep-ps": [
        "sweep-ps", "--network", "three_layer.json", "--layer", "2",
        "--grid", "1,3.16,10,31.6,100,316,1000,3162,10000,31623,100000",
    ],
    "sweep-delta": [
        "sweep-delta", "--network", "three_layer.json", "--layer", "2",
        "--grid", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
    ],
    "sweep-n": [
        "sweep-n", "--network", "wide_bottleneck_base.json",
        "--grid", "2,3,4,5,6,7,8", "--relay-budget", "2",
    ],
}
_DEMO_FILES = {"sweep-ps": "sweep_source_power.csv", "sweep-delta": "sweep_margin.csv"}
_CLI_CYCLES = 8
# Each sweep runs twice per cycle (6 of 22 jobs), so the p90 falls where the
# slower sweeps overlap instead of in the gap between two job classes.
_SWEEP_WEIGHT = 2


def cli_classes() -> dict[str, list[str]]:
    """Job class name -> CLI argv (network paths relative to configs/, no --out)."""
    classes = {}
    for cfg, layer in _BOUNDS_CONFIGS:
        for scheme in ("generalized", "full_power"):
            for fmt in ("csv", "json"):
                classes[f"bounds-{cfg}-{scheme}.{fmt}"] = [
                    "bounds", "--network", f"{cfg}.json", "--layer", str(layer),
                    "--scheme", scheme, "--format", fmt,
                ]
    for name, argv in _SWEEP_ARGS.items():
        classes[f"{name}.csv"] = list(argv)
    return classes


def absolute_argv(argv: list[str]) -> list[str]:
    return [str(CONFIGS / a) if a.endswith(".json") else a for a in argv]


def make_cli_small(seed: int, out_dir: Path) -> Workload:
    classes = cli_classes()
    names = sorted(classes)
    cycle = [n for n in names for _ in range(_SWEEP_WEIGHT if n.startswith("sweep") else 1)]
    rng = np.random.default_rng([seed, _CLI_TAG])
    order = [cycle[i] for _ in range(_CLI_CYCLES) for i in rng.permutation(len(cycle))]
    refs = {name: (REFS / "cli" / name).read_bytes() for name in names}
    demo = {
        f"{name}.csv": (DEMO_OUTPUT / fname).read_bytes() for name, fname in _DEMO_FILES.items()
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    counter = itertools.count()

    def collect(result):
        code, path = result
        try:
            return code, path.read_bytes()
        except OSError:
            return code, None
        finally:
            path.unlink(missing_ok=True)

    def make_job(name: str) -> Job:
        argv = absolute_argv(classes[name])

        def run():
            # A fresh file per job: on ext4, truncating a file that already
            # exists forces a flush on close and adds milliseconds of jitter.
            path = out_dir / f"{next(counter)}-{name}"
            try:
                code = cli.main(argv + ["--out", str(path)])
            except SystemExit as exc:  # argparse usage errors exit this way
                code = exc.code
            return code, path

        def check(output):
            code, data = output
            if code != 0:
                return f"exit code {code}"
            if data is None:
                return "no output file"
            if data != refs[name]:
                return "output differs from the reference"
            if name in demo and data != demo[name]:
                return "output differs from demos/output"
            return None

        return Job(
            cls=name, run=run, check=check, label=" ".join(classes[name]), collect=collect
        )

    jobs = [make_job(name) for name in order]

    def cleanup():
        for path in out_dir.glob("*"):
            path.unlink()
        out_dir.rmdir()

    return Workload("cli_small", order, jobs, cleanup=cleanup)


# ---------------------------------------------------------------------------
# analyze_deep
# ---------------------------------------------------------------------------

ANALYZE_SIZES = [1] + [16] * 5 + [1]  # L = 6 hops, W = 16, 80 relays


def analyze_pool_input(index: int) -> dict:
    rng = np.random.default_rng([_ANALYZE_TAG, index])
    net = random_network_dict(rng, ANALYZE_SIZES, signed=False)
    layer = int(rng.integers(1, len(ANALYZE_SIZES) - 1))
    return {"pool": index, "network": net, "layer": layer}


def analyze_job(inp: dict) -> dict:
    net = network.network_from_dict(inp["network"])
    full = schemes.full_power_gains(net)
    spec = network.RegimeSpec(exceptional_layer=inp["layer"])
    matched, params = schemes.matched_gains(net, spec)
    feasibility = power.check_feasible(net, full)
    report = bounds.bounds_report(net, spec, matched, params, scheme="generalized")
    return {
        "exact_ok": feasibility.exact_ok,
        "snr": report.snr,
        "achieved": report.achieved_rate,
        "lower": report.lower_bound,
        "upper": report.upper_bound,
    }


def check_analyze(out: dict, ref_snr: float) -> str | None:
    if not out["exact_ok"]:
        return "full-power gains violate the exact power budget"
    if not out["lower"] - 1e-9 <= out["achieved"] <= out["upper"] + 1e-9:
        return f"rate {out['achieved']} outside [{out['lower']}, {out['upper']}]"
    if _rel_diff(out["snr"], ref_snr) > 1e-9:
        return f"snr {out['snr']!r} differs from reference {ref_snr!r}"
    return None


def _pool_picks(seed: int, tag: int) -> list[int]:
    rng = np.random.default_rng([seed, tag])
    return [int(i) for i in rng.choice(POOL_SIZE, size=INPUTS_PER_RUN, replace=False)]


def load_refs(name: str) -> dict:
    with open(REFS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def make_analyze_deep(seed: int) -> Workload:
    refs = load_refs("analyze_deep")["snr"]
    inputs = [analyze_pool_input(i) for i in _pool_picks(seed, _ANALYZE_TAG)]

    def make_job(inp):
        ref = refs[inp["pool"]]
        return Job(
            cls="analyze",
            run=lambda: analyze_job(inp),
            check=lambda out: check_analyze(out, ref),
            label=f"pool network {inp['pool']}",
        )

    return Workload("analyze_deep", inputs, [make_job(inp) for inp in inputs])


# ---------------------------------------------------------------------------
# optimize_small
# ---------------------------------------------------------------------------

OPTIMIZE_SIZES = [1, 4, 4, 1]  # 3 hops, 8 relays


def optimize_pool_input(index: int) -> dict:
    rng = np.random.default_rng([_OPTIMIZE_TAG, index])
    return {"pool": index, "network": random_network_dict(rng, OPTIMIZE_SIZES, signed=False)}


def optimize_job(net) -> dict:
    gains, snr = optimize.optimize_gains(net, optimize.OptimizerConfig(restarts=2, seed=0))
    return {"snr": snr, "gains": [arr.tolist() for arr in gains.layers]}


def scheme_snrs(net) -> list[float]:
    """Destination SNR of every closed-form start the optimizer is given (C08)."""
    snrs = [bounds.destination_snr(net, schemes.full_power_gains(net))]
    for layer in range(1, net.num_layers):
        try:
            gains, _ = schemes.matched_gains(net, network.RegimeSpec(exceptional_layer=layer))
        except ValueError:
            continue
        snrs.append(bounds.destination_snr(net, gains))
    return snrs


def check_optimize(out: dict, starts: list[float], ref_snr: float) -> str | None:
    snr = out["snr"]
    if any(snr < s - 1e-9 for s in starts):
        return f"snr {snr!r} below a scheme start {max(starts)!r}"
    if snr < ref_snr * (1.0 - 1e-9):
        return f"snr {snr!r} below reference {ref_snr!r}"
    return None


def make_optimize_small(seed: int) -> Workload:
    refs = load_refs("optimize_small")["snr"]
    inputs = [optimize_pool_input(i) for i in _pool_picks(seed, _OPTIMIZE_TAG)]

    def make_job(inp):
        net = network.network_from_dict(inp["network"])
        starts = scheme_snrs(net)
        ref = refs[inp["pool"]]
        return Job(
            cls="optimize",
            run=lambda: optimize_job(net),
            check=lambda out: check_optimize(out, starts, ref),
            label=f"pool network {inp['pool']}",
        )

    return Workload("optimize_small", inputs, [make_job(inp) for inp in inputs])


# ---------------------------------------------------------------------------
# simulate_wide
# ---------------------------------------------------------------------------

SIMULATE_SIZES = [1, 16, 16, 1]  # two wide relay layers, 32 relays
SIMULATE_POOL = 64  # pool networks
SIMULATE_SEEDS = 16  # simulation seeds per pool network
SIMULATE_NETWORKS = 4  # pool networks per run
SIMULATE_SAMPLES = 2**15  # one block


def simulate_pool_network(index: int) -> dict:
    """Signed network with signed gains inside the safe boxes (the C03 recipe)."""
    rng = np.random.default_rng([_SIMULATE_TAG, index])
    net_dict = random_network_dict(rng, SIMULATE_SIZES, signed=True)
    net = network.network_from_dict(net_dict)
    layers = []
    for layer in range(1, net.num_layers):
        limits = np.array(
            [power.max_safe_gain(net, network.NodeId(layer, i))
             for i in range(net.layer_sizes[layer])]
        )
        signs = rng.choice([-1.0, 1.0], size=limits.shape)
        layers.append((rng.uniform(0.0, 1.0, limits.shape) * signs * limits).tolist())
    return {"pool": index, "network": net_dict, "gains": layers}


def simulate_case(pool: int, seed_index: int) -> int:
    """Reference index of a job; also its simulation seed."""
    return pool * SIMULATE_SEEDS + seed_index


def simulate_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, _SIMULATE_TAG])
    pools = [int(p) for p in rng.choice(SIMULATE_POOL, SIMULATE_NETWORKS, replace=False)]
    cases = [[p, s] for p in pools for s in range(SIMULATE_SEEDS)]
    return {
        "networks": [simulate_pool_network(p) for p in pools],
        "jobs": [cases[i] for i in rng.permutation(len(cases))],
    }


def simulate_job(net, gains, moments, sim_seed: int):
    config = montecarlo.SimConfig(samples=SIMULATE_SAMPLES, seed=sim_seed, workers=1)
    report = montecarlo.simulate(net, gains, config)
    return report, montecarlo.agreement_check(report, moments, z_threshold=4.0)


def simulate_digest(report) -> list[float]:
    """Source coefficient and the sum and sum of squares of the transmit powers."""
    powers = [report.transmit_power[k] for k in sorted(report.transmit_power)]
    return [report.source_coeff, math.fsum(powers), math.fsum(p * p for p in powers)]


def agreement_failures(agreement) -> str | None:
    bad = [f"{c.quantity}@{c.node} z={c.z:.2f}" for c in agreement.checks if not c.ok]
    return ", ".join(bad) if bad else None


def check_simulate(out, ref: dict, notes: list[str], case: int) -> str | None:
    """Moments equal the reference's; the z=4 check passes unless it already
    failed for this case when the references were recorded."""
    report, agreement = out
    if any(_rel_diff(v, r) > 1e-9 for v, r in zip(simulate_digest(report), ref["digest"])):
        return "simulated moments differ from the reference"
    failed = agreement_failures(agreement)
    if failed is None:
        return None
    if ref["agreement_failures"] is None:
        return f"agreement check failed: {failed}"
    notes.append(f"case {case}: z=4 failure recorded with the references ({failed})")
    return None


def make_simulate_wide(seed: int) -> Workload:
    refs = load_refs("simulate_wide")["cases"]
    inputs = simulate_inputs(seed)
    notes: list[str] = []
    # analytic_moments runs once per network, in set-up.
    cases = {}
    for case in inputs["networks"]:
        net = network.network_from_dict(case["network"])
        gains = GainAssignment.from_layers(case["gains"])
        cases[case["pool"]] = (net, gains, montecarlo.analytic_moments(net, gains))

    def make_job(pool, seed_index):
        net, gains, moments = cases[pool]
        case = simulate_case(pool, seed_index)
        return Job(
            cls="simulate",
            run=lambda: simulate_job(net, gains, moments, case),
            check=lambda out: check_simulate(out, refs[case], notes, case),
            label=f"pool network {pool}, simulation seed {case}",
        )

    jobs = [make_job(p, s) for p, s in inputs["jobs"]]
    return Workload(
        "simulate_wide", inputs, jobs, samples_per_job=SIMULATE_SAMPLES, notes=notes
    )


WORKLOADS = ("cli_small", "analyze_deep", "optimize_small", "simulate_wide")


def make_workload(name: str, seed: int, scratch: Path) -> Workload:
    """Build a workload's inputs and jobs; scratch is a private output directory."""
    if name == "cli_small":
        return make_cli_small(seed, scratch / f"cli-{os.getpid()}")
    if name == "analyze_deep":
        return make_analyze_deep(seed)
    if name == "optimize_small":
        return make_optimize_small(seed)
    if name == "simulate_wide":
        return make_simulate_wide(seed)
    raise ValueError(f"unknown workload {name!r}")
