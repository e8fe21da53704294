"""Record the reference outputs the benchmark checks jobs against.

    python3 perfbench/record_refs.py

Writes refs/cli/<job class> (the bytes each CLI job writes), the
destination SNR of every pool network of analyze_deep and optimize_small,
and a digest of every simulate_wide case.  Run
it only on a commit whose outputs are trusted: the benchmark then holds
every later commit to these values.  Takes about six minutes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from anclab import cli, montecarlo, network  # noqa: E402
from anclab.gains import GainAssignment  # noqa: E402


def record_cli() -> None:
    out = workloads.REFS / "cli"
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in workloads.cli_classes().items():
            path = Path(tmp) / name
            code = cli.main(workloads.absolute_argv(argv) + ["--out", str(path)])
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            (out / name).write_bytes(path.read_bytes())


def write_refs(name: str, data: dict) -> None:
    with open(workloads.REFS / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0)
        fh.write("\n")


def record_pool(name: str, snr_of) -> None:
    snrs = [snr_of(i) for i in range(workloads.POOL_SIZE)]
    write_refs(name, {"pool_size": workloads.POOL_SIZE, "snr": snrs})


def analyze_snr(index: int) -> float:
    inp = workloads.analyze_pool_input(index)
    out = workloads.analyze_job(inp)
    reason = workloads.check_analyze(out, out["snr"])
    if reason is not None:
        raise SystemExit(f"analyze pool network {index}: {reason}")
    return out["snr"]


def optimize_snr(index: int) -> float:
    net = network.network_from_dict(workloads.optimize_pool_input(index)["network"])
    out = workloads.optimize_job(net)
    reason = workloads.check_optimize(out, workloads.scheme_snrs(net), out["snr"])
    if reason is not None:
        raise SystemExit(f"optimize pool network {index}: {reason}")
    return out["snr"]


def record_simulate() -> None:
    """Moment digest and z=4 agreement outcome of every (network, seed) case.

    The agreement check is statistical, so some cases fail it even when the
    simulator is right; they are recorded, printed and listed in README.md.
    """
    cases = []
    for pool in range(workloads.SIMULATE_POOL):
        data = workloads.simulate_pool_network(pool)
        net = network.network_from_dict(data["network"])
        gains = GainAssignment.from_layers(data["gains"])
        moments = montecarlo.analytic_moments(net, gains)
        for seed_index in range(workloads.SIMULATE_SEEDS):
            case = workloads.simulate_case(pool, seed_index)
            report, agreement = workloads.simulate_job(net, gains, moments, case)
            failures = workloads.agreement_failures(agreement)
            if failures is not None:
                print(f"simulate case {case} (pool network {pool}, analytic snr "
                      f"{moments['snr']:.3g}): z=4 check fails: {failures}")
            cases.append({
                "digest": workloads.simulate_digest(report),
                "agreement_failures": failures,
            })
    write_refs("simulate_wide", {"samples": workloads.SIMULATE_SAMPLES, "cases": cases})


if __name__ == "__main__":
    record_cli()
    record_pool("analyze_deep", analyze_snr)
    record_pool("optimize_small", optimize_snr)
    record_simulate()
    print(f"wrote references under {workloads.REFS}")
