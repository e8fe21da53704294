"""Report outputs stay byte-identical to the goldens in tests/data.

The CLI cases cover outputs that no other check pins: the simulate CSV and
JSON, the optimize JSON of every shipped config, and the optimizer column of
bounds.  The feasibility report is written
through the library, once feasible and once violating both conditions.
"""

import json
from pathlib import Path

import pytest

from anclab import GainAssignment, RegimeSpec, check_feasible, load_network, matched_gains
from anclab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DATA = Path(__file__).resolve().parent / "data"

CLI_CASES = {
    f"simulate-{cfg}.{fmt}": [
        "simulate", "--network", str(CONFIGS / f"{cfg}.json"), "--scheme", "generalized",
        "--layer", str(layer), "--samples", "40000", "--seed", "3", "--format", fmt,
    ]
    for cfg, layer in (("chain", 1), ("three_layer", 2))
    for fmt in ("csv", "json")
}
CLI_CASES.update(
    {
        f"optimize-{cfg}.json": [
            "optimize", "--network", str(CONFIGS / f"{cfg}.json"), "--restarts", "2", "--seed", "5",
        ]
        for cfg in ("chain", "diamond", "three_layer", "wide_bottleneck_base")
    }
)
CLI_CASES.update(
    {
        f"bounds-optimizer-three_layer.{fmt}": [
            "bounds", "--network", str(CONFIGS / "three_layer.json"), "--layer", "2",
            "--scheme", "optimizer", "--restarts", "2", "--seed", "1", "--format", fmt,
        ]
        for fmt in ("csv", "json")
    }
)


def feasibility_outputs(name):
    if name == "three_layer":
        net = load_network(str(CONFIGS / "three_layer.json"))
        gains, _ = matched_gains(net, RegimeSpec(exceptional_layer=2))
    else:
        net = load_network(str(CONFIGS / "chain.json"))
        gains = GainAssignment.from_layers([[2.0]])
    report = check_feasible(net, gains)
    return {
        f"feasibility-{name}.csv": report.to_csv(),
        f"feasibility-{name}.json": json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
    }


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CLI_CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", ["three_layer", "chain_infeasible"])
def test_feasibility_report_matches_golden(name):
    for filename, text in feasibility_outputs(name).items():
        assert text.encode() == (DATA / filename).read_bytes(), filename
