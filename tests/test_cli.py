import json
from pathlib import Path

import pytest

from anclab import (
    GainAssignment,
    SimConfig,
    agreement_check,
    analytic_moments,
    save_gains,
    save_network,
    simulate,
)
from anclab.cli import main
from anclab.presets import asymmetric_three_layer, chain_network, wide_bottleneck_network
from conftest import cancelling_destination_network, near_cancelling_network

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def three_layer_file(tmp_path):
    path = tmp_path / "net.json"
    save_network(asymmetric_three_layer(), str(path))
    return str(path)


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    save_network(chain_network(hops=2), str(path))
    return str(path)


def test_bounds_csv(three_layer_file, tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = main(
        ["bounds", "--network", three_layer_file, "--layer", "2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scheme,snr,achieved_rate,upper_bound,lower_bound")
    assert lines[1].startswith("generalized,")


def test_bounds_json_sandwich(three_layer_file, capsys):
    code = main(
        ["bounds", "--network", three_layer_file, "--layer", "2", "--format", "json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lower_bound"] - 1e-9 <= data["achieved_rate"] <= data["upper_bound"] + 1e-9


def test_bounds_optimizer_column(three_layer_file, capsys):
    code = main(
        [
            "bounds",
            "--network",
            three_layer_file,
            "--layer",
            "2",
            "--scheme",
            "optimizer",
            "--format",
            "json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["optimizer_rate"] >= data["lower_bound"] - 1e-9


def test_bounds_layer_out_of_range(three_layer_file, capsys):
    code = main(["bounds", "--network", three_layer_file, "--layer", "7"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bounds_destination_layer_rejected(three_layer_file, capsys):
    code = main(["bounds", "--network", three_layer_file, "--layer", "3"])
    assert code == 1


def test_invalid_network_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"layer_sizes": [1, 2, 1]}')
    code = main(["bounds", "--network", str(bad), "--layer", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"source_power": "100"}, "source_power: '100' is not a number"),
        ("abc", "a network must be a JSON object"),
        (5, "a network must be a JSON object"),
    ],
    ids=["string-source-power", "string", "number"],
)
def test_network_of_wrong_type_is_one_error_line(data, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    if isinstance(data, dict):
        data = {**json.loads((CONFIGS / "chain.json").read_text()), **data}
    bad.write_text(json.dumps(data))
    assert main(["bounds", "--network", str(bad), "--layer", "1"]) == 1
    assert capsys.readouterr().err == f"error: cannot load network {bad}: {message}\n"


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bounds"])  # missing required flags
    assert excinfo.value.code == 1


def test_simulate_pass_and_determinism(chain_file, tmp_path):
    gains_file = tmp_path / "gains.json"
    save_gains(chain_network(hops=2), GainAssignment.from_layers([[1.0]]), str(gains_file))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "simulate",
        "--network",
        chain_file,
        "--gains",
        str(gains_file),
        "--samples",
        "50000",
        "--seed",
        "11",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--workers", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_check_failure_exit_code(chain_file, tmp_path):
    gains_file = tmp_path / "gains.json"
    save_gains(chain_network(hops=2), GainAssignment.from_layers([[1.0]]), str(gains_file))
    code = main(
        [
            "simulate",
            "--network",
            chain_file,
            "--gains",
            str(gains_file),
            "--samples",
            "2000",
            "--seed",
            "1",
            "--z",
            "1e-6",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("z", ["nan", "inf", "-1", "0"])
def test_bad_z_threshold_rejected(chain_file, z, capsys):
    net = chain_network(hops=2)
    gains = GainAssignment.from_layers([[1.0]])
    report = simulate(net, gains, SimConfig(samples=1000, seed=1))
    with pytest.raises(ValueError, match="z_threshold"):
        agreement_check(report, analytic_moments(net, gains), z_threshold=float(z))
    code = main(
        ["simulate", "--network", chain_file, "--scheme", "full_power",
         "--samples", "1000", "--z", z]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: z_threshold") and len(captured.err.splitlines()) == 1


def test_simulate_flags_infeasible_gains(chain_file, tmp_path, capsys):
    gains_file = tmp_path / "gains.json"
    save_gains(chain_network(hops=2), GainAssignment.from_layers([[10.0]]), str(gains_file))
    code = main(
        [
            "simulate",
            "--network",
            chain_file,
            "--gains",
            str(gains_file),
            "--samples",
            "20000",
            "--seed",
            "4",
            "--format",
            "json",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 0  # agreement holds even though the budget is violated
    assert "violated" in capsys.readouterr().err
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["feasibility"]["exact_ok"] is False


def test_optimize_round_trips_into_simulate(chain_file, tmp_path):
    gains_out = tmp_path / "best.json"
    assert main(["optimize", "--network", chain_file, "--out", str(gains_out)]) == 0
    payload = json.loads(gains_out.read_text())
    assert set(payload) == {"beta", "rate", "snr"}
    code = main(
        [
            "simulate",
            "--network",
            chain_file,
            "--gains",
            str(gains_out),
            "--samples",
            "50000",
            "--seed",
            "2",
            "--out",
            str(tmp_path / "sim.csv"),
        ]
    )
    assert code == 0


def test_sweep_ps_columns_and_determinism(three_layer_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "sweep-ps",
        "--network",
        three_layer_file,
        "--layer",
        "2",
        "--grid",
        "10,100,1000",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == (
        "source_power,rate_matched,rate_full_power,upper_bound,lower_bound,"
        "gap_matched,gap_full_power"
    )
    assert len(lines) == 4


def test_sweep_n_gap_shrinks(tmp_path):
    base = tmp_path / "wide.json"
    save_network(wide_bottleneck_network(1), str(base))
    out = tmp_path / "n.csv"
    assert (
        main(
            [
                "sweep-n",
                "--network",
                str(base),
                "--grid",
                "5,10,20",
                "--relay-budget",
                "2",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "n,rate,upper_bound,gap"
    gaps = [float(l.split(",")[3]) for l in lines[1:]]
    assert gaps[0] > gaps[1] > gaps[2]


def test_sweep_delta_monotone(three_layer_file, tmp_path):
    out = tmp_path / "d.csv"
    assert (
        main(
            [
                "sweep-delta",
                "--network",
                three_layer_file,
                "--layer",
                "2",
                "--grid",
                "1e-1,1e-2,1e-3",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,upper_bound,lower_bound,gap"
    gaps = [float(l.split(",")[3]) for l in lines[1:]]
    assert gaps[0] > gaps[1] > gaps[2]


def test_non_monotone_grid_rejected(three_layer_file, capsys):
    code = main(
        ["sweep-ps", "--network", three_layer_file, "--layer", "2", "--grid", "10,5,100"]
    )
    assert code == 1


def test_shipped_configs_load():
    for name in ["three_layer.json", "wide_bottleneck_base.json", "chain.json", "diamond.json"]:
        assert (CONFIGS / name).exists(), name
        code = main(
            ["bounds", "--network", str(CONFIGS / name), "--layer", "1", "--out", "stdout"]
        )
        assert code == 0


def test_out_into_missing_directory(three_layer_file, tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "bounds.csv"
    code = main(["bounds", "--network", three_layer_file, "--layer", "2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("grid", ["inf", "nan", "10,inf", "10,100,nan"])
def test_non_finite_grid_rejected(three_layer_file, grid, capsys):
    code = main(["sweep-ps", "--network", three_layer_file, "--layer", "2", "--grid", grid])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err
    assert grid.split(",")[-1] in captured.err


@pytest.mark.parametrize(
    "command, message",
    [("sweep-ps", "source powers must be positive"), ("sweep-delta", "margins must be positive")],
    ids=["sweep-ps", "sweep-delta"],
)
def test_grid_with_leading_minus_reaches_validation(three_layer_file, command, message, capsys):
    code = main([command, "--network", three_layer_file, "--layer", "2", "--grid", "-1,2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_repeated_calls_keep_defaults(three_layer_file, capsys):
    # The parser is built once; a flag given in one call must not leak into the next.
    args = ["bounds", "--network", three_layer_file, "--layer", "2"]
    assert main(args + ["--format", "json"]) == 0
    assert capsys.readouterr().out.startswith("{")
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("scheme,")


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--restarts", "1"],
        ["sweep-ps", "--layer", "2", "--grid", "10"],
        ["sweep-n", "--grid", "2"],
        ["sweep-delta", "--layer", "2", "--grid", "0.1"],
    ],
    ids=lambda argv: argv[0],
)
def test_format_only_on_bounds_and_simulate(three_layer_file, argv, capsys):
    argv = argv[:1] + ["--network", three_layer_file] + argv[1:]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--format", "json"])
    assert excinfo.value.code == 1
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["-1,2", "10"])
def test_abbreviated_option_is_a_usage_error(three_layer_file, grid, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep-ps", "--network", three_layer_file, "--layer", "2", "--gri", grid])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "expected one argument" not in err


@pytest.mark.parametrize(
    "beta",
    [
        {"1:1": 0.5, "1:-1": 0.25},
        {"1:0": 0.5, "1:7": 0.25},
        {"1:0": 0.5, "01:0": 0.25, "1:1": 0.25},
        [0.5, 0.25],
        {"1:0": "0.5", "1:1": 0.25},
    ],
    ids=["negative-index", "index-past-layer", "relay-named-twice", "list", "string-gain"],
)
def test_bad_gain_file_is_one_error_line(beta, tmp_path, capsys):
    gains_file = tmp_path / "g.json"
    gains_file.write_text(json.dumps({"beta": beta}))
    argv = ["simulate", "--network", str(CONFIGS / "diamond.json"), "--gains", str(gains_file)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load gains") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("layer", ["0", "3"])  # three_layer.json has L = 3
@pytest.mark.parametrize(
    "argv",
    [
        ["bounds"],
        ["sweep-ps", "--grid", "10"],
        ["sweep-delta", "--grid", "0.1"],
        ["simulate", "--scheme", "generalized", "--samples", "1000"],
    ],
    ids=lambda argv: argv[0],
)
def test_layer_outside_relay_layers_is_one_error_line(argv, layer, capsys):
    network = str(CONFIGS / "three_layer.json")
    assert main(argv + ["--network", network, "--layer", layer]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: exceptional layer must be a relay layer in 1..2, got {layer}\n"


@pytest.mark.parametrize("grid", ["1e30", "1e12"])
def test_sweep_n_refuses_huge_relay_counts(grid, monkeypatch, capsys):
    def no_network(*args):
        raise AssertionError("a network was built")

    monkeypatch.setattr("anclab.cli.replicate_last_relay_layer", no_network)
    network = str(CONFIGS / "wide_bottleneck_base.json")
    assert main(["sweep-n", "--network", network, "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: relay counts must be at most 1000000, got {float(grid):g}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--layer", "1", "--restarts", "0"],
        ["bounds", "--layer", "1", "--seed", "-1"],
        ["simulate", "--gains", "GAINS", "--scheme", "full_power", "--layer", "1"],
        ["simulate", "--gains", "GAINS", "--layer", "7"],
        ["simulate", "--gains", "GAINS", "--layer", "1"],
        ["simulate", "--layer", "1"],
        ["simulate", "--scheme", "full_power", "--layer", "1"],
    ],
    ids=[
        "bounds-restarts-0",
        "bounds-seed-negative",
        "simulate-gains-and-scheme",
        "simulate-gains-with-bad-layer",
        "simulate-gains-with-layer",
        "simulate-neither-gains-nor-scheme",
        "simulate-full-power-with-layer",
    ],
)
def test_option_without_effect_is_rejected(argv, chain_file, tmp_path, capsys):
    gains = tmp_path / "gains.json"
    save_gains(chain_network(hops=2), GainAssignment.from_layers([[0.5]]), str(gains))
    argv = [str(gains) if a == "GAINS" else a for a in argv]
    try:
        code = main(argv + ["--network", chain_file])
    except SystemExit as exc:  # argparse usage errors exit this way
        code = exc.code
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert sum(line.startswith("error:") for line in captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["simulate", "--network", "THREE_LAYER", "--scheme", "generalized"],
            "--layer is required for scheme-based commands",
        ),
        (
            ["sweep-n", "--network", "THREE_LAYER", "--grid", "2.5"],
            "relay counts must be positive integers, got 2.5",
        ),
        (
            ["sweep-delta", "--network", "CANCEL", "--layer", "1", "--grid", "0.1"],
            "received power at 2:0 is zero; no rescaling reaches the margin",
        ),
    ],
    ids=["simulate-scheme-without-layer", "sweep-n-fractional-count", "sweep-delta-zero-power"],
)
def test_input_check_is_one_error_line(argv, message, tmp_path, capsys):
    files = {"THREE_LAYER": str(CONFIGS / "three_layer.json"), "CANCEL": str(tmp_path / "c.json")}
    save_network(cancelling_destination_network(), files["CANCEL"])
    assert main([files.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_full_power_simulation_ignores_matched_scheme(tmp_path, capsys):
    # The matched scheme with layer 1 is undefined here (1:0 is invisible at the
    # destination), but full-power gains do not depend on the layer.
    path = tmp_path / "near_cancel.json"
    save_network(near_cancelling_network(1e-14), str(path))
    argv = ["simulate", "--network", str(path), "--scheme", "full_power"]
    assert main(argv + ["--samples", "20000"]) == 0
    assert capsys.readouterr().err == ""
    # --layer has no effect on full-power gains, so it is rejected.
    assert main(argv + ["--layer", "1", "--samples", "20000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --layer applies to --scheme generalized, not to --scheme full_power\n"
    )
