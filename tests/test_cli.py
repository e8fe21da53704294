import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anclab import (
    GainAssignment,
    RegimeSpec,
    SimConfig,
    agreement_check,
    analytic_moments,
    anc_rate,
    build_network,
    destination_snr,
    full_power_gains,
    load_network,
    matched_gains,
    rate_lower_bound,
    rate_upper_bound,
    save_gains,
    save_network,
    simulate,
)
from anclab.cli import main
from anclab.presets import (
    asymmetric_three_layer,
    chain_network,
    replicate_last_relay_layer,
    rescale_to_delta,
    wide_bottleneck_network,
)
from anclab.report import csv_table
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


def test_simulate_warning_names_violating_relays_layer_major(tmp_path, capsys):
    # Relay 1:0 keeps its budget; 1:1 breaks it outright and drives 2:0 over
    # its own, while 2:1 stays inside.
    config = str(CONFIGS / "three_layer.json")
    gains_file = tmp_path / "gains.json"
    gains = GainAssignment.from_layers([[0.1, 3.0], [5.0, 0.1]])
    save_gains(load_network(config), gains, str(gains_file))
    out = tmp_path / "r.csv"
    args = ["simulate", "--network", config, "--gains", str(gains_file),
            "--samples", "20000", "--seed", "4", "--out", str(out)]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: exact power constraint violated at 1:1, 2:0\n"
    assert captured.out == ""


def test_optimize_on_one_hop_network(tmp_path, capsys):
    # No relay, so no gain to choose: the empty assignment and its SNR.
    net = chain_network(hops=1)
    path = tmp_path / "hop.json"
    save_network(net, str(path))
    assert main(["optimize", "--network", str(path), "--restarts", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"beta": {}, "rate": 0.5, "snr": 1.0}
    assert destination_snr(net, GainAssignment(layers=())) == 1.0


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


def _reference_sweep(command, base, grid, layer, relay_budget) -> str:
    """A sweep's CSV computed straight from the bound functions, row by row."""
    rows = []
    for value in grid:
        if command == "sweep-ps":
            spec = RegimeSpec(exceptional_layer=layer)
            budgets = [b for chunk in base.relay_budgets for b in chunk]
            net = build_network(base.layer_sizes, base.gain_matrices, budgets, value)
            matched, c1 = matched_gains(net, spec)
            rate_matched = anc_rate(destination_snr(net, matched))
            rate_full = anc_rate(destination_snr(net, full_power_gains(net)))
            upper = rate_upper_bound(net, spec)
            lower = rate_lower_bound(net, spec, c1)
            gaps = [upper - rate_matched, upper - rate_full]
            rows.append([value, rate_matched, rate_full, upper, lower, *gaps])
        elif command == "sweep-n":
            net = replicate_last_relay_layer(base, value, relay_budget)
            spec = RegimeSpec(exceptional_layer=net.num_layers - 1)
            matched, _ = matched_gains(net, spec)
            rate = anc_rate(destination_snr(net, matched))
            upper = rate_upper_bound(net, spec)
            rows.append([value, rate, upper, upper - rate])
        else:
            net = rescale_to_delta(base, layer, value)
            spec = RegimeSpec(exceptional_layer=layer)
            _, c1 = matched_gains(net, spec)
            upper = rate_upper_bound(net, spec)
            lower = rate_lower_bound(net, spec, c1)
            rows.append([value, upper, lower, upper - lower])
    header = {
        "sweep-ps": "source_power,rate_matched,rate_full_power,upper_bound,lower_bound,"
        "gap_matched,gap_full_power",
        "sweep-n": "n,rate,upper_bound,gap",
        "sweep-delta": "delta,upper_bound,lower_bound,gap",
    }[command]
    return csv_table(header.split(","), rows)


_SWEEP_CASES = [
    (command, config.stem, layer)
    for config in sorted(CONFIGS.glob("*.json"))
    for command in ("sweep-ps", "sweep-delta")
    for layer in range(1, load_network(str(config)).num_layers)
] + [("sweep-n", config.stem, None) for config in sorted(CONFIGS.glob("*.json"))]

_SWEEP_VALUES = {
    "sweep-ps": st.floats(1e-6, 1e12),
    "sweep-n": st.integers(1, 40),
    "sweep-delta": st.floats(1e-12, 1e3),
}


@pytest.mark.parametrize("command, config, layer", _SWEEP_CASES)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sweeps_match_bound_functions(command, config, layer, data):
    values = data.draw(st.lists(_SWEEP_VALUES[command], min_size=1, max_size=5, unique=True))
    grid = sorted(values, reverse=data.draw(st.booleans()))
    relay_budget = data.draw(st.floats(0.1, 10.0))
    path = str(CONFIGS / f"{config}.json")
    argv = [command, "--network", path, "--grid", ",".join(map(repr, grid))]
    if command == "sweep-n":
        argv += ["--relay-budget", repr(relay_budget)]
    else:
        argv += ["--layer", str(layer)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assume(code != 1)
    assert code == 0 and err.getvalue() == ""
    reference = _reference_sweep(command, load_network(path), grid, layer, relay_budget)
    assert out.getvalue() == reference


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
    [
        ("sweep-ps", "source power must be strictly positive, got -1.0"),
        ("sweep-delta", "margin must be positive"),
    ],
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



def test_sweep_n_on_one_hop_network_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "one_hop.json"
    save_network(chain_network(hops=1), str(path))
    assert main(["sweep-n", "--network", str(path), "--grid", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: network has no relay layer to replicate\n"

@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--layer", "1", "--restarts", "0"],
        ["bounds", "--layer", "1", "--seed", "-1"],
        ["bounds", "--layer", "1", "--scheme", "full_power", "--seed", "3"],
        ["bounds", "--layer", "1", "--restarts", "5"],
        ["simulate", "--gains", "GAINS", "--scheme", "full_power", "--layer", "1"],
        ["simulate", "--gains", "GAINS", "--layer", "7"],
        ["simulate", "--gains", "GAINS", "--layer", "1"],
        ["simulate", "--layer", "1"],
        ["simulate", "--scheme", "full_power", "--layer", "1"],
    ],
    ids=[
        "bounds-restarts-0",
        "bounds-seed-negative",
        "bounds-full-power-seed",
        "bounds-restarts-5",
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
            "cannot load network CANCEL: received power at 2:0 is 0.0; "
            "it and its reciprocal must be finite",
        ),
        (
            ["sweep-ps", "--network", "THREE_LAYER", "--layer", "2", "--grid", "1,abc"],
            "bad grid '1,abc': could not convert string to float: 'abc'",
        ),
        (
            ["sweep-ps", "--network", "THREE_LAYER", "--layer", "2", "--grid", ","],
            "grid is empty",
        ),
        (
            ["simulate", "--network", "THREE_LAYER", "--scheme", "full_power", "--workers", "65"],
            "workers must be at most 64, got 65",
        ),
        (
            ["sweep-delta", "--network", "THREE_LAYER", "--layer", "2", "--grid", "1e-310,1e-2"],
            "margin delta = 1e-310 rescales powers out of float range "
            "around exceptional layer 2",
        ),
    ],
    ids=[
        "simulate-scheme-without-layer",
        "sweep-n-fractional-count",
        "sweep-delta-zero-power",
        "unparsable-grid",
        "empty-grid",
        "simulate-workers-above-limit",
        "sweep-delta-margin-reciprocal-overflows",
    ],
)
def test_input_check_is_one_error_line(argv, message, tmp_path, capsys):
    files = {"THREE_LAYER": str(CONFIGS / "three_layer.json"), "CANCEL": str(tmp_path / "c.json")}
    Path(files["CANCEL"]).write_text(json.dumps(cancelling_destination_network()))
    assert main([files.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.replace('CANCEL', files['CANCEL'])}\n"


def _network_file(path, sizes, matrices, budgets, source_power) -> str:
    data = {
        "layer_sizes": sizes,
        "gain_matrices": matrices,
        "power_budgets": budgets,
        "source_power": source_power,
    }
    path.write_text(json.dumps(data))
    return str(path)


_DIAMOND = [[[1.0], [1.0]], [[1.0, 1.0]]]
_ONES_1221 = [[[1.0], [1.0]], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0]]]
# 1:0 receives 1e-300, so the margin over all receiving layers is about 1e300.
_CHAIN_1E300 = ([1, 1, 1, 1], [[[1.0]]] * 3, [1.0, 1.0], 1e-300)
# Each relay receives 1.5e308, so layer 1's received powers sum past float range.
_DIAMOND_SUM_OVERFLOWS = ([1, 2, 1], _DIAMOND, [1.0, 1.0], 1.5e308)
# The same sum overflows, and at layer 1, where (1 + delta) ** 0 = 1, the lower
# bound's (1 - 1/a) * s once gave 0 * inf = NaN.
_DIAMOND_SUM_NAN = ([1, 2, 1], [[[1.0], [1.0]], [[1e300, 1e300]]], [1e-300, 1e-300], 1.5e308)
_SUM_OVERFLOWS = (
    "the received powers of layer 1 sum past float range; the lower bound is not computed there"
)
# 2:0's budget of 1e-12 sets a margin of about 3.9e11; at source power 1e300,
# (1 + delta) * P_R of 1:0 overflows.
_WEAK_LAST_RELAY = (
    [1, 1, 1, 1],
    [[[0.1]], [[1.950588220699942]], [[-1.6086063442795737]]],
    [1.3174032014860635, 1e-12],
    63.20134844142824,
)


@pytest.mark.parametrize(
    "network, argv, message",
    [
        (
            ([1, 2, 1], _DIAMOND, [1e308, 1e308], 1.0),
            ["bounds", "--layer", "1"],
            "cannot load network NET: received power at 2:0 is inf; "
            "it and its reciprocal must be finite",
        ),
        (
            None,
            ["sweep-n", "--grid", "2", "--relay-budget", "1e308"],
            "received power at 3:0 is inf; it and its reciprocal must be finite",
        ),
        (
            ([1, 1, 1], [[[2.0]], [[1.0]]], [1.0], 1.0),
            ["sweep-ps", "--layer", "1", "--grid", "1,1e308"],
            "received power at 1:0 is inf; it and its reciprocal must be finite",
        ),
        (
            ([1, 2, 1], _DIAMOND, [1.0, 1.0], 1e160),
            ["simulate", "--scheme", "full_power", "--samples", "1000"],
            "moment sums overflow float64; powers too large to simulate",
        ),
        (
            ([1, 2, 1], _DIAMOND, [1.0, 1.0], 1e308),
            ["simulate", "--scheme", "full_power", "--samples", "1000"],
            "moment sums overflow float64; powers too large to simulate",
        ),
        (
            ([1, 1], [[[-1.6383928415792068]]], [], 1e-200),
            ["simulate", "--scheme", "full_power", "--samples", "64"],
            "source power 1e-200 too small to simulate: n * P_S**2 underflows",
        ),
        (
            ([1, 2, 2, 1], _ONES_1221, [1e-307] * 4, 1.0),
            ["bounds", "--layer", "1"],
            "c3 = 1 + c2 / (c1**2 * s) is out of float range at c1 = 1.4142135623730951e-307",
        ),
        (
            _CHAIN_1E300,
            ["bounds", "--layer", "1"],
            "(1 + delta) ** 2 overflows at margin delta = 9.999999999999999e+299",
        ),
        (
            _CHAIN_1E300,
            ["bounds", "--layer", "2"],
            "(1 + delta) ** 2 overflows at margin delta = 9.999999999999999e+299",
        ),
        (
            _WEAK_LAST_RELAY,
            ["sweep-ps", "--layer", "2", "--grid", "1e-300,1e300"],
            "safe gains sqrt(P / ((1 + delta) * P_R)) of layer 1 are out of float range "
            "at margin delta = 386456348079.79614",
        ),
        (
            ([1, 1, 1], [[[1.0]], [[1e150]]], [1.0], 1e-300),
            ["bounds", "--layer", "1"],
            "c1 = min_j |g_j| / P_R_j * sqrt(P_j / (1 + 1/P_R_j)) is out of float range "
            "at exceptional layer 1",
        ),
        (_DIAMOND_SUM_OVERFLOWS, ["bounds", "--layer", "1"], _SUM_OVERFLOWS),
        (_DIAMOND_SUM_NAN, ["bounds", "--layer", "1", "--format", "json"], _SUM_OVERFLOWS),
        (_DIAMOND_SUM_NAN, ["bounds", "--layer", "1"], _SUM_OVERFLOWS),
        (_DIAMOND_SUM_NAN, ["sweep-ps", "--layer", "1", "--grid", "1e308,1.5e308"], _SUM_OVERFLOWS),
    ],
    ids=[
        "bounds-budgets-1e308",
        "sweep-n-budget-1e308",
        "sweep-ps-1e308",
        "simulate-source-1e160",
        "simulate-source-1e308",
        "simulate-source-1e-200",
        "bounds-budgets-1e-307",
        "bounds-margin-1e300-layer-1",
        "bounds-margin-1e300-layer-2",
        "sweep-ps-safe-box-overflow",
        "bounds-c1-overflow",
        "bounds-power-sum-overflows",
        "bounds-json-power-sum-overflows-at-layer-1",
        "bounds-csv-power-sum-overflows-at-layer-1",
        "sweep-ps-power-sum-overflows-at-layer-1",
    ],
)
def test_out_of_range_powers_are_one_error_line(network, argv, message, tmp_path, capsys):
    # Each once printed inf rates, NaN cells or RuntimeWarnings, or ended in a
    # traceback; any warning now fails the test.
    if network is None:
        path = str(CONFIGS / "wide_bottleneck_base.json")
    else:
        path = _network_file(tmp_path / "net.json", *network)
    assert main(argv + ["--network", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.replace('NET', path)}\n"


def test_overflowing_power_sum_gives_a_finite_upper_bound(tmp_path, capsys):
    # The sum of layer 1's received powers overflows: sweep-n once printed a
    # RuntimeWarning and upper_bound and gap as inf.
    path = _network_file(tmp_path / "net.json", *_DIAMOND_SUM_OVERFLOWS)
    argv = ["sweep-n", "--grid", "2,3", "--relay-budget", "1", "--network", path]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "n,rate,upper_bound,gap",
        "2,1.16096404744,512.369407863,511.208443816",
        "3,1.66096404744,512.661889113,511.000925066",
    ]
    for n in (2, 3):
        net = replicate_last_relay_layer(load_network(path), n, 1.0)
        upper = rate_upper_bound(net, RegimeSpec(exceptional_layer=1))
        assert upper == pytest.approx(0.5 * (math.log2(n) + math.log2(1.5e308)), rel=1e-15)


def test_overflowing_c1_term_that_is_not_the_min_is_silent(tmp_path, capsys):
    # At source power 1e-300, |g| / P_R of 1:1 overflows to inf, but 1:0's
    # term is the min, so c1 and every row are finite and printed, unwarned.
    network = ([1, 2, 1], [[[-0.6258], [0.5545]], [[0.2, 1e150]]], [1.0, 1.0], 1.0)
    path = _network_file(tmp_path / "net.json", *network)
    argv = ["sweep-ps", "--layer", "1", "--grid", "1e-300,1", "--network", path]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "source_power,rate_matched,rate_full_power,upper_bound,lower_bound,"
        "gap_matched,gap_full_power",
        "1e-300,4.87016664731e-304,2.21792902448e-301,5.04291086804e-301,"
        "3.36088340294e-302,5.0380407014e-301,2.82498184356e-301",
        "1,0.000356563328454,0.19338905998,0.382383637304,0.0242018073994,"
        "0.382027073975,0.188994577324",
    ]


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


def test_degenerate_noise_estimate_is_one_error_line(tmp_path, capsys):
    # 32 bottleneck relays at full power: a 2**15-sample run can estimate a
    # negative destination noise, which is refused, never shown as a rate.
    path = tmp_path / "wide.json"
    save_network(wide_bottleneck_network(32), str(path))
    argv = ["simulate", "--network", str(path), "--scheme", "full_power", "--samples", "32768"]
    refused = []
    for seed in range(20):
        code = main(argv + ["--seed", str(seed)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 1:
            refused.append(seed)
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: degenerate destination noise estimate ")
    assert refused == [10, 13, 15]
