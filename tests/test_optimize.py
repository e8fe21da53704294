import logging

import numpy as np
import pytest

import anclab.optimize
from anclab import (
    GainAssignment,
    NodeId,
    OptimizerConfig,
    RegimeSpec,
    anc_rate,
    destination_snr,
    full_power_gains,
    matched_gains,
    max_safe_gain,
    optimize_gains,
)
from anclab.presets import asymmetric_three_layer, chain_network, rescale_to_delta
from conftest import near_cancelling_network, random_network


def test_single_relay_chain_optimum_at_box_edge():
    net = chain_network(hops=2)
    gains, snr = optimize_gains(net, OptimizerConfig(restarts=2, seed=0))
    b_max = max_safe_gain(net, NodeId(1, 0))
    assert abs(gains.layers[0][0]) == pytest.approx(b_max, rel=1e-12)
    assert snr == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_one_hop_network_has_no_gain_to_optimize():
    net = chain_network(hops=1)
    gains, snr = optimize_gains(net, OptimizerConfig(restarts=2))
    assert gains == GainAssignment(layers=())
    assert snr == 1.0 == destination_snr(net, gains)


def test_never_below_scheme_seeds():
    rng = np.random.default_rng(61)
    for _ in range(15):
        net = random_network(rng, max_layers=4, max_width=4)
        best = 0.0
        for l in range(1, net.num_layers):
            try:
                g, _ = matched_gains(net, RegimeSpec(exceptional_layer=l))
            except ValueError:
                continue
            best = max(best, destination_snr(net, g))
        best = max(best, destination_snr(net, full_power_gains(net)))
        _, snr = optimize_gains(net, OptimizerConfig(restarts=2, seed=1))
        assert snr >= best - 1e-9


def test_iterates_stay_in_boxes():
    rng = np.random.default_rng(62)
    for _ in range(10):
        net = random_network(rng, max_layers=4, max_width=3)
        gains, _ = optimize_gains(net, OptimizerConfig(restarts=2, seed=2))
        for k in net.relays():
            assert abs(gains.layers[k.layer - 1][k.index]) <= max_safe_gain(net, k) * (1 + 1e-12)


def test_deterministic_for_fixed_seed():
    net = asymmetric_three_layer()
    g1, s1 = optimize_gains(net, OptimizerConfig(restarts=4, seed=9))
    g2, s2 = optimize_gains(net, OptimizerConfig(restarts=4, seed=9))
    assert s1 == s2
    for a, b in zip(g1.layers, g2.layers):
        assert np.array_equal(a, b)


def test_near_optimality_of_matched_scheme_in_high_snr():
    rng = np.random.default_rng(63)
    for _ in range(5):
        base = random_network(rng, max_layers=3, max_width=3, coherent=True)
        l = base.num_layers - 1
        net = rescale_to_delta(base, l, 1e-4)
        spec = RegimeSpec(exceptional_layer=l)
        gains, _ = matched_gains(net, spec)
        scheme_rate = anc_rate(destination_snr(net, gains))
        _, snr = optimize_gains(net, OptimizerConfig(restarts=2, seed=3))
        assert anc_rate(snr) - scheme_rate <= 0.05


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)


@pytest.mark.parametrize(
    "field, value",
    [("restarts", 1.5), ("seed", 1.5)],
)
def test_bad_config_field_named(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


def test_reported_snr_is_that_of_returned_gains():
    rng = np.random.default_rng(64)
    for _ in range(40):
        net = random_network(rng, max_layers=4, max_width=4)
        gains, snr = optimize_gains(net, OptimizerConfig(restarts=2, seed=4))
        assert snr == destination_snr(net, gains)


def test_unconverged_start_logs_warning(caplog, monkeypatch):
    net = asymmetric_three_layer()
    monkeypatch.setattr(anclab.optimize, "_MAX_SWEEPS", 1)
    with caplog.at_level(logging.WARNING, logger="anclab.optimize"):
        optimize_gains(net, OptimizerConfig())
    records = [r for r in caplog.records if r.name == "anclab.optimize"]
    starts = [r.args[0] for r in records]
    assert records and starts == sorted(set(starts))  # at most one warning per start
    assert all(r.levelno == logging.WARNING for r in records)
    start, iterations, previous, current = records[0].args
    assert iterations == 1 and previous < current
    assert records[0].getMessage() == (
        f"start {start} stopped at max_iterations=1 before converging: "
        f"SNR {previous!r} -> {current!r}"
    )
    caplog.clear()
    monkeypatch.undo()  # the default sweep count converges
    with caplog.at_level(logging.WARNING, logger="anclab.optimize"):
        optimize_gains(net, OptimizerConfig())
    assert not caplog.records


def test_each_start_logs_one_debug_line(caplog, capsys):
    net = asymmetric_three_layer()
    config = OptimizerConfig(restarts=3, seed=5)
    _, snr = optimize_gains(net, config)
    assert capsys.readouterr().err == ""  # DEBUG lines stay silent by default
    with caplog.at_level(logging.DEBUG, logger="anclab.optimize"):
        _, logged_snr = optimize_gains(net, config)
    assert logged_snr == snr
    records = [r for r in caplog.records if r.name == "anclab.optimize"]
    assert all(r.levelno == logging.DEBUG for r in records)
    # full power, one matched start per feasible exceptional layer, the restarts
    assert 1 + config.restarts < len(records) <= net.num_layers + config.restarts
    assert [r.args[0] for r in records] == list(range(len(records)))
    for record in records:
        start, sweeps, final = record.args
        assert 1 <= sweeps <= anclab.optimize._MAX_SWEEPS and final <= snr
        assert record.getMessage() == f"start {start}: {sweeps} sweeps, SNR {final!r}"
    assert max(r.args[2] for r in records) == snr


def test_matched_start_that_raises_is_skipped():
    # The matched scheme with layer 1 refuses this network (1:0 is invisible at
    # the destination); the optimizer drops that start and keeps the others.
    net = near_cancelling_network(1e-13)
    with pytest.raises(ValueError, match="1:0 is invisible"):
        matched_gains(net, RegimeSpec(exceptional_layer=1))
    gains, snr = optimize_gains(net, OptimizerConfig(restarts=1, seed=0))
    assert snr == destination_snr(net, gains)
    assert snr >= destination_snr(net, full_power_gains(net))
