import logging

import numpy as np
import pytest

from anclab import (
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
from conftest import random_network


def test_single_relay_chain_optimum_at_box_edge():
    net = chain_network(hops=2)
    gains, snr = optimize_gains(net, OptimizerConfig(restarts=2, seed=0))
    b_max = max_safe_gain(net, NodeId(1, 0))
    assert abs(gains.layers[0][0]) == pytest.approx(b_max, rel=1e-12)
    assert snr == pytest.approx(1.0 / 3.0, rel=1e-12)


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
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tolerance", float("nan")),
        ("tolerance", float("inf")),
        ("max_iterations", -3),
        ("max_iterations", 1.5),
        ("restarts", 1.5),
        ("seed", 1.5),
    ],
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


def test_unconverged_start_logs_warning(caplog):
    net = asymmetric_three_layer()
    with caplog.at_level(logging.WARNING, logger="anclab.optimize"):
        optimize_gains(net, OptimizerConfig(max_iterations=1))
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
    with caplog.at_level(logging.WARNING, logger="anclab.optimize"):
        optimize_gains(net, OptimizerConfig())
    assert not caplog.records
