import math

import numpy as np
import pytest

from anclab import (
    GainAssignment,
    NodeId,
    RegimeSpec,
    build_network,
    check_feasible,
    downstream_gains,
    full_power_gains,
    matched_gains,
    max_safe_gain,
    path_coefficient,
    received_power,
    regime_delta,
)
from anclab.presets import asymmetric_three_layer, chain_network, wide_bottleneck_network
from conftest import near_cancelling_network, random_network


def test_full_power_is_per_node_maximum():
    net = chain_network(hops=2)
    gains = full_power_gains(net)
    assert gains.layers[0][0] == pytest.approx(1.0 / math.sqrt(2.0))
    rng = np.random.default_rng(4)
    for _ in range(10):
        net = random_network(rng, coherent=True)
        gains = full_power_gains(net)
        for k in net.relays():
            assert gains.layers[k.layer - 1][k.index] == max_safe_gain(net, k)


def test_full_power_passes_sufficient_with_equality():
    rng = np.random.default_rng(21)
    for _ in range(20):
        net = random_network(rng, coherent=True)
        report = check_feasible(net, full_power_gains(net))
        assert report.sufficient_ok
        for e in report.entries:
            assert abs(e.beta) == pytest.approx(e.beta_max, rel=1e-12)


def test_downstream_gains_last_layer_is_final_hop():
    net = asymmetric_three_layer()
    gains = full_power_gains(net)
    g = downstream_gains(net, gains, net.num_layers - 1)
    final = net.gain_matrices[-1]
    assert np.array_equal(g, final[0])


def test_downstream_gains_hand_expansion():
    # 3-layer net, unit gains, second-layer betas all b: each first-layer
    # node sees the sum of b*h*h over the two middle nodes.
    net = build_network(
        [1, 2, 2, 1],
        [[[1.0], [1.0]], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0]]],
        [1.0] * 4,
        1.0,
    )
    b = 0.3
    gains = GainAssignment.from_layers([[0.0, 0.0], [b, b]])
    g = downstream_gains(net, gains, 1)
    assert g == pytest.approx([2.0 * b, 2.0 * b])


def test_downstream_gains_match_propagated_noise_coefficients():
    rng = np.random.default_rng(31)
    for _ in range(30):
        net = random_network(rng, max_layers=4, max_width=4)
        gains = GainAssignment.from_layers(
            [rng.uniform(0.2, 1.0, net.layer_sizes[l]) for l in range(1, net.num_layers)]
        )
        for layer in range(1, net.num_layers):
            g = downstream_gains(net, gains, layer)
            for j, beta in enumerate(gains.layers[layer - 1]):
                expected = path_coefficient(net, gains, NodeId(layer, j), net.destination)
                assert abs(g[j] * beta - expected) <= 1e-12 * max(1.0, abs(expected))


def test_matched_gains_symmetric_layer_hits_box():
    net = wide_bottleneck_network(4)
    spec = RegimeSpec(exceptional_layer=2)
    gains, params = matched_gains(net, spec)
    betas = list(gains.layers[1])
    assert max(betas) - min(betas) <= 1e-12 * max(betas)
    for i in range(4):
        assert betas[i] == pytest.approx(max_safe_gain(net, NodeId(2, i)), rel=1e-12)


def test_matched_gains_feasible_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(50):
        net = random_network(rng, coherent=True)
        l = int(rng.integers(1, net.num_layers))
        gains, params = matched_gains(net, RegimeSpec(exceptional_layer=l))
        for k in net.relays():
            assert abs(gains.layers[k.layer - 1][k.index]) <= max_safe_gain(net, k) + 1e-12
        assert check_feasible(net, gains).sufficient_ok


def test_matched_combining_is_positive_and_equalized():
    rng = np.random.default_rng(13)
    for _ in range(30):
        net = random_network(rng, coherent=True)
        l = int(rng.integers(1, net.num_layers))
        gains, params = matched_gains(net, RegimeSpec(exceptional_layer=l))
        for i, gamma in enumerate(params.gamma):
            expected = params.c1 * math.sqrt(received_power(net, NodeId(l, i)))
            assert gamma > 0
            assert abs(gamma - expected) <= 1e-12 * expected


def test_matched_combining_positive_with_signed_downstream():
    # Negative final-hop gain: the matched beta flips sign so the node's
    # end-to-end contribution still adds constructively.
    net = build_network(
        [1, 1, 2, 1],
        [[[1.0]], [[1.0], [1.0]], [[1.0, -0.5]]],
        [100.0, 1.0, 1.0],
        100.0,
    )
    spec = RegimeSpec(exceptional_layer=2)
    gains, params = matched_gains(net, spec)
    assert gains.layers[1][1] < 0
    assert all(params.gamma > 0)


def test_matched_uniform_margin_never_exceeds_per_node():
    rng = np.random.default_rng(17)
    for _ in range(20):
        net = random_network(rng, coherent=True)
        full = full_power_gains(net)
        for l in range(1, net.num_layers):
            gains, _ = matched_gains(net, RegimeSpec(exceptional_layer=l))
            for layer, (got, want) in enumerate(zip(gains.layers, full.layers), start=1):
                if layer != l:
                    assert np.all(got <= want + 1e-15)


def test_matched_rejects_invisible_node():
    # second middle node silent toward the destination; assembled directly
    # since construction would reject the dead edge outright
    from anclab import LayeredNetwork

    broken = LayeredNetwork(
        layer_sizes=(1, 1, 2, 1),
        gain_matrices=(
            np.array([[1.0]]),
            np.array([[1.0], [1.0]]),
            np.array([[1.0, 0.0]]),
        ),
        relay_budgets=(np.array([1.0]), np.array([1.0, 1.0])),
        source_power=1.0,
    )
    with pytest.raises(ValueError, match="invisible"):
        matched_gains(broken, RegimeSpec(exceptional_layer=2))


def test_matched_rejects_cancelled_compound_gain():
    with pytest.raises(ValueError, match="1:0 is invisible"):
        matched_gains(near_cancelling_network(1e-13), RegimeSpec(exceptional_layer=1))
    _, params = matched_gains(near_cancelling_network(1e-9), RegimeSpec(exceptional_layer=1))
    assert params.c1 == 3.5353573242702135e-14


def test_regime_spec_validation():
    net = chain_network(hops=2)
    with pytest.raises(ValueError, match="1..1"):
        matched_gains(net, RegimeSpec(exceptional_layer=0))
    with pytest.raises(ValueError, match="1..1"):
        regime_delta(net, RegimeSpec(exceptional_layer=5))
