import math

import numpy as np
import pytest

import anclab.coding
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
    received_power,
    regime_delta,
)
from anclab.coding import destination_rows
from anclab.oracle import path_coefficient
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
        for beta, beta_max in zip(report.columns["beta"], report.columns["beta_max"]):
            assert abs(beta) == pytest.approx(beta_max, rel=1e-12)


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
    gains, _ = matched_gains(net, spec)
    betas = list(gains.layers[1])
    assert max(betas) - min(betas) <= 1e-12 * max(betas)
    for i in range(4):
        assert betas[i] == pytest.approx(max_safe_gain(net, NodeId(2, i)), rel=1e-12)


def test_matched_gains_feasible_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(50):
        net = random_network(rng, coherent=True)
        l = int(rng.integers(1, net.num_layers))
        gains, _ = matched_gains(net, RegimeSpec(exceptional_layer=l))
        for k in net.relays():
            assert abs(gains.layers[k.layer - 1][k.index]) <= max_safe_gain(net, k) + 1e-12
        assert check_feasible(net, gains).sufficient_ok


def test_matched_combining_is_positive_and_equalized():
    rng = np.random.default_rng(13)
    for _ in range(30):
        net = random_network(rng, coherent=True)
        l = int(rng.integers(1, net.num_layers))
        gains, c1 = matched_gains(net, RegimeSpec(exceptional_layer=l))
        gammas = gains.layers[l - 1] * downstream_gains(net, gains, l)
        for i, gamma in enumerate(gammas):
            expected = c1 * math.sqrt(received_power(net, NodeId(l, i)))
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
    gains, _ = matched_gains(net, spec)
    assert gains.layers[1][1] < 0
    assert all(gains.layers[1] * downstream_gains(net, gains, 2) > 0)


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


def test_matched_builds_no_box_for_the_exceptional_layer():
    # Relay 1:2's uniform-margin box, 1e300 / 1e-300, would overflow, but
    # layer 1's gains come from the matched rule, so the box is never built.
    net = build_network([1, 3, 1], [np.ones((3, 1)), np.ones((1, 3))], [1.0, 1.0, 1e300], 1e-300)
    gains, c1 = matched_gains(net, RegimeSpec(exceptional_layer=1))
    assert c1 == 1e150
    assert list(gains.layers[0]) == [1.0, 1.0, 1.0]


def test_matched_gains_sweeps_down_to_its_layer_once(monkeypatch):
    # Row l alone: the signed sweep and the one on magnitudes each take L-1-l
    # backward steps, and one residue test covers that row.
    steps, tested = [], []
    backward_rows, drop_residue = anclab.coding._backward_rows, anclab.coding.drop_residue

    def counted_rows(h, betas):
        rows = backward_rows(h, betas)
        steps.append(len(rows) - 1)  # one row per step, after r_{L-1}
        return rows

    def counted_residue(values, scale):
        tested.append(values.shape)
        return drop_residue(values, scale)

    monkeypatch.setattr(anclab.coding, "_backward_rows", counted_rows)
    monkeypatch.setattr(anclab.coding, "drop_residue", counted_residue)
    rng = np.random.default_rng(26)
    for hops in range(2, 8):
        sizes = [1] + [int(w) for w in rng.integers(1, 5, hops - 1)] + [1]
        matrices = [rng.uniform(0.1, 2.0, (m, n)) for n, m in zip(sizes, sizes[1:])]
        net = build_network(sizes, matrices, rng.uniform(0.5, 4.0, sum(sizes[1:-1])), 2.0)
        for l in range(1, hops):
            steps.clear(), tested.clear()
            matched_gains(net, RegimeSpec(exceptional_layer=l))
            assert steps == [hops - 1 - l] * 2 and tested == [(sizes[l],)]


def test_downstream_gains_sweeps_down_to_its_layer_once(monkeypatch):
    # Row l alone: L-1-l backward steps, with the bits of the full sweep's row l.
    steps = []
    backward_rows = anclab.coding._backward_rows

    def counted_rows(h, betas):
        rows = backward_rows(h, betas)
        steps.append(len(rows) - 1)  # one row per step, after r_{L-1}
        return rows

    rng = np.random.default_rng(27)
    for hops in range(2, 8):
        sizes = [1] + [int(w) for w in rng.integers(1, 5, hops - 1)] + [1]
        matrices = [rng.uniform(-2.0, 2.0, (m, n)) for n, m in zip(sizes, sizes[1:])]
        net = build_network(sizes, matrices, rng.uniform(0.5, 4.0, sum(sizes[1:-1])), 2.0)
        gains = GainAssignment.from_layers([rng.uniform(-1.5, 1.5, w) for w in sizes[1:-1]])
        full = destination_rows(net, gains.betas(net))
        for l in range(1, hops):
            steps.clear()
            with monkeypatch.context() as patch:
                patch.setattr(anclab.coding, "_backward_rows", counted_rows)
                row = downstream_gains(net, gains, l)
            assert steps == [hops - 1 - l]
            assert row.tobytes() == full[l].tobytes()


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
    _, c1 = matched_gains(near_cancelling_network(1e-9), RegimeSpec(exceptional_layer=1))
    assert c1 == 3.5353573242702135e-14


def test_regime_spec_validation():
    net = chain_network(hops=2)
    with pytest.raises(ValueError, match="1..1"):
        matched_gains(net, RegimeSpec(exceptional_layer=0))
    with pytest.raises(ValueError, match="1..1"):
        regime_delta(net, RegimeSpec(exceptional_layer=5))
