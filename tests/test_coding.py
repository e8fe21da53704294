import numpy as np
import pytest

from anclab import (
    GainAssignment,
    LayeredNetwork,
    NodeId,
    TooManyPathsError,
    build_network,
    count_paths,
    enumerate_paths,
    path_coefficient,
    propagate_coefficients,
)
from anclab.presets import chain_network, diamond_network
from conftest import random_network, swept_coefficients


def unit_diamond():
    net = diamond_network()
    return net, GainAssignment.from_layers([[1.0, 1.0]])


def test_diamond_coefficients():
    net, gains = unit_diamond()
    state = propagate_coefficients(net, gains)
    assert state.source[-1][0] == 2.0
    assert list(state.betas[1] * state.rows[1]) == [1.0, 1.0]


def test_chain_coefficients_include_origin_gain():
    # One relay with gain b: both the source signal and the relay's own
    # noise reach the destination scaled by b.
    net = chain_network(hops=2)
    b = 0.37
    state = propagate_coefficients(net, GainAssignment.from_layers([[b]]))
    assert np.isclose(state.source[-1][0], b, rtol=1e-15)
    assert np.isclose(state.betas[1][0] * state.rows[1][0], b, rtol=1e-15)


def test_coefficients_vanish_upstream():
    net = chain_network(hops=3)
    state = propagate_coefficients(net, GainAssignment.from_layers([[1.0], [1.0]]))
    # layer 1 hears only its own noise; layer 2 adds relay 1:0's on top of its own
    assert state.noise[1][0] == 1.0
    assert state.noise[2][0] == 2.0


def test_second_moment_decomposition():
    net, gains = unit_diamond()
    state = propagate_coefficients(net, gains)
    # at the destination: 2^2 * P_S, then two unit noise paths + local noise
    assert state.source[-1][0] ** 2 * net.source_power == 4.0
    assert state.noise[-1][0] == pytest.approx(2.0 + 1.0)
    # each unit-gain relay sends what it hears: 1^2 * P_S + its own noise
    assert list(state.transmit_powers(1)) == [2.0, 2.0]


def test_path_oracle_single_edge():
    net = chain_network(hops=2)
    gains = GainAssignment.from_layers([[0.8]])
    assert path_coefficient(net, gains, NodeId(1, 0), net.destination) == pytest.approx(0.8)


def test_path_oracle_two_path_sum():
    h0 = [[1.5], [-0.5]]
    h1 = [[0.7, 2.0]]
    net = build_network([1, 2, 1], [h0, h1], [1.0, 1.0], 1.0)
    gains = GainAssignment.from_layers([[0.3, 0.9]])
    expected = 0.3 * 1.5 * 0.7 + 0.9 * (-0.5) * 2.0
    assert path_coefficient(net, gains, net.source, net.destination) == pytest.approx(
        expected, rel=1e-15
    )


def test_dp_matches_path_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        net = random_network(rng, max_layers=4, max_width=5)
        gains = GainAssignment.from_layers(
            [rng.uniform(-1.5, 1.5, net.layer_sizes[l]) for l in range(1, net.num_layers)]
        )
        swept = swept_coefficients(net, gains)
        origins = [net.source] + list(net.relays())
        for origin in origins:
            for k in net.nodes():
                if k.layer <= origin.layer:
                    continue
                dp = swept[origin, k]
                oracle = path_coefficient(net, gains, origin, k)
                assert abs(dp - oracle) <= 1e-12 * max(1.0, abs(oracle)), (
                    f"{origin}->{k}: dp={dp} oracle={oracle}"
                )


def test_scaling_one_gain_scales_downstream_coefficients():
    # Power-of-two factor keeps float scaling exact.
    net = chain_network(hops=3)
    s0 = propagate_coefficients(net, GainAssignment.from_layers([[0.7], [0.4]]))
    s1 = propagate_coefficients(net, GainAssignment.from_layers([[1.4], [0.4]]))
    assert s1.source[-1][0] == 2.0 * s0.source[-1][0]
    assert s1.betas[1][0] * s1.rows[1][0] == 2.0 * (s0.betas[1][0] * s0.rows[1][0])
    # noise injected after the scaled node is untouched
    assert s1.betas[2][0] * s1.rows[2][0] == s0.betas[2][0] * s0.rows[2][0]


def test_zero_gain_cut_kills_signal():
    net = LayeredNetwork(
        layer_sizes=(1, 2, 1),
        gain_matrices=(np.array([[1.0], [1.0]]), np.zeros((1, 2))),
        relay_budgets=(np.array([1.0, 1.0]),),
        source_power=1.0,
    )
    state = propagate_coefficients(net, GainAssignment.from_layers([[1.0, 1.0]]))
    assert state.source[-1][0] == 0.0


def test_path_count_and_guard():
    net = build_network(
        [1, 3, 3, 1],
        [np.ones((3, 1)), np.ones((3, 3)), np.ones((1, 3))],
        [1.0] * 6,
        1.0,
    )
    assert count_paths(net, net.source, net.destination) == 9
    assert len(enumerate_paths(net, net.source, net.destination)) == 9

    import anclab.coding as coding

    old = coding.MAX_ENUMERATED_PATHS
    coding.MAX_ENUMERATED_PATHS = 5
    try:
        with pytest.raises(TooManyPathsError):
            enumerate_paths(net, net.source, net.destination)
    finally:
        coding.MAX_ENUMERATED_PATHS = old


def test_paths_cross_one_layer_per_hop():
    rng = np.random.default_rng(8)
    net = random_network(rng, max_layers=4, max_width=4)
    for path in enumerate_paths(net, net.source, net.destination):
        for a, b in zip(path, path[1:]):
            assert b.layer == a.layer + 1
            assert net.gain_matrices[a.layer][b.index, a.index] != 0.0
