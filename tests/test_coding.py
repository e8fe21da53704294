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
from conftest import random_network


def unit_diamond():
    net = diamond_network()
    return net, GainAssignment.from_layers([[1.0, 1.0]])


def test_diamond_coefficients():
    net, gains = unit_diamond()
    state = propagate_coefficients(net, gains)
    d = net.destination
    assert state.f_source(d) == 2.0
    assert state.f_noise(NodeId(1, 0), d) == 1.0
    assert state.f_noise(NodeId(1, 1), d) == 1.0


def test_chain_coefficients_include_origin_gain():
    # One relay with gain b: both the source signal and the relay's own
    # noise reach the destination scaled by b.
    net = chain_network(hops=2)
    b = 0.37
    state = propagate_coefficients(net, GainAssignment.from_layers([[b]]))
    d = net.destination
    assert np.isclose(state.f_source(d), b, rtol=1e-15)
    assert np.isclose(state.f_noise(NodeId(1, 0), d), b, rtol=1e-15)


def test_coefficients_vanish_upstream():
    net = chain_network(hops=3)
    state = propagate_coefficients(net, GainAssignment.from_layers([[1.0], [1.0]]))
    late = NodeId(2, 0)
    assert state.f_noise(late, NodeId(1, 0)) == 0.0
    assert state.f_noise(late, late) == 1.0


def test_received_second_moment_decomposition():
    net, gains = unit_diamond()
    state = propagate_coefficients(net, gains)
    # 2^2 * P_S + two unit noise paths + local noise
    assert state.received_second_moment(net.destination) == pytest.approx(4.0 + 2.0 + 1.0)


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
        state = propagate_coefficients(net, gains)
        origins = [net.source] + list(net.relays())
        for origin in origins:
            for k in net.nodes():
                if k.layer <= origin.layer:
                    continue
                dp = state.f_source(k) if origin == net.source else state.f_noise(origin, k)
                oracle = path_coefficient(net, gains, origin, k)
                assert abs(dp - oracle) <= 1e-12 * max(1.0, abs(oracle)), (
                    f"{origin}->{k}: dp={dp} oracle={oracle}"
                )


def test_scaling_one_gain_scales_downstream_coefficients():
    # Power-of-two factor keeps float scaling exact.
    net = chain_network(hops=3)
    base = GainAssignment.from_layers([[0.7], [0.4]])
    scaled = base.scaled_layer(1, 2.0)
    s0 = propagate_coefficients(net, base)
    s1 = propagate_coefficients(net, scaled)
    d = net.destination
    assert s1.f_source(d) == 2.0 * s0.f_source(d)
    assert s1.f_noise(NodeId(1, 0), d) == 2.0 * s0.f_noise(NodeId(1, 0), d)
    # noise injected after the scaled node is untouched
    assert s1.f_noise(NodeId(2, 0), d) == s0.f_noise(NodeId(2, 0), d)


def test_zero_gain_cut_kills_signal():
    net = LayeredNetwork(
        layer_sizes=(1, 2, 1),
        gain_matrices=(np.array([[1.0], [1.0]]), np.zeros((1, 2))),
        relay_budgets=(np.array([1.0, 1.0]),),
        source_power=1.0,
    )
    state = propagate_coefficients(net, GainAssignment.from_layers([[1.0, 1.0]]))
    assert state.f_source(net.destination) == 0.0


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
            assert net.gain(a, b) != 0.0
