"""Property-based checks of the coding core on generated networks.

Networks have 2..4 hops and up to 3 nodes per relay layer, so the path
oracle stays cheap.  Runs are derandomized, so every run checks the same
examples and a failure reproduces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anclab import (
    GainAssignment,
    build_network,
    destination_snr,
    path_coefficient,
    propagate_coefficients,
)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def networks_with_gains(draw, signed: bool):
    """A valid network and one amplification gain per relay."""
    sizes = [1] + draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)) + [1]
    magnitudes = st.floats(0.1, 2.0)
    matrices = []
    for l in range(len(sizes) - 1):
        shape = (sizes[l + 1], sizes[l])
        mat = draw(arrays(np.float64, shape, elements=magnitudes))
        if signed:
            mat = np.where(draw(arrays(np.bool_, shape)), -mat, mat)
        matrices.append(mat)
    relays = sum(sizes[1:-1])
    budgets = draw(arrays(np.float64, relays, elements=st.floats(0.5, 4.0)))
    net = build_network(sizes, matrices, budgets, draw(st.floats(0.5, 4.0)))
    lo = -1.5 if signed else 0.1
    gains = [
        draw(arrays(np.float64, sizes[l], elements=st.floats(lo, 1.5)))
        for l in range(1, len(sizes) - 1)
    ]
    return net, GainAssignment.from_layers(gains)


def _relabel(net, matrices, budgets, gain_layers):
    return (
        build_network(net.layer_sizes, matrices, np.concatenate(budgets), net.source_power),
        GainAssignment.from_layers(gain_layers),
    )


@PROPERTY_SETTINGS
@given(networks_with_gains(signed=True))
def test_coefficients_match_path_oracle(case):
    net, gains = case
    state = propagate_coefficients(net, gains)
    # Error scale: the same path sum with every factor made nonnegative.
    abs_net = build_network(
        net.layer_sizes,
        [np.abs(m) for m in net.gain_matrices],
        np.concatenate(net.relay_budgets),
        net.source_power,
    )
    abs_gains = GainAssignment.from_layers([np.abs(arr) for arr in gains.layers])
    for origin in [net.source] + list(net.relays()):
        for k in net.nodes():
            if k.layer <= origin.layer:
                continue
            got = state.f_source(k) if origin == net.source else state.f_noise(origin, k)
            oracle = path_coefficient(net, gains, origin, k)
            scale = path_coefficient(abs_net, abs_gains, origin, k)
            assert abs(got - oracle) <= 1e-12 * max(1.0, scale), (origin, k, got, oracle)


@PROPERTY_SETTINGS
@given(networks_with_gains(signed=False), st.data())
def test_permuting_relay_layer_keeps_snr(case, data):
    net, gains = case
    layer = data.draw(st.integers(1, net.num_layers - 1))
    perm = np.array(data.draw(st.permutations(range(net.layer_sizes[layer]))))
    matrices = [m.copy() for m in net.gain_matrices]
    matrices[layer - 1] = matrices[layer - 1][perm, :]
    matrices[layer] = matrices[layer][:, perm]
    budgets = [b.copy() for b in net.relay_budgets]
    budgets[layer - 1] = budgets[layer - 1][perm]
    gain_layers = [arr.copy() for arr in gains.layers]
    gain_layers[layer - 1] = gain_layers[layer - 1][perm]
    permuted = _relabel(net, matrices, budgets, gain_layers)
    assert destination_snr(*permuted) == pytest.approx(destination_snr(net, gains), rel=1e-12)


@PROPERTY_SETTINGS
@given(networks_with_gains(signed=True), st.data())
def test_sign_gauge_keeps_snr(case, data):
    # Negating one relay's gain and its outgoing channel gains leaves every
    # product beta * h, hence the destination SNR, unchanged.
    net, gains = case
    layer = data.draw(st.integers(1, net.num_layers - 1))
    index = data.draw(st.integers(0, net.layer_sizes[layer] - 1))
    matrices = [m.copy() for m in net.gain_matrices]
    matrices[layer][:, index] *= -1.0
    gain_layers = [arr.copy() for arr in gains.layers]
    gain_layers[layer - 1][index] *= -1.0
    flipped = _relabel(net, matrices, net.relay_budgets, gain_layers)
    assert destination_snr(*flipped) == pytest.approx(destination_snr(net, gains), rel=1e-12)
