"""Property-based checks on generated networks: the coding core, the
optimizer's layer sweep and its SNR, the rate sandwich, JSON round trips
and the Monte Carlo block kernel.

Networks have 2..4 hops and up to 3 nodes per relay layer, so the path
oracle stays cheap.  Runs are derandomized, so every run checks the same
examples and a failure reproduces.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anclab import (
    GainAssignment,
    RegimeSpec,
    anc_rate,
    build_network,
    destination_snr,
    gains_from_dict,
    gains_to_dict,
    matched_gains,
    network_from_dict,
    network_to_dict,
    path_coefficient,
    propagate_coefficients,
    rate_lower_bound,
    rate_upper_bound,
)
from anclab.coding import destination_rows, forward_hop
from anclab.montecarlo import _block_sums
from anclab.optimize import _ascend, _best_gain, _sweep_layer
from anclab.power import safe_gains
from conftest import per_node_block_sums

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def networks(draw, signed: bool):
    """A valid network; coherent (positive channel gains) unless signed."""
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
    return build_network(sizes, matrices, budgets, draw(st.floats(0.5, 4.0)))


@st.composite
def networks_with_gains(draw, signed: bool):
    """A valid network and one amplification gain per relay."""
    net = draw(networks(signed))
    lo = -1.5 if signed else 0.1
    gains = [
        draw(arrays(np.float64, net.layer_sizes[l], elements=st.floats(lo, 1.5)))
        for l in range(1, net.num_layers)
    ]
    return net, GainAssignment.from_layers(gains)


def _absolute(net, gains):
    """The same network and gains with every factor made nonnegative: its
    coefficients sum the magnitudes of the signed ones' terms, an error scale."""
    abs_net = build_network(
        net.layer_sizes,
        [np.abs(m) for m in net.gain_matrices],
        np.concatenate(net.relay_budgets),
        net.source_power,
    )
    return abs_net, GainAssignment.from_layers([np.abs(arr) for arr in gains.layers])


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
    abs_net, abs_gains = _absolute(net, gains)
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


@PROPERTY_SETTINGS
@given(networks(signed=False), st.data())
def test_matched_rate_between_bounds(net, data):
    layer = data.draw(st.integers(1, net.num_layers - 1))
    spec = RegimeSpec(exceptional_layer=layer)
    gains, params = matched_gains(net, spec)
    achieved = anc_rate(destination_snr(net, gains))
    lower = rate_lower_bound(net, spec, params)
    upper = rate_upper_bound(net, spec)
    assert lower - 1e-9 <= achieved <= upper + 1e-9, (lower, achieved, upper)


@PROPERTY_SETTINGS
@given(networks_with_gains(signed=True))
def test_json_round_trip(case):
    net, gains = case
    back = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
    assert back.layer_sizes == net.layer_sizes
    assert back.source_power == net.source_power
    for got, want in zip(
        back.gain_matrices + back.relay_budgets, net.gain_matrices + net.relay_budgets
    ):
        assert np.array_equal(got, want)
    back_gains = gains_from_dict(back, json.loads(json.dumps(gains_to_dict(net, gains))))
    for got, want in zip(back_gains.layers, gains.layers):
        assert np.array_equal(got, want)


def _destination_coefficients(net, betas):
    """Fresh propagation: destination signal coefficient, noise coefficients."""
    state = propagate_coefficients(net, GainAssignment.from_layers(betas[1:]))
    noise = [state.betas[m] * state.rows[m] for m in range(1, net.num_layers)]
    return float(state.source[-1][0]), np.concatenate(noise)


def _two_point_coefficients(net, betas, layer, i):
    """(a0, a1, q0, q1, q2) of relay i from propagations at beta_i = 0 and 1."""
    ends = []
    for value in (0.0, 1.0):
        trial = [arr.copy() for arr in betas]
        trial[layer][i] = value
        ends.append(_destination_coefficients(net, trial))
    (f0, n0), (f1, n1) = ends
    d = n1 - n0
    return np.array([f0, f1 - f0, n0 @ n0 + 1.0, 2.0 * (n0 @ d), d @ d])


@PROPERTY_SETTINGS
@given(networks_with_gains(signed=True), st.data())
def test_layer_sweep_matches_fresh_propagation(case, data):
    net, gains = case
    abs_net, abs_gains = _absolute(net, gains)
    layer = data.draw(st.integers(1, net.num_layers - 1))
    box = data.draw(arrays(np.float64, net.layer_sizes[layer], elements=st.floats(0.1, 2.0)))
    betas = [np.ones(1)] + [arr.copy() for arr in gains.layers]
    abs_betas = [np.ones(1)] + [arr.copy() for arr in abs_gains.layers]
    forward = (np.ones(1), np.zeros((1, 0)))
    for l in range(layer):
        forward = forward_hop(net, betas, l, *forward)
    steps = []

    def recording(a0, a1, q0, q1, q2, box_i, power):
        i = len(steps)
        scale = _two_point_coefficients(abs_net, abs_betas, layer, i)
        steps.append(([a0, a1, q0, q1, q2], _two_point_coefficients(net, betas, layer, i), scale))
        b = _best_gain(a0, a1, q0, q1, q2, box_i, power)
        abs_betas[layer][i] = abs(b)
        return b

    rows = destination_rows(net, betas)
    f, noise = _sweep_layer(net, betas, layer, box, forward, rows, recording)
    assert len(steps) == net.layer_sizes[layer]
    for got, want, scale in steps:
        # Signal pair and noise triple, each against its own magnitude.
        tol = 1e-12 * np.maximum(1.0, np.repeat([scale[:2].sum(), scale[2:].sum()], [2, 3]))
        assert np.all(np.abs(np.array(got) - want) <= tol), (got, want)
    fresh_f, fresh_noise = _destination_coefficients(net, betas)
    abs_f, abs_noise = _destination_coefficients(abs_net, abs_betas)
    assert abs(f - fresh_f) <= 1e-12 * max(1.0, abs_f)
    assert np.all(np.abs(noise - fresh_noise) <= 1e-12 * np.maximum(1.0, abs_noise))



@PROPERTY_SETTINGS
@given(networks(signed=True), st.data())
def test_ascent_snr_is_that_of_its_gains(net, data):
    # After k = 1, 2, 3 sweeps the SNR read off the sweep's own forward pass
    # equals a fresh propagation's, bit for bit.
    try:
        boxes = [safe_gains(net, layer) for layer in range(1, net.num_layers)]
    except ValueError:  # a relay with cancelled received power has no box
        assume(False)
    start = [
        box * data.draw(arrays(np.float64, box.size, elements=st.floats(-1.0, 1.0)))
        for box in boxes
    ]
    for sweeps in (1, 2, 3):
        layers, snr = _ascend(net, start, boxes, sweeps, 1e-10)
        assert snr == destination_snr(net, GainAssignment.from_layers(layers))


@PROPERTY_SETTINGS
@given(networks_with_gains(signed=True), st.integers(1, 5000), st.integers(0, 2**32 - 1))
def test_pass_wise_block_sums_match_per_node_loop(case, size, seed):
    net, gains = case
    betas = [gains.layer_array(net, layer) for layer in range(1, net.num_layers)]
    node, dest = _block_sums(net, betas, seed, 0, size)
    ref_node, ref_dest = per_node_block_sums(net, betas, seed, 0, size)
    np.testing.assert_allclose(node, ref_node, rtol=1e-12)
    np.testing.assert_allclose(dest, ref_dest, rtol=1e-12)
