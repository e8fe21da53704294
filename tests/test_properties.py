"""Property-based checks on generated networks: the coding core, the
optimizer's layer sweep and its SNR, the rate sandwich, JSON round trips,
the feasibility report, the Monte Carlo block kernel and the relay-layer
range every layer-taking function accepts.

Networks have 2..4 hops and up to 3 nodes per relay layer, so the path
oracle stays cheap.  Runs are derandomized, so every run checks the same
examples and a failure reproduces.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anclab import (
    GainAssignment,
    NodeId,
    RegimeSpec,
    anc_rate,
    build_network,
    check_feasible,
    destination_snr,
    downstream_gains,
    exact_transmit_power,
    full_power_gains,
    gains_from_dict,
    gains_to_dict,
    ideal_snr,
    matched_gains,
    max_safe_gain,
    network_from_dict,
    network_to_dict,
    path_coefficient,
    propagate_coefficients,
    rank_one_cutset,
    rate_lower_bound,
    rate_upper_bound,
    regime_delta,
)
from anclab.bounds import exceptional_power_sum, lower_bound_terms
from anclab.coding import destination_rows, forward_hop
from anclab.montecarlo import _block_sums
from anclab.optimize import _ascend, _best_gain, _sweep_layer
from anclab.power import safe_gains
from anclab.presets import rescale_to_delta
from conftest import feasibility_records, per_node_block_sums, records_outputs, swept_coefficients

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
    swept = swept_coefficients(net, gains)
    abs_net, abs_gains = _absolute(net, gains)
    for origin in [net.source] + list(net.relays()):
        for k in net.nodes():
            if k.layer <= origin.layer:
                continue
            got = swept[origin, k]
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


@PROPERTY_SETTINGS
@given(networks_with_gains(signed=True))
def test_feasibility_report_matches_record_loop(case):
    # Signed gains can cancel a relay's received power: then both raise the same error.
    net, gains = case
    try:
        expected_dict, expected_csv = records_outputs(feasibility_records(net, gains))
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            check_feasible(net, gains)
        return
    report = check_feasible(net, gains)
    assert json.dumps(report.to_dict()) == json.dumps(expected_dict)  # types and key order too
    assert report.to_csv() == expected_csv


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
    f, noise_power = _sweep_layer(net, betas, layer, box, forward, rows, recording)
    assert len(steps) == net.layer_sizes[layer]
    for got, want, scale in steps:
        # Signal pair and noise triple, each against its own magnitude.
        tol = 1e-12 * np.maximum(1.0, np.repeat([scale[:2].sum(), scale[2:].sum()], [2, 3]))
        assert np.all(np.abs(np.array(got) - want) <= tol), (got, want)
    fresh_f, fresh_noise = _destination_coefficients(net, betas)
    abs_f, abs_noise = _destination_coefficients(abs_net, abs_betas)
    assert abs(f - fresh_f) <= 1e-12 * max(1.0, abs_f)
    fresh_power = fresh_noise @ fresh_noise + 1.0
    assert abs(noise_power - fresh_power) <= 1e-12 * (abs_noise @ abs_noise + 1.0)



def _reference_best_gain(a0, a1, q0, q1, q2, box, power):
    """The candidate rule as a max over a list: +box, -box, then an interior
    stationary point; max keeps the first of equal SNRs."""

    def snr(b):
        sig = a0 + a1 * b
        return sig * sig * power / (q0 + q1 * b + q2 * b * b)

    candidates = [box, -box]
    slope = a1 * q1 - 2.0 * a0 * q2
    if slope != 0.0:
        stationary = (a0 * q1 - 2.0 * a1 * q0) / slope
        if -box < stationary < box:
            candidates.append(stationary)
    return max(candidates, key=snr)


# Small integers make exact ties and zero slopes common; arbitrary floats do the rest.
_STEP_VALUES = st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0))


@PROPERTY_SETTINGS
@given(
    a0=_STEP_VALUES,
    a1=_STEP_VALUES,
    x=_STEP_VALUES,
    y=_STEP_VALUES,
    box=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 10.0)),
    power=st.floats(0.5, 4.0),
)
@example(a0=0.0, a1=1.0, x=0.0, y=1.0, box=1.0, power=1.0)  # tie: SNR even in b
@example(a0=1.0, a1=0.0, x=0.0, y=1.0, box=1.0, power=1.0)  # ends tie, optimum at -0.0
@example(a0=1.0, a1=1.0, x=0.0, y=0.0, box=1.0, power=1.0)  # slope == 0
@example(a0=0.0, a1=0.0, x=1.0, y=1.0, box=1.0, power=1.0)  # no signal: all SNRs 0
def test_best_gain_matches_max_over_candidates(a0, a1, x, y, box, power):
    # The noise 1 + (x + y b)^2 is a step's q0 + q1 b + q2 b^2, positive like a
    # real destination noise power.
    q0, q1, q2 = 1.0 + x * x, 2.0 * x * y, y * y
    got = _best_gain(a0, a1, q0, q1, q2, box, power)
    want = _reference_best_gain(a0, a1, q0, q1, q2, box, power)
    assert repr(got) == repr(want)  # the same float, sign of zero included


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
    betas = gains.betas(net)
    node, dest = _block_sums(net, betas, seed, 0, size)
    ref_node, ref_dest = per_node_block_sums(net, betas[1:], seed, 0, size)
    np.testing.assert_allclose(node, ref_node, rtol=1e-12)
    np.testing.assert_allclose(dest, ref_dest, rtol=1e-12)


def _relay_layer_calls(net, layer):
    """Every function that takes a relay layer, or a node of one, called with layer."""
    full = full_power_gains(net)
    state = propagate_coefficients(net, full)
    _, params = matched_gains(net, RegimeSpec(exceptional_layer=1))
    spec = RegimeSpec(exceptional_layer=layer)
    node = NodeId(layer, 0)
    return {
        "RegimeSpec.validate": lambda: spec.validate(net),
        "regime_delta": lambda: regime_delta(net, spec),
        "matched_gains": lambda: matched_gains(net, spec),
        "exceptional_power_sum": lambda: exceptional_power_sum(net, spec),
        "rate_upper_bound": lambda: rate_upper_bound(net, spec),
        "lower_bound_terms": lambda: lower_bound_terms(net, spec, params),
        "rank_one_cutset": lambda: rank_one_cutset(net, spec),
        "rescale_to_delta": lambda: rescale_to_delta(net, layer, 0.1),
        "safe_gains": lambda: safe_gains(net, layer),
        "CodingState.transmit_powers": lambda: state.transmit_powers(layer),
        "downstream_gains": lambda: downstream_gains(net, full, layer),
        "ideal_snr": lambda: ideal_snr(net, full, layer),
        "max_safe_gain": lambda: max_safe_gain(net, node),
        "exact_transmit_power": lambda: exact_transmit_power(net, full, node),
    }


@PROPERTY_SETTINGS
@given(networks(signed=False), st.data())
def test_relay_layer_range_is_one_check(net, data):
    # Coherent networks leave no cancelled power, so a relay layer is always accepted.
    num_layers = net.num_layers
    layer = data.draw(st.integers(-1, num_layers + 1))
    message = rf"(exceptional |noisy )?layer must be a relay layer in 1\.\.{num_layers - 1}, "
    for name, call in _relay_layer_calls(net, layer).items():
        if 1 <= layer < num_layers:
            call()
        elif name == "exact_transmit_power" and layer == 0:
            assert call() == net.source_power  # the source transmits too
        else:
            with pytest.raises(ValueError, match=f"^{message}got {layer}$"):
                call()
