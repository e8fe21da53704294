"""Property-based checks on generated networks: the coding core and its
stack axis, the optimizer's layer sweep, its SNR and its lockstep starts,
the rate sandwich, JSON round trips, the feasibility report, the Monte Carlo
block kernel and agreement join, and the relay-layer range every
layer-taking function accepts.

Networks have 2..4 hops and up to 3 nodes per relay layer, so the path
oracle stays cheap; the stack-axis checks take layers up to 8 wide, where a
flattened matrix product can round differently.  Runs are derandomized, so
every run checks the same examples and a failure reproduces.
"""

import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import anclab.optimize
from anclab import (
    GainAssignment,
    NetworkValidationError,
    NodeId,
    OptimizerConfig,
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
    optimize_gains,
    propagate_coefficients,
    rank_one_cutset,
    rate_lower_bound,
    rate_upper_bound,
    regime_delta,
)
from anclab.bounds import exceptional_power_sum, lower_bound_terms
from anclab.coding import destination_rows, forward_hop, visible_row
from anclab.montecarlo import SimConfig, _block_sums, agreement_check, analytic_moments, simulate
from anclab.network import drop_residue
from anclab.optimize import _ascend, _best_gain, _sweep_layer
from anclab.oracle import path_coefficient
from anclab.presets import rescale_to_delta
from conftest import (
    feasibility_records,
    near_cancelling_network,
    per_node_block_sums,
    random_box_gains,
    random_network,
    records_outputs,
    swept_coefficients,
)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def networks(draw, signed: bool, max_width: int = 3):
    """A valid network; coherent (positive channel gains) unless signed.  Signed
    gains can cancel a received power; build_network refuses such a draw, and
    it is discarded."""
    sizes = [1] + draw(st.lists(st.integers(1, max_width), min_size=1, max_size=3)) + [1]
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
    try:
        return build_network(sizes, matrices, budgets, draw(st.floats(0.5, 4.0)))
    except NetworkValidationError:
        assume(False)


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


# Layer-1 node 0 reaches the destination through 2 + (-2 + eps): residue at
# eps = 1e-13, a real path at 1e-9.
_NEAR_CANCELLING_GAINS = GainAssignment.from_layers([[1.0, 0.0], [2.0, 1.0]])


@PROPERTY_SETTINGS
@given(networks_with_gains(signed=True))
@example((near_cancelling_network(1e-13), _NEAR_CANCELLING_GAINS))
@example((near_cancelling_network(1e-9), _NEAR_CANCELLING_GAINS))
def test_visible_rows_drop_only_cancellation_residue(case):
    net, gains = case
    betas = gains.betas(net)
    abs_net, abs_gains = _absolute(net, gains)
    scale = destination_rows(abs_net, abs_gains.betas(abs_net))
    for layer, (row, bound) in enumerate(zip(destination_rows(net, betas), scale)):
        visible = visible_row(net, betas, layer)
        residue = np.abs(row) <= 1e-12 * bound
        assert visible[~residue].tobytes() == row[~residue].tobytes()  # bit for bit
        assert np.all(visible[residue] == 0.0) and not np.signbit(visible[residue]).any()


@st.composite
def residue_cases(draw):
    """Signed sums and their magnitude scales, with entries set to exact ties
    |v| == 1e-12 * scale of either sign, to the next float past a tie, or to -0.0."""
    n = draw(st.integers(1, 8))
    scale = draw(arrays(np.float64, n, elements=st.floats(0.0, 1e3)))
    values = draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    kind = draw(arrays(np.int8, n, elements=st.integers(0, 4)))
    tie = 1e-12 * scale
    choices = [tie, -tie, np.nextafter(tie, np.inf), np.full(n, -0.0)]
    return np.select([kind == k for k in range(1, 5)], choices, values), scale


@PROPERTY_SETTINGS
@given(residue_cases(), st.booleans())
@example((np.array([-0.0, 1e-12, -1e-12, 0.0, 3e-12]), np.array([1.0, 1.0, 1.0, 0.0, 2.0])), True)
def test_drop_residue_is_the_where_form(case, read_only):
    values, scale = case
    values.flags.writeable = not read_only
    before = values.tobytes()
    out = drop_residue(values, scale)
    want = np.where(np.abs(values) <= 1e-12 * scale, 0.0, values)
    assert out.tobytes() == want.tobytes()  # the same bits, +0.0 where cancelled
    assert not np.shares_memory(out, values) and out.flags.writeable
    assert values.tobytes() == before


@PROPERTY_SETTINGS
@given(networks_with_gains(signed=True))
def test_analytic_snr_is_destination_snr(case):
    net, gains = case
    assert analytic_moments(net, gains)["snr"].hex() == destination_snr(net, gains).hex()


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
    # product beta * h, hence the destination SNR, unchanged.  The full-budget
    # received power of the next layer is a signed sum without the gains, so
    # the flip can cancel it; then build_network refuses that layer's node.
    net, gains = case
    layer = data.draw(st.integers(1, net.num_layers - 1))
    index = data.draw(st.integers(0, net.layer_sizes[layer] - 1))
    matrices = [m.copy() for m in net.gain_matrices]
    matrices[layer][:, index] *= -1.0
    gain_layers = [arr.copy() for arr in gains.layers]
    gain_layers[layer - 1][index] *= -1.0
    try:
        flipped = _relabel(net, matrices, net.relay_budgets, gain_layers)
    except NetworkValidationError as exc:
        assert re.match(rf"received power at {layer + 1}:\d+ is ", str(exc)), str(exc)
        return
    assert destination_snr(*flipped) == pytest.approx(destination_snr(net, gains), rel=1e-12)


@PROPERTY_SETTINGS
@given(networks(signed=False), st.data())
def test_matched_rate_between_bounds(net, data):
    layer = data.draw(st.integers(1, net.num_layers - 1))
    spec = RegimeSpec(exceptional_layer=layer)
    gains, c1 = matched_gains(net, spec)
    achieved = anc_rate(destination_snr(net, gains))
    lower = rate_lower_bound(net, spec, c1)
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
    net, gains = case
    expected_dict, expected_csv = records_outputs(feasibility_records(net, gains))
    report = check_feasible(net, gains)
    assert json.dumps(report.to_dict()) == json.dumps(expected_dict)  # types and key order too
    assert report.to_csv() == expected_csv


def _keyed_agreement_csv(report, net, gains, z_threshold):
    """agreement_check(...).to_csv() built the node-keyed way: the analytic
    transmit powers in a dict keyed by NodeId, the nodes joined in sorted
    order, and every cell formatted here."""
    state = propagate_coefficients(net, gains)
    analytic = {net.source: net.source_power}
    for layer in range(1, net.num_layers):
        for i, p in enumerate(state.transmit_powers(layer)):
            analytic[NodeId(layer, i)] = float(p)
    rows = [
        ("transmit_power", node, report.transmit_power[node], analytic[node],
         report.transmit_power_se[node])
        for node in sorted(report.transmit_power)
    ]
    rows.append(("source_coeff", None, report.source_coeff, float(state.source[-1][0]),
                 report.source_coeff_se))
    rows.append(("snr", None, report.snr, state.snr, report.snr_se))
    lines = ["quantity,node,empirical,analytic,stderr,z,ok"]
    for quantity, node, empirical, expected, stderr in rows:
        if stderr > 0:
            z = abs(empirical - expected) / stderr
        else:
            z = 0.0 if empirical == expected else math.inf
        label = "" if node is None else str(node)
        floats = [format(v, ".12g") for v in (empirical, expected, stderr)]
        ok = str(z <= z_threshold).lower()
        lines.append(",".join([quantity, label, *floats, format(z, ".6g"), ok]))
    return "\n".join(lines) + "\n"


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_agreement_check_joins_nodes_by_position(seed, coherent):
    rng = np.random.default_rng(seed)
    net = random_network(rng, coherent=coherent)
    gains = random_box_gains(rng, net, signed=not coherent)
    report = simulate(net, gains, SimConfig(samples=4096, seed=seed))
    analytic = analytic_moments(net, gains)
    assert list(report.transmit_power) == sorted(report.transmit_power)
    assert len(report.transmit_power) == len(analytic["transmit_power"])
    expected = _keyed_agreement_csv(report, net, gains, z_threshold=4.0)
    assert agreement_check(report, analytic, z_threshold=4.0).to_csv() == expected


def _destination_coefficients(net, betas):
    """Fresh propagation: destination signal coefficient, noise coefficients."""
    state = propagate_coefficients(net, GainAssignment.from_layers(betas[1:]))
    rows = destination_rows(net, state.betas)
    noise = [state.betas[m] * rows[m] for m in range(1, net.num_layers)]
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
    # A stack of one start whose gain rows are views of betas, so the sweep's
    # steps show in betas as they are taken.
    stack = betas[:1] + [arr[np.newaxis] for arr in betas[1:]]
    forward = (np.ones((1, 1)), np.zeros((1, 1, 0)))
    for l in range(layer):
        forward = forward_hop(net, stack, l, *forward)
    steps = []

    def recording(a0, a1, q0, q1, q2, box_i, power):
        i = len(steps)
        scale = _two_point_coefficients(abs_net, abs_betas, layer, i)
        steps.append(([a0, a1, q0, q1, q2], _two_point_coefficients(net, betas, layer, i), scale))
        b = _best_gain(a0, a1, q0, q1, q2, box_i, power)
        abs_betas[layer][i] = abs(b)
        return b

    rows = destination_rows(net, stack)
    with pytest.MonkeyPatch.context() as patch:  # records each step the sweep takes
        patch.setattr(anclab.optimize, "_best_gain", recording)
        (f,), (noise_power,) = _sweep_layer(net, stack, layer, box, forward, rows)
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
    # equals a fresh propagation's, bit for bit, for a start alone and for
    # every start of a stack of three.
    boxes = list(net.safe_boxes)
    starts = [
        [
            box * data.draw(arrays(np.float64, box.size, elements=st.floats(-1.0, 1.0)))
            for box in boxes
        ]
        for _ in range(3)
    ]
    for sweeps in (1, 2, 3):
        for stack in (starts[:1], starts):
            results = _ascend(net, stack, boxes, sweeps)
            assert len(results) == len(stack)
            for layers, snr in results:
                assert snr == destination_snr(net, GainAssignment.from_layers(layers))


_WIDE_NETWORKS = st.booleans().flatmap(lambda signed: networks(signed, max_width=8))


@PROPERTY_SETTINGS
@given(_WIDE_NETWORKS, st.integers(2, 4), st.data())
def test_stacked_coding_gives_each_row_its_own_bits(net, size, data):
    # forward_hop and destination_rows on a stack of gain assignments, against
    # the unstacked call on each assignment: the same bits, sign of zero too.
    layers = [
        data.draw(arrays(np.float64, (size, n), elements=st.floats(-1.5, 1.5)))
        for n in net.layer_sizes[1:-1]
    ]
    stack = [np.ones(1), *layers]
    alone = [[np.ones(1), *(arr[s] for arr in layers)] for s in range(size)]
    forward = (np.ones((size, 1)), np.zeros((size, 1, 0)))
    forwards = [(np.ones(1), np.zeros((1, 0)))] * size
    for layer in range(net.num_layers):
        forward = forward_hop(net, stack, layer, *forward)
        forwards = [forward_hop(net, b, layer, *f) for b, f in zip(alone, forwards)]
        for s, (source, transfer) in enumerate(forwards):
            assert forward[0][s].tobytes() == source.tobytes(), (layer, s)
            assert forward[1][s].tobytes() == transfer.tobytes(), (layer, s)
    rows = destination_rows(net, stack)
    for s, betas in enumerate(alone):
        for layer, row in enumerate(destination_rows(net, betas)):
            assert rows[layer][s].tobytes() == row.tobytes(), (layer, s)


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append((record.levelname, record.getMessage()))


def _optimize_by_start(net, config, stack):
    """optimize_gains with at most stack starts ascended together: its result,
    each start's (gain bytes, SNR) in start order, and the module's log lines."""
    by_start = []
    ascend = anclab.optimize._ascend

    def recording(*args):
        results = ascend(*args)
        by_start.extend(([a.tobytes() for a in layers], snr.hex()) for layers, snr in results)
        return results

    logger = logging.getLogger("anclab.optimize")
    handler, level = _Lines(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(anclab.optimize, "_STACK", stack)
            patch.setattr(anclab.optimize, "_ascend", recording)
            gains, snr = optimize_gains(net, config)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return ([a.tobytes() for a in gains.layers], snr.hex()), by_start, handler.lines


@PROPERTY_SETTINGS
@given(_WIDE_NETWORKS, st.integers(1, 4), st.integers(0, 2**16))
def test_each_start_ascends_as_it_would_alone(net, restarts, seed):
    # Every start's gains, SNR, sweep count and log line are the same alone
    # (a stack of one), in stacks of two and in one stack of all the starts.
    config = OptimizerConfig(restarts=restarts, seed=seed)
    alone = _optimize_by_start(net, config, 1)
    result, by_start, lines = alone
    assert len(by_start) == sum(level == "DEBUG" for level, _ in lines) >= 1 + restarts
    for stack in (2, anclab.optimize._STACK):
        assert _optimize_by_start(net, config, stack) == alone, stack


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
    _, c1 = matched_gains(net, RegimeSpec(exceptional_layer=1))
    spec = RegimeSpec(exceptional_layer=layer)
    node = NodeId(layer, 0)
    return {
        "RegimeSpec.validate": lambda: spec.validate(net),
        "regime_delta": lambda: regime_delta(net, spec),
        "matched_gains": lambda: matched_gains(net, spec),
        "exceptional_power_sum": lambda: exceptional_power_sum(net, spec),
        "rate_upper_bound": lambda: rate_upper_bound(net, spec),
        "lower_bound_terms": lambda: lower_bound_terms(net, spec, c1),
        "rank_one_cutset": lambda: rank_one_cutset(net, spec),
        "rescale_to_delta": lambda: rescale_to_delta(net, layer, 0.1),
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
    # A numpy integer is a layer; a float or a bool is not, even one equal to a relay layer.
    num_layers = net.num_layers
    layer = data.draw(st.integers(-1, num_layers + 1) | st.sampled_from([1.0, True, np.int64(1)]))
    integer = type(layer) in (int, np.int64)
    message = rf"(exceptional |noisy )?layer must be a relay layer in 1\.\.{num_layers - 1}, "
    for name, call in _relay_layer_calls(net, layer).items():
        if integer and 1 <= layer < num_layers:
            call()
        elif name == "exact_transmit_power" and integer and layer == 0:
            assert call() == net.source_power  # the source transmits too
        else:
            with pytest.raises(ValueError, match=f"^{message}got {layer}$"):
                call()
