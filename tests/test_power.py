import math
import re

import numpy as np
import pytest

import anclab.network as network_module
from anclab import (
    GainAssignment,
    NetworkValidationError,
    NodeId,
    RegimeSpec,
    anc_rate,
    bounds_report,
    build_network,
    check_feasible,
    exact_transmit_power,
    full_power_gains,
    high_snr_lower_bound,
    mac_cutset,
    matched_gains,
    max_safe_gain,
    network_from_dict,
    network_to_dict,
    node_delta,
    propagate_coefficients,
    received_power,
    regime_delta,
)
from anclab.network import coherent_power
from anclab.power import _PASS_RTOL
from anclab.presets import (
    asymmetric_three_layer,
    chain_network,
    diamond_network,
    rescale_to_delta,
)
from conftest import box_limits, random_box_gains, random_network


def test_received_power_single_relay():
    net = build_network([1, 1, 1], [[[2.0]], [[1.0]]], [1.0], 4.0)
    assert received_power(net, NodeId(1, 0)) == pytest.approx(16.0)


def test_received_power_sign_partial_cancellation():
    # Signed gains enter the sum before squaring: (1 - 0.5)^2, and a margin of 4.
    net = build_network([1, 2, 1], [[[1.0], [1.0]], [[1.0, -0.5]]], [1.0, 1.0], 1.0)
    assert received_power(net, net.destination) == 0.25
    assert node_delta(net, net.destination) == 4.0


def test_source_receives_nothing():
    net = diamond_network()
    message = r"^layer 0 receives nothing; receiving layers are 1\.\.2$"
    with pytest.raises(ValueError, match=message):
        received_power(net, net.source)


_PER_NODE = {
    "received_power": received_power,
    "node_delta": node_delta,
    "max_safe_gain": max_safe_gain,
    "exact_transmit_power": lambda net, k: exact_transmit_power(net, full_power_gains(net), k),
}
_MISSING = [
    NodeId(1, -1), NodeId(2, -2), NodeId(1, 5), NodeId(2, 2), NodeId(1, 0.0), NodeId(2, True)
]


@pytest.mark.parametrize(
    "name, node",
    [(name, node) for name in sorted(_PER_NODE) for node in _MISSING]
    + [("exact_transmit_power", NodeId(0, index)) for index in (7, 1, -1, 0.0, False)],
)
def test_per_node_functions_refuse_nodes_the_network_lacks(name, node):
    # A negative index would alias another node of the layer, a large one
    # would raise numpy's IndexError, and a float or bool index is no index.
    net = asymmetric_three_layer()
    last = net.layer_sizes[node.layer] - 1
    message = f"no node {node} in the network: layer {node.layer} holds nodes 0..{last}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _PER_NODE[name](net, node)


def test_per_node_functions_take_numpy_integers():
    net = asymmetric_three_layer()
    node = NodeId(np.int64(2), np.int64(1))
    assert received_power(net, node) == received_power(net, NodeId(2, 1))
    assert max_safe_gain(net, node) == float(net.safe_boxes[1][1])
    source = NodeId(np.int64(0), np.int64(0))
    assert exact_transmit_power(net, full_power_gains(net), source) == net.source_power


def test_rescale_to_delta_result_is_checked_by_node():
    # Pinning 1:0's received power at 1e300 lifts 1:1's, 1e20 times larger, past float range.
    h = [[[1.0], [1e10]], [[1.0, 1.0]], [[1.0]]]
    net = build_network([1, 2, 1, 1], h, [1.0] * 3, 1.0)
    message = "^received power at 1:1 is inf; it and its reciprocal must be finite$"
    with pytest.raises(NetworkValidationError, match=message):
        rescale_to_delta(net, 2, 1e-300)


@pytest.mark.parametrize(
    "net, layer, delta",
    [
        (asymmetric_three_layer(), 2, 1e-310),  # 1 / delta overflows
        (diamond_network(), 1, 1e-310),
        (chain_network(hops=3, gain=1e-150), 2, 1e-10),  # the source power overflows
        (chain_network(hops=3, source_power=1e300), 2, 1e300),  # it underflows to 0
    ],
)
def test_rescale_to_delta_refuses_margin_out_of_float_range(net, layer, delta):
    message = (
        f"margin delta = {delta} rescales powers out of float range "
        f"around exceptional layer {layer}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rescale_to_delta(net, layer, delta)


def test_rescale_to_delta_keeps_margins_in_range():
    net = rescale_to_delta(asymmetric_three_layer(), 2, 1e300)
    assert regime_delta(net, RegimeSpec(exceptional_layer=2)) == pytest.approx(1e300)


def test_received_power_coherent_diamond():
    net = diamond_network()
    assert received_power(net, net.destination) == pytest.approx(4.0)


def test_gain_at_box_tolerance_end_is_sufficient():
    # |beta| equal in floats to beta_max * (1 + 1e-12), of either sign, passes.
    net = asymmetric_three_layer()
    signs = [np.array([1.0, -1.0]), np.array([-1.0, 1.0])]
    layers = [sign * (box * (1.0 + _PASS_RTOL)) for sign, box in zip(signs, net.safe_boxes)]
    report = check_feasible(net, GainAssignment.from_layers(layers))
    columns = report.columns
    np.testing.assert_array_equal(np.abs(columns["beta"]), columns["beta_max"] * (1.0 + _PASS_RTOL))
    assert report.sufficient_ok


def test_exact_power_at_budget_tolerance_end_is_feasible():
    # A chain relay whose exact power equals budget * (1 + 1e-12) in floats.
    slack = 1.0 + _PASS_RTOL

    def chain(budget):
        return build_network([1, 1, 1], [[[0.8]], [[1.3]]], [budget], 2.0)

    for beta in np.linspace(0.5, 0.9, 41):  # the first gain some budget meets exactly
        gains = GainAssignment.from_layers([[beta]])
        exact = float(check_feasible(chain(1.0), gains).columns["exact_power"][0])
        near = exact / slack
        candidates = [near, float(np.nextafter(near, 0.0)), float(np.nextafter(near, np.inf))]
        budget = next((b for b in candidates if b * slack == exact), None)
        if budget is not None:
            break
    else:
        pytest.fail("no budget meets an exact power at the tolerance end")
    report = check_feasible(chain(budget), gains)
    assert report.columns["exact_power"][0] == report.columns["budget"][0] * slack
    assert report.exact_ok


def test_received_power_ignores_gains():
    rng = np.random.default_rng(3)
    net = random_network(rng, coherent=True)
    values = {k: received_power(net, k) for k in net.nodes() if k.layer > 0}
    # nothing gain-dependent enters; recompute and compare
    again = {k: received_power(net, k) for k in values}
    assert values == again


def test_received_powers_cached_read_only_and_fresh():
    rng = np.random.default_rng(8)
    for n in range(20):
        net = random_network(rng, coherent=bool(n % 2))
        cached = net.received_powers
        assert net.received_powers is cached and len(cached) == net.num_layers
        amplitudes = [np.array([math.sqrt(net.source_power)])]
        amplitudes += [np.sqrt(b) for b in net.relay_budgets]
        for layer in range(1, net.num_layers + 1):
            powers = net.received_powers[layer - 1]
            assert powers is cached[layer - 1] and not powers.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                powers[0] = 1.0
            fresh = coherent_power(net.gain_matrices[layer - 1], amplitudes[layer - 1])
            np.testing.assert_array_equal(powers, fresh)


def test_safe_boxes_and_least_powers_cached_read_only_and_fresh():
    rng = np.random.default_rng(9)
    for n in range(20):
        net = random_network(rng, coherent=bool(n % 2))
        for layer, p in enumerate(net.received_powers, start=1):
            assert net.least_received_powers[layer - 1] == float(p.min())
        for layer in range(1, net.num_layers):
            p = net.received_powers[layer - 1]
            box = net.safe_boxes[layer - 1]
            assert box is net.safe_boxes[layer - 1] and not box.flags.writeable
            fresh = np.sqrt(net.relay_budgets[layer - 1] / ((1.0 + 1.0 / p) * p))
            np.testing.assert_array_equal(box, fresh)


def test_margins_read_receiving_layers_only():
    # A margin is the reciprocal of the least received power over its layers.
    net = build_network([1, 2, 1], [[[1.0], [0.5]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)
    p_rd = received_power(net, net.destination)
    assert regime_delta(net, RegimeSpec(1)) == 1.0 / p_rd
    assert high_snr_lower_bound(net) == anc_rate(p_rd / (1 + 4.0))  # 1:1 receives 0.25
    one_hop = build_network([1, 1], [[[2.0]]], [], 1.0)  # no relay layer: margin 0
    assert high_snr_lower_bound(one_hop) == mac_cutset(one_hop)


def test_analyze_pipeline_evaluates_each_layer_once(monkeypatch):
    # The network-from-dict -> schemes -> feasibility -> bounds pipeline on a
    # (6, 16) network evaluates the received-power formula once per layer.
    rng = np.random.default_rng(6)
    sizes = [1] + [16] * 5 + [1]
    data = network_to_dict(
        build_network(
            sizes,
            [rng.uniform(0.1, 2.0, (sizes[l + 1], sizes[l])) for l in range(6)],
            rng.uniform(0.5, 4.0, 80),
            float(rng.uniform(0.5, 4.0)),
        )
    )
    layers = []

    def counting(h, amplitudes):
        layers.append(h.shape)
        return coherent_power(h, amplitudes)

    monkeypatch.setattr(network_module, "coherent_power", counting)
    net = network_from_dict(data)
    full = full_power_gains(net)
    spec = RegimeSpec(exceptional_layer=3)
    matched, c1 = matched_gains(net, spec)
    assert check_feasible(net, full).exact_ok
    bounds_report(net, spec, matched, c1, scheme="generalized").to_dict()  # every column
    assert len(layers) == 6 and layers == [m.shape for m in net.gain_matrices]


def test_regime_delta_reciprocal_of_min():
    # two relay layers; exceptional layer 1 leaves layer 2 and the destination
    net = build_network(
        [1, 1, 1, 1], [[[10.0]], [[10.0]], [[10.0]]], [1.0, 1.0], 1.0
    )
    spec = RegimeSpec(exceptional_layer=1)
    # P_R at layer 2 node: (10*1)^2 = 100; at destination: 100
    assert regime_delta(net, spec) == pytest.approx(0.01)


def test_regime_delta_min_selection():
    net = build_network(
        [1, 1, 1, 1], [[[10.0]], [[math.sqrt(10.0)]], [[100.0]]], [1.0, 1.0], 1.0
    )
    spec = RegimeSpec(exceptional_layer=1)
    # layer-2 received power 10 is the minimum among layers 2 and 3
    assert regime_delta(net, spec) == pytest.approx(0.1)


def test_regime_delta_skips_exceptional_layer():
    net = build_network(
        [1, 2, 2, 1],
        [[[1.0], [1.0]], [[0.1, 0.1], [0.1, 0.1]], [[30.0, 30.0]]],
        [1.0] * 4,
        100.0,
    )
    spec = RegimeSpec(exceptional_layer=2)
    # weak layer-2 receptions are exempt; min is over layer 1 and destination
    layer1 = min(received_power(net, NodeId(1, i)) for i in range(2))
    dest = received_power(net, net.destination)
    assert regime_delta(net, spec) == pytest.approx(1.0 / min(layer1, dest))
    assert regime_delta(net, spec) < 1.0 / received_power(net, NodeId(2, 0))


def test_max_safe_gain_unit_case():
    net = chain_network(hops=2)  # P = 1, P_R = 1
    assert max_safe_gain(net, NodeId(1, 0)) == pytest.approx(1.0 / math.sqrt(2.0))


def test_max_safe_gain_arithmetic():
    # budget 2 into received power 100: sqrt(2 / (1.01 * 100))
    net = build_network([1, 1, 1], [[[10.0]], [[1.0]]], [2.0], 1.0)
    expected = math.sqrt(2.0 / (1.01 * 100.0))
    got = max_safe_gain(net, NodeId(1, 0))
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(0.14071950894605836, rel=1e-12)


def test_first_layer_equality_at_max_gain():
    rng = np.random.default_rng(19)
    for _ in range(40):
        net = random_network(rng, coherent=True)
        gains = GainAssignment.from_layers(box_limits(net))
        state = propagate_coefficients(net, gains)
        for i in range(net.layer_sizes[1]):
            k = NodeId(1, i)
            exact = state.transmit_powers(k.layer)[k.index]
            budget = net.relay_budgets[0][i]
            assert abs(exact - budget) <= 1e-12 * budget, f"{k}: {exact} vs {budget}"


def test_exact_transmit_power_chain():
    net = chain_network(hops=2)
    gains = GainAssignment.from_layers([[1.0]])
    assert exact_transmit_power(net, gains, NodeId(1, 0)) == pytest.approx(2.0)


def test_sufficient_condition_sound_for_coherent_networks():
    rng = np.random.default_rng(101)
    for _ in range(60):
        net = random_network(rng, coherent=True)
        gains = random_box_gains(rng, net)
        state = propagate_coefficients(net, gains)
        for k in net.relays():
            exact = state.transmit_powers(k.layer)[k.index]
            assert exact <= net.relay_budgets[k.layer - 1][k.index] + 1e-9


def test_sign_cancellation_defeats_sufficient_condition():
    # Two first-layer relays fed with opposite signs transmit strongly
    # anti-correlated signals.  The next hop's gains nearly cancel in the
    # full-budget received power but not for those signals, so its box safe
    # gain overshoots the true budget.  This pins the known limitation of
    # the signed received-power reading; the soundness suite therefore runs
    # on coherent networks.
    h0 = [[1.0], [-1.0]]
    h1 = [[1.0, -0.9]]
    h2 = [[1.0]]
    net = build_network([1, 2, 1, 1], [h0, h1, h2], [1.0, 1.0, 1.0], 1.0)
    gains = GainAssignment.from_layers(box_limits(net))
    report = check_feasible(net, gains)
    assert report.sufficient_ok  # every beta inside its box
    k = NodeId(2, 0)
    assert exact_transmit_power(net, gains, k) > net.relay_budgets[1][0] + 1e-9
    assert not report.exact_ok


def test_inflated_gain_can_pass_exact_but_fail_sufficient():
    # Upstream transmitting far below budget leaves downstream slack: the
    # box test fails at ten times the safe gain while the true power fits.
    h0 = [[1.0]]
    h1 = [[1.0]]
    h2 = [[1.0]]
    net = build_network([1, 1, 1, 1], [h0, h1, h2], [120.0, 1.0], 1.0)
    b_max = max_safe_gain(net, NodeId(2, 0))
    gains = GainAssignment.from_layers([[1e-3], [10.0 * b_max]])
    report = check_feasible(net, gains)
    i = report.nodes().index("2:0")
    assert not report.columns["sufficient_ok"][i]
    assert report.columns["exact_ok"][i]


def test_huge_gain_fails_exact():
    net = chain_network(hops=2)
    report = check_feasible(net, GainAssignment.from_layers([[50.0]]))
    assert not report.exact_ok


def test_all_max_gains_pass_sufficient():
    rng = np.random.default_rng(55)
    for _ in range(20):
        net = random_network(rng, coherent=True)
        report = check_feasible(net, GainAssignment.from_layers(box_limits(net)))
        assert report.sufficient_ok


def test_feasibility_report_serialization():
    net = diamond_network()
    report = check_feasible(net, GainAssignment.from_layers([[0.5, 0.5]]))
    csv = report.to_csv()
    assert csv.splitlines()[0] == "node,beta,beta_max,exact_power,budget,sufficient_ok,exact_ok"
    assert len(csv.splitlines()) == 3
    data = report.to_dict()
    assert data["sufficient_ok"] and data["exact_ok"]
    assert {row["node"] for row in data["nodes"]} == {"1:0", "1:1"}
    # a single hop has no relays: a header-only table and vacuous verdicts
    report = check_feasible(chain_network(hops=1), GainAssignment.from_layers([]))
    assert report.to_csv() == csv.splitlines()[0] + "\n"
    assert report.to_dict() == {"nodes": [], "sufficient_ok": True, "exact_ok": True}
