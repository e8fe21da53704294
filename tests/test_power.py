import math

import numpy as np
import pytest

import anclab.network as network_module
from anclab import (
    GainAssignment,
    NodeId,
    RegimeSpec,
    bounds_report,
    build_network,
    check_feasible,
    exact_transmit_power,
    full_power_gains,
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
from anclab.power import power_margin, received_powers, safe_gains
from anclab.presets import chain_network, diamond_network, rescale_to_delta
from conftest import box_limits, cancelling_destination_network, random_box_gains, random_network


def test_received_power_single_relay():
    net = build_network([1, 1, 1], [[[2.0]], [[1.0]]], [1.0], 4.0)
    assert received_power(net, NodeId(1, 0)) == pytest.approx(16.0)


def test_received_power_sign_cancellation():
    net = build_network([1, 2, 1], [[[1.0], [1.0]], [[1.0, -1.0]]], [1.0, 1.0], 1.0)
    assert received_power(net, net.destination) == 0.0
    with pytest.raises(ValueError, match="reciprocal"):
        node_delta(net, net.destination)


def test_received_power_near_cancellation_is_zero():
    # 0.1 + 0.2 - 0.3 leaves about 5.6e-17 in floating point: residue, not
    # power, so the zero-power errors fire instead of huge boxes and margins.
    sum_in = [[1.0], [1.0], [1.0]]
    net = build_network([1, 3, 1], [sum_in, [[0.1, 0.2, -0.3]]], [1.0] * 3, 1.0)
    assert received_power(net, net.destination) == 0.0
    with pytest.raises(ValueError, match="reciprocal"):
        node_delta(net, net.destination)
    with pytest.raises(ValueError, match="regime margin undefined"):
        regime_delta(net, RegimeSpec(exceptional_layer=1))

    net = build_network(
        [1, 3, 1, 1], [sum_in, [[0.1, 0.2, -0.3]], [[1.0]]], [1.0] * 4, 1.0
    )
    assert received_power(net, NodeId(2, 0)) == 0.0
    with pytest.raises(ValueError, match="no safe gain"):
        max_safe_gain(net, NodeId(2, 0))


def test_source_receives_nothing():
    net = diamond_network()
    message = r"^layer 0 receives nothing; receiving layers are 1\.\.2$"
    with pytest.raises(ValueError, match=message):
        received_power(net, net.source)


def test_rescale_to_delta_reports_zero_power_by_node():
    message = "^received power at 2:0 is zero; no rescaling reaches the margin$"
    with pytest.raises(ValueError, match=message):
        rescale_to_delta(cancelling_destination_network(), 1, 0.1)


def test_received_power_coherent_diamond():
    net = diamond_network()
    assert received_power(net, net.destination) == pytest.approx(4.0)


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
            powers = received_powers(net, layer)
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
            assert net.least_received_powers[layer - 1] == (float(p.min()) if p.all() else 0.0)
        for layer in range(1, net.num_layers):
            p = net.received_powers[layer - 1]
            if not p.all():
                assert net.safe_boxes[layer - 1] is None
                continue
            box = safe_gains(net, layer)
            assert box is net.safe_boxes[layer - 1] and not box.flags.writeable
            fresh = np.sqrt(net.relay_budgets[layer - 1] / ((1.0 + 1.0 / p) * p))
            np.testing.assert_array_equal(box, fresh)


def test_cached_box_and_margin_keep_zero_power_errors():
    sum_in = [[1.0], [1.0], [1.0]]  # 2:0 receives the residue of 0.1 + 0.2 - 0.3
    net = build_network([1, 3, 1, 1], [sum_in, [[0.1, 0.2, -0.3]], [[1.0]]], [1.0] * 4, 1.0)
    for delta in (None, 0.1):
        with pytest.raises(ValueError, match="^received power at 2:0 is zero; no safe gain"):
            safe_gains(net, 2, delta)
    message = "^received power at 2:0 is zero; regime margin undefined$"
    with pytest.raises(ValueError, match=message):
        regime_delta(net, RegimeSpec(exceptional_layer=1))
    with pytest.raises(ValueError, match=message):
        power_margin(net, [1, 2, 3])
    with pytest.raises(ValueError, match="^layer 0 receives nothing"):
        power_margin(net, [0])


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
    matched, params = matched_gains(net, spec)
    assert check_feasible(net, full).exact_ok
    bounds_report(net, spec, matched, params, scheme="generalized")
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
            exact = exact_transmit_power(net, gains, k, state=state)
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
            exact = exact_transmit_power(net, gains, k, state=state)
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
    entry = {e.node: e for e in report.entries}[NodeId(2, 0)]
    assert not entry.sufficient_ok
    assert entry.exact_ok


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
