import math

import numpy as np
import pytest

from anclab import (
    GainAssignment,
    NodeId,
    RegimeSpec,
    anc_rate,
    bounds_report,
    build_network,
    destination_snr,
    high_snr_lower_bound,
    ideal_snr,
    mac_cutset,
    matched_gains,
    rank_one_cutset,
    rate_lower_bound,
    rate_upper_bound,
    received_power,
)
from anclab.bounds import exceptional_power_sum, lower_bound_terms
from anclab.presets import (
    asymmetric_three_layer,
    chain_network,
    diamond_network,
    rescale_to_delta,
)
from conftest import near_cancelling_network, random_network


def test_anc_rate_values():
    assert anc_rate(0.0) == 0.0
    assert anc_rate(15.0) == pytest.approx(2.0)
    assert anc_rate(1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        anc_rate(-0.1)


def test_destination_snr_chain():
    net = chain_network(hops=2)
    assert destination_snr(net, GainAssignment.from_layers([[1.0]])) == pytest.approx(0.5)


def test_destination_snr_zero_gains():
    net = chain_network(hops=2)
    assert destination_snr(net, GainAssignment.from_layers([[0.0]])) == 0.0


def test_upper_bound_vector_self_product():
    # exceptional layer with received powers 7 and 8
    net = build_network(
        [1, 2, 1],
        [[[math.sqrt(7.0)], [math.sqrt(8.0)]], [[1.0, 1.0]]],
        [1.0, 1.0],
        1.0,
    )
    spec = RegimeSpec(exceptional_layer=1)
    assert exceptional_power_sum(net, spec) == pytest.approx(15.0)
    assert rate_upper_bound(net, spec) == pytest.approx(2.0)


def test_upper_bound_single_node_layer():
    net = chain_network(hops=2, gain=3.0, source_power=2.0)
    spec = RegimeSpec(exceptional_layer=1)
    assert rate_upper_bound(net, spec) == pytest.approx(anc_rate(18.0))


def test_upper_bound_rejects_destination_layer():
    net = chain_network(hops=2)
    with pytest.raises(ValueError):
        rate_upper_bound(net, RegimeSpec(exceptional_layer=2))


def test_lower_bound_zero_margin_closed_form():
    net = asymmetric_three_layer()
    spec = RegimeSpec(exceptional_layer=2)
    _, params = matched_gains(net, spec)
    s = exceptional_power_sum(net, spec)
    rate, c2, c3 = lower_bound_terms(net, spec, params, delta=0.0)
    assert c2 == 1.0  # geometric sum empty at the last relay layer
    assert c3 == pytest.approx(1.0 + 1.0 / (params.c1**2 * s), rel=1e-12)
    assert rate == pytest.approx(anc_rate(s / c3), rel=1e-12)


def test_lower_bound_first_layer_exponent_vanishes():
    # exceptional layer 1 leaves no upstream attenuation term
    net = build_network(
        [1, 2, 1, 1],
        [[[1.0], [1.2]], [[1.0, 0.8]], [[5.0]]],
        [1.0, 1.0, 2.0],
        4.0,
    )
    spec = RegimeSpec(exceptional_layer=1)
    _, params = matched_gains(net, spec)
    s = exceptional_power_sum(net, spec)
    delta = 0.05
    rate, c2, c3 = lower_bound_terms(net, spec, params, delta=delta)
    p_rd = received_power(net, net.destination)
    assert c2 == pytest.approx(1.0 + delta * p_rd / (1.0 + delta), rel=1e-12)
    assert rate == pytest.approx(anc_rate(s / c3), rel=1e-12)


def test_sandwich_on_random_regime_instances():
    rng = np.random.default_rng(23)
    for _ in range(60):
        net = random_network(rng, coherent=True)
        l = int(rng.integers(1, net.num_layers))
        spec = RegimeSpec(exceptional_layer=l)
        gains, params = matched_gains(net, spec)
        achieved = anc_rate(destination_snr(net, gains))
        assert rate_lower_bound(net, spec, params) - 1e-9 <= achieved
        assert achieved <= rate_upper_bound(net, spec) + 1e-9


def test_mac_cutset_values():
    net = chain_network(hops=2, gain=1.0, budget=15.0)
    assert mac_cutset(net) == pytest.approx(2.0)
    assert mac_cutset(diamond_network()) == pytest.approx(0.5 * math.log2(5.0))


def test_high_snr_lower_bound_single_hop_equals_cutset():
    net = chain_network(hops=1, gain=2.0, source_power=3.0)
    assert high_snr_lower_bound(net) == mac_cutset(net)


def test_high_snr_lower_bound_formula():
    # margin 1 at the single relay: rate of P_R_D / 2
    net = chain_network(hops=2, gain=1.0, budget=3.0, source_power=1.0)
    assert high_snr_lower_bound(net) == pytest.approx(anc_rate(1.5))


def test_high_snr_gap_shrinks_with_margin():
    gaps = []
    for scale in [1.0, 10.0, 100.0, 1000.0]:
        net = chain_network(hops=2, gain=1.0, budget=2.0, source_power=scale)
        gaps.append(mac_cutset(net) - high_snr_lower_bound(net))
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_rank_one_outer_product_matches_upper_bound():
    rng = np.random.default_rng(41)
    for _ in range(20):
        u = rng.uniform(0.3, 1.5, 3)
        v = rng.uniform(0.3, 1.5, 2)
        net = build_network(
            [1, 2, 3, 1],
            [[[1.0], [1.0]], np.outer(u, v), [[1.0, 1.0, 1.0]]],
            [1.0] * 5,
            1.0,
        )
        spec = RegimeSpec(exceptional_layer=2)
        cut = rank_one_cutset(net, spec)
        assert cut is not None
        assert abs(cut - rate_upper_bound(net, spec)) <= 1e-12


def test_rank_one_absent_for_generic_matrix():
    net = asymmetric_three_layer()
    assert rank_one_cutset(net, RegimeSpec(exceptional_layer=2)) is None


def test_rank_one_single_feeding_node():
    net = build_network(
        [1, 1, 2, 1],
        [[[1.0]], [[1.0], [0.7]], [[1.0, 1.0]]],
        [1.0, 1.0, 1.0],
        1.0,
    )
    spec = RegimeSpec(exceptional_layer=2)
    assert rank_one_cutset(net, spec) == pytest.approx(rate_upper_bound(net, spec))


def test_ideal_snr_dominates_true_snr():
    rng = np.random.default_rng(37)
    for _ in range(40):
        net = random_network(rng)
        gains = GainAssignment.from_layers(
            [rng.uniform(-1.0, 1.0, net.layer_sizes[l]) for l in range(1, net.num_layers)]
        )
        snr = destination_snr(net, gains)
        for l in range(1, net.num_layers):
            try:
                assert ideal_snr(net, gains, l) >= snr - 1e-12
            except ValueError:
                pass  # no layer-l noise reaches the destination


def test_ideal_snr_rejects_cancelled_noise():
    # Layer-1 node 0's noise reaches the destination through 2 + (-2 + eps):
    # residue at eps = 1e-13 (it used to give SNR 10000), a real path at 1e-9.
    gains = GainAssignment.from_layers([[1.0, 0.0], [2.0, 1.0]])
    for eps in (0.0, 1e-13):
        with pytest.raises(ValueError, match="no noise from layer 1 reaches the destination"):
            ideal_snr(near_cancelling_network(eps), gains, 1)
    assert ideal_snr(near_cancelling_network(1e-9), gains, 1) == 10000.0


def test_ideal_snr_scale_invariant_at_last_relay_layer():
    net = asymmetric_three_layer()
    gains, _ = matched_gains(net, RegimeSpec(exceptional_layer=2))
    base = ideal_snr(net, gains, 2)
    doubled = GainAssignment.from_layers([gains.layers[0], 2.0 * gains.layers[1]])
    scaled = ideal_snr(net, doubled, 2)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_ideal_snr_approaches_power_sum():
    # vanishing margin with fixed exceptional received powers
    base = asymmetric_three_layer()
    spec = RegimeSpec(exceptional_layer=2)
    s = exceptional_power_sum(base, spec)
    previous_error = None
    for delta in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
        net = rescale_to_delta(base, 2, delta)
        gains, _ = matched_gains(net, spec)
        error = abs(ideal_snr(net, gains, 2) - s) / s
        if previous_error is not None:
            assert error < previous_error
        previous_error = error
    assert previous_error < 1e-4


def test_bounds_report_serialization():
    net = asymmetric_three_layer()
    spec = RegimeSpec(exceptional_layer=2)
    gains, params = matched_gains(net, spec)
    report = bounds_report(net, spec, gains, params, scheme="generalized")
    assert report.lower_bound - 1e-9 <= report.achieved_rate <= report.upper_bound + 1e-9
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("scheme,snr,achieved_rate")
    data = report.to_dict()
    assert data["rank_one_cutset"] is None
    assert data["scheme"] == "generalized"


def test_lower_bound_signed_counterexample():
    # The sandwich holds for nonnegative gains only: here the matched scheme
    # achieves about 0.02697 bits against a closed-form lower bound of 0.02944.
    net = near_cancelling_network(0.5)
    spec = RegimeSpec(exceptional_layer=1)
    gains, params = matched_gains(net, spec)
    achieved = anc_rate(destination_snr(net, gains))
    lower = rate_lower_bound(net, spec, params)
    assert achieved == pytest.approx(0.02697, abs=1e-5)
    assert lower == pytest.approx(0.02944, abs=1e-5)
    assert lower > achieved
