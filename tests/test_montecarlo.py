import numpy as np
import pytest

from anclab import (
    GainAssignment,
    NodeId,
    SimConfig,
    agreement_check,
    analytic_moments,
    destination_snr,
    exact_transmit_power,
    simulate,
)
from anclab.presets import chain_network, diamond_network
from conftest import random_box_gains, random_network


def test_chain_snr_within_three_stderr():
    net = chain_network(hops=2)
    gains = GainAssignment.from_layers([[1.0]])
    report = simulate(net, gains, SimConfig(samples=10**6, seed=12))
    analytic = destination_snr(net, gains)
    assert analytic == pytest.approx(0.5)
    assert abs(report.snr - analytic) <= 3.0 * report.snr_se


def test_zero_gains_give_unit_destination_variance():
    net = chain_network(hops=2)
    gains = GainAssignment.from_layers([[0.0]])
    report = simulate(net, gains, SimConfig(samples=200_000, seed=7))
    assert abs(report.snr) < 1e-2
    assert report.noise_power == pytest.approx(1.0, abs=0.02)
    assert report.transmit_power[NodeId(1, 0)] == 0.0


def test_transmit_powers_match_analytic_on_random_instances():
    rng = np.random.default_rng(71)
    for _ in range(5):
        net = random_network(rng, max_layers=4, max_width=4)
        gains = random_box_gains(rng, net, signed=True)
        report = simulate(net, gains, SimConfig(samples=200_000, seed=int(rng.integers(1 << 20))))
        for k in net.relays():
            expected = exact_transmit_power(net, gains, k)
            se = report.transmit_power_se[k]
            assert abs(report.transmit_power[k] - expected) <= 4.0 * se + 1e-12


def test_bit_identical_reports_for_fixed_seed():
    net = diamond_network()
    gains = GainAssignment.from_layers([[0.6, 0.4]])
    a = simulate(net, gains, SimConfig(samples=150_000, seed=5, workers=1))
    b = simulate(net, gains, SimConfig(samples=150_000, seed=5, workers=1))
    assert a.to_json() == b.to_json()


def test_worker_count_does_not_change_results():
    net = diamond_network()
    gains = GainAssignment.from_layers([[0.6, 0.4]])
    a = simulate(net, gains, SimConfig(samples=150_000, seed=5, workers=1))
    b = simulate(net, gains, SimConfig(samples=150_000, seed=5, workers=3))
    assert a.to_json() == b.to_json()


def test_seed_changes_results():
    net = diamond_network()
    gains = GainAssignment.from_layers([[0.6, 0.4]])
    a = simulate(net, gains, SimConfig(samples=50_000, seed=5))
    b = simulate(net, gains, SimConfig(samples=50_000, seed=6))
    assert a.snr != b.snr


def test_infeasible_gains_still_measured():
    net = chain_network(hops=2)
    gains = GainAssignment.from_layers([[10.0]])
    report = simulate(net, gains, SimConfig(samples=100_000, seed=3))
    expected = exact_transmit_power(net, gains, NodeId(1, 0))
    assert expected > net.budget(NodeId(1, 0))
    assert abs(report.transmit_power[NodeId(1, 0)] - expected) <= 4 * report.transmit_power_se[NodeId(1, 0)]


def test_agreement_check_passes_on_matching_values():
    net = chain_network(hops=2)
    gains = GainAssignment.from_layers([[1.0]])
    report = simulate(net, gains, SimConfig(samples=100_000, seed=2))
    result = agreement_check(report, analytic_moments(net, gains), z_threshold=4.0)
    assert result.ok
    assert {c.quantity for c in result.checks} == {"transmit_power", "source_coeff", "snr"}


def test_agreement_check_fails_on_perturbed_values():
    net = chain_network(hops=2)
    gains = GainAssignment.from_layers([[1.0]])
    report = simulate(net, gains, SimConfig(samples=100_000, seed=2))
    analytic = analytic_moments(net, gains)
    analytic["snr"] = analytic["snr"] + 10.0 * report.snr_se
    result = agreement_check(report, analytic, z_threshold=4.0)
    assert not result.ok
    failing = [c for c in result.checks if not c.ok]
    assert failing and all(c.quantity == "snr" for c in failing)


def test_agreement_check_rejects_mismatched_nodes():
    net = chain_network(hops=2)
    gains = GainAssignment.from_layers([[1.0]])
    report = simulate(net, gains, SimConfig(samples=10_000, seed=2))
    analytic = analytic_moments(net, gains)
    del analytic["transmit_power"][NodeId(1, 0)]
    with pytest.raises(ValueError, match="node sets"):
        agreement_check(report, analytic)


def test_report_serialization_shapes():
    net = diamond_network()
    gains = GainAssignment.from_layers([[0.5, 0.5]])
    report = simulate(net, gains, SimConfig(samples=20_000, seed=1))
    result = agreement_check(report, analytic_moments(net, gains))
    lines = result.to_csv().splitlines()
    assert lines[0] == "quantity,node,empirical,analytic,stderr,z,ok"
    assert sum(1 for l in lines if l.startswith("transmit_power")) == 3  # source + 2 relays


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(samples=0)
    with pytest.raises(ValueError):
        SimConfig(workers=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("workers", 1.5),
        ("samples", True),
        ("seed", -1),
        ("seed", 1.5),
        ("samples", 1.5),
        ("samples", float("nan")),
    ],
)
def test_bad_sim_config_field_named(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: value})
