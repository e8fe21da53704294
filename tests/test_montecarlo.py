import tracemalloc

import numpy as np
import pytest

from anclab import (
    GainAssignment,
    build_network,
    NodeId,
    SimConfig,
    agreement_check,
    analytic_moments,
    destination_snr,
    exact_transmit_power,
    simulate,
)
from anclab.montecarlo import _PASS, _block_sums
from anclab.presets import chain_network, diamond_network
from conftest import per_node_block_sums, random_box_gains, random_network


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
    assert expected > net.relay_budgets[0][0]
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
        ("samples", 1),
    ],
)
def test_bad_sim_config_field_named(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: value})


# Block sizes around the pass length, and 7232, the tail block of 40 000 samples.
BLOCK_SIZES = [1, 2, _PASS - 1, _PASS, _PASS + 1, 7232, 2**15]


def kernel_cases():
    rng = np.random.default_rng(29)
    yield chain_network(hops=3), GainAssignment.from_layers([[0.7], [-1.1]])
    for _ in range(3):
        net = random_network(rng, max_layers=4, max_width=6)
        yield net, random_box_gains(rng, net, signed=True)


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_block_sums_match_per_node_loop(size):
    for seed, (net, gains) in enumerate(kernel_cases()):
        betas = [gains.layer_array(net, layer) for layer in range(1, net.num_layers)]
        node, dest = _block_sums(net, betas, seed, 3, size)
        ref_node, ref_dest = per_node_block_sums(net, betas, seed, 3, size)
        np.testing.assert_allclose(node, ref_node, rtol=1e-12)
        np.testing.assert_allclose(dest, ref_dest, rtol=1e-12)


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_pass_continuation_equals_one_draw(size):
    key = [11, 2, 1, 5]  # (seed, layer, index, block)
    whole = np.random.default_rng(key).standard_normal(size)
    rng = np.random.default_rng(key)
    passes = np.empty(size)
    for start in range(0, size, _PASS):
        rng.standard_normal(out=passes[start : start + _PASS])
    assert passes.tobytes() == whole.tobytes()


def test_block_memory_is_pass_sized():
    """One 2^15-sample block on 32 relays peaks near its 2^11-sample pass
    buffers (about 1 MB), far below whole-block arrays (about 20 MB)."""
    rng = np.random.default_rng(16)
    sizes = [1, 16, 16, 1]
    matrices = [
        rng.uniform(0.1, 2.0, (m, k)) * rng.choice([-1.0, 1.0], (m, k))
        for k, m in zip(sizes, sizes[1:])
    ]
    net = build_network(sizes, matrices, rng.uniform(0.5, 4.0, 32), 2.0)
    gains = random_box_gains(rng, net, signed=True)
    tracemalloc.start()
    try:
        simulate(net, gains, SimConfig(samples=2**15, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
