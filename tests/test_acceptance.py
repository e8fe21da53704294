"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
one-line verdict (visible with -s; the -v test line carries the same
verdict).  Randomized suites use fixed seeds, and coherent (positive-gain)
networks wherever a claim relies on constructive signal combining; see
tests/test_power.py for the pinned counterexample that motivates this.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from anclab import (
    GainAssignment,
    NodeId,
    OptimizerConfig,
    RegimeSpec,
    agreement_check,
    analytic_moments,
    anc_rate,
    build_network,
    destination_snr,
    full_power_gains,
    matched_gains,
    optimize_gains,
    propagate_coefficients,
    rank_one_cutset,
    rate_lower_bound,
    rate_upper_bound,
    regime_delta,
    save_gains,
    save_network,
    simulate,
    SimConfig,
)
from anclab.bounds import exceptional_power_sum, lower_bound_terms
from anclab.cli import main
from anclab.oracle import path_coefficient
from anclab.presets import (
    asymmetric_three_layer,
    chain_network,
    rescale_to_delta,
    wide_bottleneck_network,
)
from conftest import box_limits, random_box_gains, random_network, swept_coefficients


def _verdict(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_c01_transmit_power_soundness():
    """Safe-gain boxes keep every node inside its budget on 200 random nets."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_excess = -np.inf
    worst_first_layer = 0.0
    for _ in range(200):
        net = random_network(rng, max_layers=5, max_width=6, coherent=True)
        limits = box_limits(net)
        for gains in (
            random_box_gains(rng, net),
            GainAssignment.from_layers(limits),
        ):
            state = propagate_coefficients(net, gains)
            for k in net.relays():
                budget = net.relay_budgets[k.layer - 1][k.index]
                excess = state.transmit_powers(k.layer)[k.index] - budget
                worst_excess = max(worst_excess, excess)
                assert excess <= 1e-9, f"{k} exceeds budget by {excess}"
        # second assignment has every first-layer node at its box edge
        gains = GainAssignment.from_layers(limits)
        state = propagate_coefficients(net, gains)
        for i in range(net.layer_sizes[1]):
            k = NodeId(1, i)
            budget = net.relay_budgets[0][i]
            rel = abs(state.transmit_powers(k.layer)[k.index] - budget) / budget
            worst_first_layer = max(worst_first_layer, rel)
            assert rel <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _verdict(
        "criterion 1 (power soundness)",
        f"worst excess {worst_excess:.2e} <= 1e-9, first-layer equality "
        f"{worst_first_layer:.2e} <= 1e-12, {elapsed:.2f}s",
    )


def test_c02_coefficient_oracle_equivalence():
    """Layered sweep equals brute-force path enumeration on 100 random nets."""
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        net = random_network(rng, max_layers=4, max_width=5)
        gains = GainAssignment.from_layers(
            [rng.uniform(-1.5, 1.5, net.layer_sizes[l]) for l in range(1, net.num_layers)]
        )
        swept = swept_coefficients(net, gains)
        for origin in [net.source] + list(net.relays()):
            for k in net.nodes():
                if k.layer <= origin.layer:
                    continue
                dp = swept[origin, k]
                oracle = path_coefficient(net, gains, origin, k)
                err = abs(dp - oracle) / max(1.0, abs(oracle))
                worst = max(worst, err)
                assert err <= 1e-12, f"{origin}->{k}: {dp} vs {oracle}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _verdict(
        "criterion 2 (oracle equivalence)",
        f"worst relative error {worst:.2e} <= 1e-12, {elapsed:.2f}s",
    )


def test_c03_monte_carlo_agreement():
    """Empirical moments sit within 4 stderr on 20 instances at 1e6 samples."""
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    strict_pass = 0
    strict_total = 0
    for trial in range(20):
        net = random_network(rng, max_layers=5, max_width=6)
        gains = random_box_gains(rng, net, signed=True)
        report = simulate(
            net, gains, SimConfig(samples=10**6, seed=9000 + trial, workers=2)
        )
        analytic = analytic_moments(net, gains)
        loose = agreement_check(report, analytic, z_threshold=4.0)
        assert loose.ok, [c for c in loose.checks if not c.ok]
        tight = agreement_check(report, analytic, z_threshold=3.0)
        strict_pass += sum(c.ok for c in tight.checks)
        strict_total += len(tight.checks)
    elapsed = time.perf_counter() - start
    rate = strict_pass / strict_total
    assert rate >= 0.95, f"only {rate:.3f} of checks inside 3 stderr"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _verdict(
        "criterion 3 (simulation agreement)",
        f"all checks inside 4 se, {rate:.1%} inside 3 se "
        f"({strict_pass}/{strict_total}), {elapsed:.1f}s",
    )


def test_c04_rate_sandwich():
    """Matched-scheme rate lies between the closed-form bounds, 100 instances."""
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    worst_low = -np.inf
    worst_high = -np.inf
    for _ in range(100):
        net = random_network(rng, coherent=True)
        l = int(rng.integers(1, net.num_layers))
        spec = RegimeSpec(exceptional_layer=l)
        gains, c1 = matched_gains(net, spec)
        achieved = anc_rate(destination_snr(net, gains))
        lower = rate_lower_bound(net, spec, c1)
        upper = rate_upper_bound(net, spec)
        worst_low = max(worst_low, lower - achieved)
        worst_high = max(worst_high, achieved - upper)
        assert lower - 1e-9 <= achieved <= upper + 1e-9, (lower, achieved, upper)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _verdict(
        "criterion 4 (rate sandwich)",
        f"worst lower slack {worst_low:.2e}, worst upper slack {worst_high:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_c05_margin_convergence():
    """Bound gap shrinks monotonically and vanishes with the regime margin."""
    base = asymmetric_three_layer()
    spec = RegimeSpec(exceptional_layer=2)
    gaps = []
    for delta in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
        net = rescale_to_delta(base, 2, delta)
        _, c1 = matched_gains(net, spec)
        gaps.append(rate_upper_bound(net, spec) - rate_lower_bound(net, spec, c1))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.01, gaps[-1]
    _verdict(
        "criterion 5 (margin convergence)",
        f"gap decreasing {gaps[0]:.3g} -> {gaps[-1]:.3g} < 0.01 bits",
    )


def test_c06_relay_count_convergence():
    """Gap to the bound shrinks with the bottleneck width at budget 2."""
    gaps = {}
    for n in range(2, 51):
        net = wide_bottleneck_network(n, relay_budget=2.0)
        spec = RegimeSpec(exceptional_layer=2)
        gains, _ = matched_gains(net, spec)
        gaps[n] = rate_upper_bound(net, spec) - anc_rate(destination_snr(net, gains))
    assert all(gaps[n] < 1.0 for n in range(6, 51)), "gap >= 1 bit for some n > 5"
    assert all(gaps[n] < 0.2 for n in range(41, 51)), "gap >= 0.2 bit for some n > 40"
    assert all(gaps[n + 1] < gaps[n] for n in range(5, 50)), "gap not monotone"
    _verdict(
        "criterion 6 (relay-count convergence)",
        f"gap(6)={gaps[6]:.3f} < 1, gap(41)={gaps[41]:.3f} < 0.2, monotone for n >= 5",
    )


def test_c07_source_power_trend():
    """Matched scheme tracks the bound as the source power grows; the
    full-power gap settles to a constant."""
    spec = RegimeSpec(exceptional_layer=2)
    grid = [10.0 ** (k / 2.0) for k in range(0, 11)]  # 1 .. 1e5
    gap_matched = {}
    gap_full = {}
    for p_s in grid:
        net = asymmetric_three_layer(source_power=p_s)
        gains, _ = matched_gains(net, spec)
        upper = rate_upper_bound(net, spec)
        gap_matched[p_s] = upper - anc_rate(destination_snr(net, gains))
        gap_full[p_s] = upper - anc_rate(destination_snr(net, full_power_gains(net)))
    assert all(gap_matched[p] < 1.0 for p in grid if p > 10.0)
    assert all(gap_matched[p] < 0.1 for p in grid if p > 100.0)
    tail = [gap_full[p] for p in grid if 1e3 <= p <= 1e5]
    variance = float(np.var(tail))
    assert variance < 0.01, variance
    _verdict(
        "criterion 7 (source-power trend)",
        f"matched gap {max(gap_matched[p] for p in grid if p > 100):.3f} < 0.1 "
        f"beyond 100, full-power gap ~{np.mean(tail):.2f} bits with variance "
        f"{variance:.1e} < 0.01",
    )


def test_c08_optimizer_dominance_and_near_optimality():
    """Optimizer never trails the schemes; in deep high-SNR it confirms the
    matched scheme within 0.05 bits."""
    rng = np.random.default_rng(1008)
    start = time.perf_counter()
    checked = 0
    for _ in range(35):
        net = random_network(rng, max_layers=4, max_width=4)
        best_scheme = destination_snr(net, full_power_gains(net))
        for l in range(1, net.num_layers):
            try:
                g, _ = matched_gains(net, RegimeSpec(exceptional_layer=l))
            except ValueError:
                continue
            best_scheme = max(best_scheme, destination_snr(net, g))
        _, snr = optimize_gains(net, OptimizerConfig(restarts=2, seed=42))
        assert snr >= best_scheme - 1e-9
        checked += 1

    worst_gap = 0.0
    for _ in range(15):
        base = random_network(rng, max_layers=3, max_width=4, coherent=True)
        l = base.num_layers - 1
        net = rescale_to_delta(base, l, 1e-4)
        spec = RegimeSpec(exceptional_layer=l)
        gains, _ = matched_gains(net, spec)
        scheme_rate = anc_rate(destination_snr(net, gains))
        _, snr = optimize_gains(net, OptimizerConfig(restarts=2, seed=42))
        assert snr >= destination_snr(net, gains) - 1e-9
        gap = anc_rate(snr) - scheme_rate
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.05, gap
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _verdict(
        "criterion 8 (optimizer baseline)",
        f"{checked} instances dominated; high-SNR optimality gap "
        f"{worst_gap:.3f} <= 0.05 bits, {elapsed:.1f}s",
    )


def test_c09_rank_one_cutset_coincidence():
    """Rank-one feeding hop makes the cut-set value equal the upper bound."""
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(25):
        width_in = int(rng.integers(1, 5))
        width_out = int(rng.integers(1, 5))
        u = rng.uniform(0.3, 1.5, width_out)
        v = rng.uniform(0.3, 1.5, width_in)
        net = build_network(
            [1, width_in, width_out, 1],
            [
                rng.uniform(0.3, 1.5, (width_in, 1)),
                np.outer(u, v),
                rng.uniform(0.3, 1.5, (1, width_out)),
            ],
            rng.uniform(0.5, 4.0, width_in + width_out),
            float(rng.uniform(0.5, 4.0)),
        )
        spec = RegimeSpec(exceptional_layer=2)
        cut = rank_one_cutset(net, spec)
        assert cut is not None
        diff = abs(cut - rate_upper_bound(net, spec))
        worst = max(worst, diff)
        assert diff <= 1e-12
    _verdict(
        "criterion 9 (rank-one cut set)",
        f"25 constructed instances coincide, worst difference {worst:.2e} <= 1e-12",
    )


def test_c10_deterministic_outputs(tmp_path):
    """Fixed seeds reproduce simulate and sweep outputs byte for byte."""
    net_file = tmp_path / "net.json"
    save_network(asymmetric_three_layer(), str(net_file))
    chain_file = tmp_path / "chain.json"
    save_network(chain_network(hops=2), str(chain_file))
    gains_file = tmp_path / "gains.json"
    save_gains(chain_network(hops=2), GainAssignment.from_layers([[1.0]]), str(gains_file))
    wide_file = tmp_path / "wide.json"
    save_network(wide_bottleneck_network(1), str(wide_file))

    pairs = []
    sim_args = [
        "simulate", "--network", str(chain_file), "--gains", str(gains_file),
        "--samples", "60000", "--seed", "77", "--format", "json",
    ]
    pairs.append((sim_args, sim_args + ["--workers", "3"]))
    sweep_ps = [
        "sweep-ps", "--network", str(net_file), "--layer", "2",
        "--grid", "10,100,1000,10000",
    ]
    pairs.append((sweep_ps, sweep_ps))
    sweep_n = ["sweep-n", "--network", str(wide_file), "--grid", "2,5,10"]
    pairs.append((sweep_n, sweep_n))
    sweep_d = [
        "sweep-delta", "--network", str(net_file), "--layer", "2",
        "--grid", "1e-2,1e-3,1e-4",
    ]
    pairs.append((sweep_d, sweep_d))

    for idx, (args_a, args_b) in enumerate(pairs):
        out_a = tmp_path / f"a{idx}.out"
        out_b = tmp_path / f"b{idx}.out"
        assert main(args_a + ["--out", str(out_a)]) == 0
        assert main(args_b + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), f"run {idx} differs"
    _verdict(
        "criterion 10 (determinism)",
        "simulate (across worker counts) and all three sweeps byte-identical",
    )


def test_c11_asymptotic_gap_and_its_condition():
    """The bound gap is (delta*s + c2/(c1^2 s)) / (2 ln 2) to first order, so it
    vanishes as s grows only while delta*s -> 0.

    On wide_bottleneck_network(n) with exceptional layer 2, s = 4n, c2 = 1,
    c1^2 = 0.1 and delta = 1/min(P_s, 2n^2).  At P_s = 1e9 every n below
    22 360 has delta*s = 2/n, so n*gap -> 4.5 / (2 ln 2); at P_s = 1e6 the
    margin stops shrinking at n = 708, and the gap has its minimum near
    n* = sqrt(2.5 / 4e-6) = 790 and grows after it.  Below n = 50, delta*s
    nears 1 and the first-order form does not hold, so no claim is made there.
    """
    spec = RegimeSpec(exceptional_layer=2)
    widths = [50, 100, 500, 800, 1000, 3000, 10000]
    gaps = {}
    worst = 0.0
    for p_s in (1e6, 1e9):
        for n in widths:
            net = wide_bottleneck_network(n, source_power=p_s)
            _, c1 = matched_gains(net, spec)
            _, c2, _ = lower_bound_terms(net, spec, c1)
            gap = rate_upper_bound(net, spec) - rate_lower_bound(net, spec, c1)
            s = exceptional_power_sum(net, spec)
            first_order = (regime_delta(net, spec) * s + c2 / (c1**2 * s)) / math.log(4)
            deviation = abs(gap / first_order - 1.0)
            assert deviation < 0.05, (p_s, n, gap, first_order)
            worst = max(worst, deviation)
            gaps[p_s, n] = gap

    limit = 4.5 / math.log(4)
    scaled = [n * gaps[1e9, n] for n in widths]
    assert all(a < b < limit for a, b in zip(scaled, scaled[1:])), scaled
    assert scaled[-1] == pytest.approx(limit, rel=1e-3)

    fixed = [gaps[1e6, n] for n in widths]
    assert min(fixed) == gaps[1e6, 800], fixed
    assert all(a > b for a, b in zip(fixed, fixed[1:3])), fixed  # falls up to n = 800
    assert all(a < b for a, b in zip(fixed[3:], fixed[4:])), fixed  # and grows after it
    assert gaps[1e6, 10000] > gaps[1e6, 500]
    _verdict(
        "criterion 11 (asymptotic gap)",
        f"gap within {worst:.1%} of its first-order form for n in 50..10000; "
        f"n*gap -> {scaled[-1]:.4f} (limit {limit:.4f}) at P_s = 1e9, "
        f"minimum at n = 800 at P_s = 1e6",
    )
