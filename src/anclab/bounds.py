"""Achieved rate and closed-form rate bounds.

All rates are in bits per channel use, logarithms base 2.  The upper bound
comes from an idealized network in which every layer except the exceptional
one is noiseless; the lower bound is the closed-form rate guaranteed for
the matched scheme.  Both are functions of the exceptional layer's received
powers and the regime margin.  With nonnegative channel gains a valid
instance sandwiches its achieved rate between them; signed gains can lift
the lower bound above it (tests/test_bounds.py keeps a counterexample).

When the bounds coincide: to first order, upper - lower is about
((l - 1) * delta * s + c2 / (c1**2 * s)) / (2 ln 2) for exceptional layer l,
with s its summed received power and delta the regime margin; for l = 2 that
is (delta * s + c2 / (c1**2 * s)) / (2 ln 2).  So a growing s closes the gap
only while delta * s -> 0; at a fixed margin the gap has a minimum in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import CodingState, destination_rows, propagate_coefficients
from .gains import GainAssignment
from .network import _CANCEL_RTOL, LayeredNetwork, RegimeSpec
from .power import power_margin, received_power, received_powers, regime_delta
from .report import as_json, records_csv
from .schemes import SchemeParams


def anc_rate(snr: float) -> float:
    """Gaussian channel rate 0.5 * log2(1 + snr) in bits per channel use."""
    if snr < 0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    return 0.5 * math.log1p(snr) / math.log(2.0)


def destination_snr(
    net: LayeredNetwork, gains: GainAssignment, state: CodingState | None = None
) -> float:
    """Exact SNR at the destination: signal power over propagated plus local noise."""
    if state is None:
        state = propagate_coefficients(net, gains)
    f = float(state.source[-1][0])
    return f * f * net.source_power / float(state.noise[-1][0])


def ideal_snr(net: LayeredNetwork, gains: GainAssignment, noisy_layer: int) -> float:
    """Destination SNR when only one layer injects noise.

    All other noise sources, including the destination's own, are zeroed;
    this idealization can only raise the SNR, so it dominates the true one
    for any gain assignment.  A noise coefficient no larger than 1e-12 times
    the same product taken on |H| and |beta| is cancellation residue and
    counts as zero.
    """
    net.require_relay_layer(noisy_layer, "noisy layer")
    state = propagate_coefficients(net, gains)
    f = float(state.source[-1][0])
    beta = state.betas[noisy_layer]
    noise = beta * state.rows[noisy_layer]
    abs_rows = destination_rows(net, [*map(np.abs, state.betas)], [*map(np.abs, net.gain_matrices)])
    scale = np.abs(beta) * abs_rows[noisy_layer]
    noise[np.abs(noise) <= _CANCEL_RTOL * scale] = 0.0
    denom = float(noise @ noise)
    if denom == 0.0:
        raise ValueError(f"no noise from layer {noisy_layer} reaches the destination")
    return f * f * net.source_power / denom


def exceptional_power_sum(net: LayeredNetwork, spec: RegimeSpec) -> float:
    """Sum of received powers over the exceptional layer."""
    spec.validate(net)
    return float(np.sum(received_powers(net, spec.exceptional_layer)))


def rate_upper_bound(net: LayeredNetwork, spec: RegimeSpec) -> float:
    """Capacity upper bound 0.5 * log2(1 + sum of exceptional received powers)."""
    return anc_rate(exceptional_power_sum(net, spec))


def lower_bound_terms(
    net: LayeredNetwork,
    spec: RegimeSpec,
    params: SchemeParams,
    delta: float | None = None,
) -> tuple[float, float, float]:
    """Lower-bound value and its noise constants (rate, c2, c3).

    The rate is below the matched scheme's only for nonnegative channel
    gains.  delta defaults to the regime margin of the network;
    passing an explicit value evaluates the closed form at that margin (0
    gives the ideal case, where the geometric noise sum vanishes).
    """
    l = spec.exceptional_layer
    if params.c1 <= 0:
        raise ValueError(f"matched-scheme constant must be positive, got {params.c1}")
    if delta is None:
        delta = regime_delta(net, spec)
    s = exceptional_power_sum(net, spec)
    p_rd = received_power(net, net.destination)

    c2 = 1.0
    for d in range(1, net.num_layers - l):
        c2 += delta * p_rd / (1.0 + delta) ** d
    c3 = 1.0 + c2 / (params.c1 ** 2 * s)
    attenuation = (1.0 + delta) ** (l - 1)
    numerator = s / attenuation
    denominator = (1.0 - 1.0 / attenuation) * s + c3
    return anc_rate(numerator / denominator), c2, c3


def rate_lower_bound(
    net: LayeredNetwork,
    spec: RegimeSpec,
    params: SchemeParams,
    delta: float | None = None,
) -> float:
    """Guaranteed rate of the matched scheme in the given regime."""
    return lower_bound_terms(net, spec, params, delta=delta)[0]


def mac_cutset(net: LayeredNetwork) -> float:
    """Multiple-access cut bound at the destination, 0.5 * log2(1 + P_R_D)."""
    return anc_rate(received_power(net, net.destination))


def high_snr_lower_bound(net: LayeredNetwork) -> float:
    """Closed-form rate of [4]'s full-power scheme when every relay has large received power.

    Equals the MAC cut bound shrunk by one margin factor per relay hop; the
    two coincide as the margin vanishes (and exactly for a single hop).
    """
    delta = power_margin(net, range(1, net.num_layers))
    p_rd = received_power(net, net.destination)
    return anc_rate(p_rd / (1.0 + delta) ** (net.num_layers - 1))


_RANK_ONE_SV_RATIO = 1e-10


def rank_one_cutset(net: LayeredNetwork, spec: RegimeSpec) -> float | None:
    """Cut-set capacity across the exceptional layer when the feeding hop is rank one.

    Treats the hop matrix into the exceptional layer as a point-to-point
    multi-antenna channel; when its Gram matrix has numeric rank one the cut
    capacity collapses to the same closed form as the upper bound.  Returns
    None when the rank exceeds one (singular-value ratio above 1e-10).
    """
    spec.validate(net)
    h = net.gain_matrices[spec.exceptional_layer - 1]
    singular_values = np.linalg.svd(h, compute_uv=False)
    if singular_values[0] == 0.0:
        return None
    if len(singular_values) > 1 and singular_values[1] > _RANK_ONE_SV_RATIO * singular_values[0]:
        return None
    return anc_rate(exceptional_power_sum(net, spec))


@dataclass(frozen=True)
class BoundsReport:
    """Achieved rate of one scheme next to every closed-form bound."""

    scheme: str
    snr: float
    achieved_rate: float
    upper_bound: float
    lower_bound: float
    mac_cutset: float
    high_snr_lower_bound: float
    c1: float
    c2: float
    c3: float
    rank_one_cutset: float | None

    def to_dict(self) -> dict:
        return as_json(self)

    def to_csv(self) -> str:
        """Header plus one row."""
        return records_csv(BoundsReport, [self])


def bounds_report(
    net: LayeredNetwork,
    spec: RegimeSpec,
    gains: GainAssignment,
    params: SchemeParams,
    scheme: str,
) -> BoundsReport:
    """Evaluate one gain assignment against every bound of the regime."""
    snr = destination_snr(net, gains)
    rate_lower, c2, c3 = lower_bound_terms(net, spec, params)
    return BoundsReport(
        scheme=scheme,
        snr=snr,
        achieved_rate=anc_rate(snr),
        upper_bound=rate_upper_bound(net, spec),
        lower_bound=rate_lower,
        mac_cutset=mac_cutset(net),
        high_snr_lower_bound=high_snr_lower_bound(net),
        c1=params.c1,
        c2=c2,
        c3=c3,
        rank_one_cutset=rank_one_cutset(net, spec),
    )
