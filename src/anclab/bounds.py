"""Achieved rate and closed-form rate bounds.

All rates are in bits per channel use, logarithms base 2.  The upper bound
comes from an idealized network in which every layer except the exceptional
one is noiseless; the lower bound is the closed-form rate guaranteed for
the matched scheme, of which it reads only the constant c1 that matched_gains
returns.  Both are functions of the exceptional layer's received powers and
the regime margin, all read off the network's arrays; the destination's
received power p_RD is float(net.received_powers[-1][0]).  With nonnegative
channel gains a valid instance sandwiches its achieved rate between them;
signed gains can lift the lower bound above it (tests/test_bounds.py keeps
a counterexample).

When the bounds coincide: to first order, upper - lower is about
((l - 1) * delta * s + c2 / (c1**2 * s)) / (2 ln 2) for exceptional layer l,
with s its summed received power and delta the regime margin; for l = 2 that
is (delta * s + c2 / (c1**2 * s)) / (2 ln 2).  So a growing s closes the gap
only while delta * s -> 0; at a fixed margin the gap has a minimum in s.

BoundsReport computes each value when it is read, so a caller pays only for
the columns it reads: the SNR once (it is cached), the achieved rate and the
two bounds on every read.  Its to_dict computes every column, in a fixed
call order, for the bounds command's CSV and JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coding import propagate_coefficients, visible_row
from .gains import GainAssignment
from .network import LayeredNetwork, RegimeSpec
from .power import regime_delta


def anc_rate(snr: float) -> float:
    """Gaussian channel rate 0.5 * log2(1 + snr) in bits per channel use."""
    if snr < 0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    return 0.5 * math.log1p(snr) / math.log(2.0)


def destination_snr(net: LayeredNetwork, gains: GainAssignment) -> float:
    """Exact SNR at the destination: signal power over propagated plus local noise."""
    return propagate_coefficients(net, gains).snr


def ideal_snr(net: LayeredNetwork, gains: GainAssignment, noisy_layer: int) -> float:
    """Destination SNR when only one layer injects noise.

    All other noise sources, including the destination's own, are zeroed;
    this idealization can only raise the SNR, so it dominates the true one
    for any gain assignment.  The noisy layer's destination coefficients are
    betas[l] * visible_row(net, betas, l): the backward sweep down to row l,
    with an entry no larger than 1e-12 times the same sweep on |H| and |beta|
    counted as cancelled, the rule the matched scheme applies too.
    """
    net.require_relay_layer(noisy_layer, "noisy layer")
    state = propagate_coefficients(net, gains)
    f = float(state.source[-1][0])
    noise = state.betas[noisy_layer] * visible_row(net, state.betas, noisy_layer)
    denom = float(noise @ noise)
    if denom == 0.0:
        raise ValueError(f"no noise from layer {noisy_layer} reaches the destination")
    return f * f * net.source_power / denom


def exceptional_power_sum(net: LayeredNetwork, spec: RegimeSpec) -> float:
    """Sum of received powers over the exceptional layer, inf past float range."""
    spec.validate(net)
    with np.errstate(over="ignore"):
        return float(net.received_powers[spec.exceptional_layer - 1].sum())


def rate_upper_bound(net: LayeredNetwork, spec: RegimeSpec) -> float:
    """Capacity upper bound 0.5 * log2(1 + sum of exceptional received powers).

    A sum past float range is taken over the powers scaled by the largest, m,
    with log2(m) added back; the 1 is then below the sum's last bit.
    """
    s = exceptional_power_sum(net, spec)
    if math.isfinite(s):
        return anc_rate(s)
    powers = net.received_powers[spec.exceptional_layer - 1]
    m = float(powers.max())
    return 0.5 * (math.log2(m) + math.log2(float((powers / m).sum())))


def _margin_power(delta: float, hops: int) -> float:
    """(1 + delta) ** hops, the margin's attenuation over that many hops."""
    try:
        return (1.0 + delta) ** hops
    except OverflowError:
        raise ValueError(f"(1 + delta) ** {hops} overflows at margin delta = {delta}") from None


def lower_bound_terms(
    net: LayeredNetwork, spec: RegimeSpec, c1: float
) -> tuple[float, float, float]:
    """Lower-bound value and its noise constants (rate, c2, c3).

    c1 is the matched scheme's constant and delta the network's regime
    margin.  The rate is below that scheme's only for nonnegative channel gains.
    """
    l = spec.exceptional_layer
    if c1 <= 0:
        raise ValueError(f"matched-scheme constant must be positive, got {c1}")
    delta = regime_delta(net, spec)
    s = exceptional_power_sum(net, spec)
    if math.isinf(s):
        raise ValueError(
            f"the received powers of layer {l} sum past float range; "
            "the lower bound is not computed there"
        )
    p_rd = float(net.received_powers[-1][0])

    c2 = 1.0
    for d in range(1, net.num_layers - l):
        c2 += delta * p_rd / _margin_power(delta, d)
    try:
        c3 = 1.0 + c2 / (c1 ** 2 * s)
    except (OverflowError, ZeroDivisionError):  # c1**2 overflows, or c1**2 * s underflows to 0
        c3 = math.inf
    if not math.isfinite(c3):
        raise ValueError(f"c3 = 1 + c2 / (c1**2 * s) is out of float range at c1 = {c1}")
    attenuation = _margin_power(delta, l - 1)
    numerator = s / attenuation
    denominator = (1.0 - 1.0 / attenuation) * s + c3
    return anc_rate(numerator / denominator), c2, c3


def rate_lower_bound(net: LayeredNetwork, spec: RegimeSpec, c1: float) -> float:
    """Guaranteed rate of the matched scheme, of constant c1, in the given regime."""
    return lower_bound_terms(net, spec, c1)[0]


def mac_cutset(net: LayeredNetwork) -> float:
    """Multiple-access cut bound at the destination, 0.5 * log2(1 + P_R_D)."""
    return anc_rate(float(net.received_powers[-1][0]))


def high_snr_lower_bound(net: LayeredNetwork) -> float:
    """Closed-form rate of [4]'s full-power scheme when every relay has large received power.

    Equals the MAC cut bound shrunk by one margin factor per relay hop; the
    two coincide as the margin vanishes (and exactly for a single hop).
    """
    delta = 1.0 / min(net.least_received_powers[:-1], default=math.inf)
    p_rd = float(net.received_powers[-1][0])
    return anc_rate(p_rd / _margin_power(delta, net.num_layers - 1))


_RANK_ONE_SV_RATIO = 1e-10


def rank_one_cutset(net: LayeredNetwork, spec: RegimeSpec) -> float | None:
    """Cut-set capacity across the exceptional layer when the feeding hop is rank one.

    Treats the hop matrix into the exceptional layer as a point-to-point
    multi-antenna channel; when its Gram matrix has numeric rank one the cut
    capacity collapses to the upper bound, rate_upper_bound.  Returns
    None when the rank exceeds one (singular-value ratio above 1e-10).
    """
    spec.validate(net)
    h = net.gain_matrices[spec.exceptional_layer - 1]
    singular_values = np.linalg.svd(h, compute_uv=False)  # > 0: build_network bars zero rows
    if len(singular_values) > 1 and singular_values[1] > _RANK_ONE_SV_RATIO * singular_values[0]:
        return None
    return rate_upper_bound(net, spec)


@dataclass(frozen=True, eq=False)  # eq=False: the fields hold numpy arrays
class BoundsReport:
    """Achieved rate of one gain assignment next to every closed-form bound.

    Holds its inputs only.  snr is computed on first read and cached;
    achieved_rate, upper_bound and lower_bound are computed on every read.
    to_dict computes every column, c2, c3, mac_cutset, high_snr_lower_bound
    and rank_one_cutset included, in the call order of the bounds command.
    """

    net: LayeredNetwork
    spec: RegimeSpec
    gains: GainAssignment
    c1: float
    scheme: str

    @cached_property
    def snr(self) -> float:
        return destination_snr(self.net, self.gains)

    @property
    def achieved_rate(self) -> float:
        return anc_rate(self.snr)

    @property
    def upper_bound(self) -> float:
        return rate_upper_bound(self.net, self.spec)

    @property
    def lower_bound(self) -> float:
        return rate_lower_bound(self.net, self.spec, self.c1)

    def to_dict(self) -> dict:
        """Every column, keyed in the order of the bounds CSV header."""
        net, spec = self.net, self.spec
        snr = self.snr
        lower, c2, c3 = lower_bound_terms(net, spec, self.c1)
        return {
            "scheme": self.scheme,
            "snr": snr,
            "achieved_rate": anc_rate(snr),
            "upper_bound": rate_upper_bound(net, spec),
            "lower_bound": lower,
            "mac_cutset": mac_cutset(net),
            "high_snr_lower_bound": high_snr_lower_bound(net),
            "c1": self.c1,
            "c2": c2,
            "c3": c3,
            "rank_one_cutset": rank_one_cutset(net, spec),
        }


def bounds_report(
    net: LayeredNetwork,
    spec: RegimeSpec,
    gains: GainAssignment,
    c1: float,
    scheme: str,
) -> BoundsReport:
    """Lazy report of one gain assignment against every bound, the matched scheme's c1 given."""
    return BoundsReport(net, spec, gains, c1, scheme)
