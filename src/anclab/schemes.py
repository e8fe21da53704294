"""Closed-form gain assignment schemes.

full_power_gains puts every relay at its per-node safe maximum, the right
choice when every relay enjoys large received power.  matched_gains handles
a network with one weak (exceptional) layer: relays outside that layer get
the safe maximum computed with the single regime-wide margin, while the
weak layer's gains are chosen so that each node's end-to-end contribution
arrives at the destination with a common positive scale, i.e. the layer
acts as a matched combiner subject to every node's power condition.  It
returns that scale's constant c1, the one number of the scheme that the
lower bound reads.
"""

from __future__ import annotations

import math

import numpy as np

from .coding import swept_row, visible_row
from .gains import GainAssignment
from .network import LayeredNetwork, NodeId, RegimeSpec, safe_box
from .power import regime_delta


def full_power_gains(net: LayeredNetwork) -> GainAssignment:
    """Every relay at its per-node safe maximum gain."""
    return GainAssignment.from_layers(net.safe_boxes)


def downstream_gains(net: LayeredNetwork, gains: GainAssignment, layer: int) -> np.ndarray:
    """Compound coefficient from each layer node's transmission to the destination.

    The destination row r_layer of the coding state, entry j for node j:
    hop matrices multiplied with the already-assigned gains of layers
    layer+1..L-1.  The nodes' own gains are excluded, so g_j * beta_j
    equals the propagated noise coefficient from j to the destination.
    """
    net.require_relay_layer(layer)
    return swept_row(net.gain_matrices[layer:], gains.betas(net)[layer:])


def matched_gains(net: LayeredNetwork, spec: RegimeSpec) -> tuple[GainAssignment, float]:
    """Gain assignment for a network with one weak relay layer, and its c1.

    Relays outside the exceptional layer transmit at the safe maximum taken
    with the uniform regime margin (never above their per-node maximum).
    Exceptional-layer nodes get beta_j = c1 * sqrt(P_R_j) / g_j with
    c1 = min_j (|g_j| / P_R_j) * sqrt(P_j / (1 + 1/P_R_j)), which equalizes
    the end-to-end weights gamma_j = beta_j * g_j = c1 * sqrt(P_R_j) and
    keeps every node inside its per-node power condition.  g is
    downstream_gains of the exceptional layer, so a caller reads gamma as
    gains.layers[l - 1] * downstream_gains(net, gains, l).

    The exceptional layer is a relay layer.  A network with no weak relay
    layer is the case of [4]: full_power_gains, with high_snr_lower_bound.
    """
    l = spec.exceptional_layer
    delta = regime_delta(net, spec)

    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        # Layer l's slot is a placeholder, set below: row l reads layers l+1.. only.
        layers = [
            np.zeros_like(b) if k == l else safe_box(b, p_r, delta)
            for k, (b, p_r) in enumerate(zip(net.relay_budgets, net.received_powers), start=1)
        ]
        # (1 + delta) * P_R can overflow, which makes a box, and so a gain, 0.
        for k, box in enumerate(layers, start=1):
            if k != l and not box.all():
                raise ValueError(
                    f"safe gains sqrt(P / ((1 + delta) * P_R)) of layer {k} are out of "
                    f"float range at margin delta = {delta}"
                )
        g = visible_row(net, [np.ones(1), *layers], l)
        zero = np.flatnonzero(g == 0.0)  # visible_row sets cancellation residue to 0.0
        if zero.size:
            raise ValueError(
                f"{NodeId(l, int(zero[0]))} is invisible at the destination (compound gain zero)"
            )
        p_r = net.received_powers[l - 1]
        # |g_j| / P_R_j can overflow; the min is right unless every term does.
        c1 = float(np.min(np.abs(g) / p_r * np.sqrt(net.relay_budgets[l - 1] / (1.0 + 1.0 / p_r))))
        if not 0.0 < c1 < math.inf:
            raise ValueError(
                f"c1 = min_j |g_j| / P_R_j * sqrt(P_j / (1 + 1/P_R_j)) is out of float range "
                f"at exceptional layer {l}"
            )
        layers[l - 1] = c1 * np.sqrt(p_r) / g
    return GainAssignment.from_layers(layers), c1
