"""Closed-form gain assignment schemes.

full_power_gains puts every relay at its per-node safe maximum, the right
choice when every relay enjoys large received power.  matched_gains handles
a network with one weak (exceptional) layer: relays outside that layer get
the safe maximum computed with the single regime-wide margin, while the
weak layer's gains are chosen so that each node's end-to-end contribution
arrives at the destination with a common positive scale, i.e. the layer
acts as a matched combiner subject to every node's power condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import destination_rows
from .gains import GainAssignment
from .network import _CANCEL_RTOL, LayeredNetwork, NodeId, RegimeSpec
from .power import received_powers, regime_delta, require_power, safe_gains


@dataclass(frozen=True)
class SchemeParams:
    """Matched-combiner quantities for the exceptional layer.

    gamma[i] is beta * g of the layer's node i, its gain times its compound
    downstream coefficient toward the destination: the per-node end-to-end
    scale, equal to c1 * sqrt(received power) > 0.
    """

    c1: float
    gamma: np.ndarray


def full_power_gains(net: LayeredNetwork) -> GainAssignment:
    """Every relay at its per-node safe maximum gain."""
    return GainAssignment.from_layers(
        [safe_gains(net, layer) for layer in range(1, net.num_layers)]
    )


def downstream_gains(net: LayeredNetwork, gains: GainAssignment, layer: int) -> np.ndarray:
    """Compound coefficient from each layer node's transmission to the destination.

    The destination row r_layer of the coding state, entry j for node j:
    hop matrices multiplied with the already-assigned gains of layers
    layer+1..L-1.  The nodes' own gains are excluded, so g_j * beta_j
    equals the propagated noise coefficient from j to the destination.
    """
    net.require_relay_layer(layer)
    betas = [None] + [gains.layer_array(net, m) for m in range(1, net.num_layers)]
    return destination_rows(net, betas)[layer]


def matched_gains(net: LayeredNetwork, spec: RegimeSpec) -> tuple[GainAssignment, SchemeParams]:
    """Gain assignment for a network with one weak relay layer.

    Relays outside the exceptional layer transmit at the safe maximum taken
    with the uniform regime margin (never above their per-node maximum).
    Exceptional-layer nodes get beta_j = c1 * sqrt(P_R_j) / g_j with
    c1 = min_j (|g_j| / P_R_j) * sqrt(P_j / (1 + 1/P_R_j)), which equalizes
    the destination-bound scales gamma_j = c1 * sqrt(P_R_j) and keeps every
    node inside its per-node power condition.

    The exceptional layer is a relay layer.  A network with no weak relay
    layer is the case of [4]: full_power_gains, with high_snr_lower_bound.
    """
    l = spec.exceptional_layer
    delta = regime_delta(net, spec)

    layers = [
        np.zeros(net.layer_sizes[layer]) if layer == l else safe_gains(net, layer, delta)
        for layer in range(1, net.num_layers)
    ]
    g = destination_rows(net, [None] + layers)[l]
    scale = destination_rows(net, [None, *map(np.abs, layers)], [*map(np.abs, net.gain_matrices)])
    zero = np.flatnonzero(np.abs(g) <= _CANCEL_RTOL * scale[l])  # cancellation residue is zero
    if zero.size:
        raise ValueError(
            f"{NodeId(l, int(zero[0]))} is invisible at the destination (compound gain zero)"
        )
    p_r = received_powers(net, l)
    require_power(l, p_r, "scheme undefined")
    c1 = float(np.min(np.abs(g) / p_r * np.sqrt(net.relay_budgets[l - 1] / (1.0 + 1.0 / p_r))))
    layers[l - 1] = c1 * np.sqrt(p_r) / g
    return GainAssignment.from_layers(layers), SchemeParams(c1=c1, gamma=layers[l - 1] * g)
