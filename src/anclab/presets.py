"""Shipped example networks and sweep transformations.

The two three-layer families back the repository's experiment configs: an
asymmetric one whose middle hop is generic (full rank) and a wide-bottleneck
one whose last relay layer holds n identical budget-limited nodes.  Gains
and budgets are picked for the documented trend experiments, not taken from
any external dataset.
"""

from __future__ import annotations

import numpy as np

from .network import LayeredNetwork, build_network
from .power import received_powers


def chain_network(
    hops: int = 2, gain: float = 1.0, budget: float = 1.0, source_power: float = 1.0
) -> LayeredNetwork:
    """Single path source -> relays -> destination with `hops` hops."""
    if hops < 1:
        raise ValueError("need at least one hop")
    sizes = [1] * (hops + 1)
    matrices = [np.array([[gain]]) for _ in range(hops)]
    budgets = [budget] * (hops - 1)
    return build_network(sizes, matrices, budgets, source_power)


def diamond_network(
    gains_in=(1.0, 1.0),
    gains_out=(1.0, 1.0),
    budgets=(1.0, 1.0),
    source_power: float = 1.0,
) -> LayeredNetwork:
    """Two parallel relays between source and destination."""
    h0 = np.array([[g] for g in gains_in])
    h1 = np.array([list(gains_out)])
    return build_network([1, 2, 1], [h0, h1], list(budgets), source_power)


def asymmetric_three_layer(source_power: float = 100.0) -> LayeredNetwork:
    """Three-layer network with two relays per layer and a weak second layer.

    Second-layer received powers stay small and constant as the source power
    sweeps, while generous second-layer budgets let the matched scheme track
    the upper bound.  The second relay of that layer hears almost nothing but
    owns a huge budget, so putting every node at full power over-amplifies
    its noise and the full-power rate trails by a roughly constant gap.  The
    middle hop matrix is full rank on purpose.
    """
    h0 = np.array([[1.0], [0.8]])
    h1 = np.array([[1.4, 1.0], [0.12, 0.1]])
    h2 = np.array([[1.0, 0.9]])
    budgets = [2.0, 2.0, 400.0, 3000.0]
    return build_network([1, 2, 2, 1], [h0, h1, h2], budgets, source_power)


def wide_bottleneck_network(
    n: int, relay_budget: float = 2.0, source_power: float = 1e6
) -> LayeredNetwork:
    """Three-layer network whose last relay layer holds n identical nodes.

    The n bottleneck relays share one budget and unit gains, so their summed
    received power grows linearly with n while each node stays power-limited.
    """
    if n < 1:
        raise ValueError("need at least one bottleneck relay")
    h0 = np.array([[1.0], [1.0]])
    h1 = np.ones((n, 2))
    h2 = np.ones((1, n))
    budgets = [1.0, 1.0] + [relay_budget] * n
    return build_network([1, 2, n, 1], [h0, h1, h2], budgets, source_power)


def replicate_last_relay_layer(
    net: LayeredNetwork, n: int, relay_budget: float
) -> LayeredNetwork:
    """Rebuild a network with its last relay layer replaced by n copies of
    that layer's first node (same incoming and outgoing gains, given budget)."""
    if net.num_layers < 2:
        raise ValueError("network has no relay layer to replicate")
    if n < 1:
        raise ValueError("need at least one replica")
    last = net.num_layers - 1
    sizes = list(net.layer_sizes)
    sizes[last] = n
    matrices = [m.copy() for m in net.gain_matrices]
    matrices[last - 1] = np.tile(matrices[last - 1][0:1, :], (n, 1))
    matrices[last] = np.tile(matrices[last][:, 0:1], (1, n))
    budgets = []
    for layer in range(1, last):
        budgets.extend(float(b) for b in net.relay_budgets[layer - 1])
    budgets.extend([relay_budget] * n)
    return build_network(sizes, matrices, budgets, net.source_power)


def rescale_to_delta(
    net: LayeredNetwork, exceptional_layer: int, delta: float
) -> LayeredNetwork:
    """Scale powers so every layer except the exceptional one reaches margin delta.

    Received power at layer m+1 scales linearly with the budgets of layer m,
    so scaling each feeding layer (source included) by its own factor pins
    min received power to exactly 1/delta there, while the budgets feeding
    the exceptional layer stay fixed and its received powers are untouched.
    """
    if delta <= 0:
        raise ValueError("margin must be positive")
    net.require_relay_layer(exceptional_layer, "exceptional layer")
    target = 1.0 / delta

    factors = {}
    for m in range(net.num_layers):
        if m == exceptional_layer - 1:
            factors[m] = 1.0
            continue
        worst = float(received_powers(net, m + 1).min())
        if worst == 0.0:
            raise ValueError(f"layer {m + 1} contains a node with zero received power")
        factors[m] = target / worst

    source_power = net.source_power * factors[0]
    budgets = []
    for layer in range(1, net.num_layers):
        budgets.extend(float(b) * factors[layer] for b in net.relay_budgets[layer - 1])
    return build_network(
        net.layer_sizes, [m.copy() for m in net.gain_matrices], budgets, source_power
    )
