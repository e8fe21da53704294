"""Received powers, regime margin, and transmit-power feasibility.

Everything here is computed one layer at a time on arrays.
received_powers(layer) is the signal power each node of a layer would see
with every in-neighbor transmitting a full-budget symbol coherently; it
depends only on the network, never on the chosen gains.  Gains are signed
and enter the sum before squaring, so mixed signs can drive the value
toward zero.  A sum no larger than 1e-12 times the summed magnitudes of
its terms is cancellation residue and counts as exactly zero, which is a
hard error wherever its reciprocal is needed.

safe_gains(layer) is the box: the largest amplification magnitude for which
the received-power sufficient condition guarantees each relay's transmit
budget.  The per-node functions read single entries of these two arrays.
The condition is one-directional: exact_transmit_power computes the true
second moment from the coding state so the two can be compared, and
check_feasible reports both verdicts side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import CodingState, propagate_coefficients
from .gains import GainAssignment
from .network import LayeredNetwork, NodeId, RegimeSpec
from .report import as_json, records_csv

# A coherent sum this small next to the sum of its terms' magnitudes is
# treated as exact cancellation.
_CANCEL_RTOL = 1e-12


def received_powers(net: LayeredNetwork, layer: int) -> np.ndarray:
    """Full-budget coherent received power (sum_j h[j,k] sqrt(P_j))^2 of a layer."""
    if not 1 <= layer <= net.num_layers:
        raise ValueError(f"layer {layer} receives nothing; receiving layers are 1..{net.num_layers}")
    h = net.gain_matrices[layer - 1]
    if layer == 1:
        amplitudes = np.array([math.sqrt(net.source_power)])
    else:
        amplitudes = np.sqrt(net.relay_budgets[layer - 2])
    total = np.vecdot(h, amplitudes)  # one dot per row, as a scalar per-node sum would
    total[np.abs(total) <= _CANCEL_RTOL * (np.abs(h) @ amplitudes)] = 0.0
    return total * total


def require_power(layer: int, powers: np.ndarray, consequence: str) -> None:
    """Raise ValueError naming the first node of the layer with zero received power."""
    if powers.all():
        return
    zero = np.flatnonzero(powers == 0.0)
    raise ValueError(f"received power at {NodeId(layer, int(zero[0]))} is zero; {consequence}")


def safe_gains(net: LayeredNetwork, layer: int, delta: float | None = None) -> np.ndarray:
    """Largest |beta| of every relay of a layer under the sufficient power condition.

    Equals sqrt(P_k / ((1 + delta_k) * P_R)) with P_R the received power and
    delta_k = 1/P_R, or a uniform margin delta when one is given.
    """
    if not 1 <= layer <= net.num_layers - 1:
        raise ValueError(f"layer {layer} holds no relays")
    p_r = received_powers(net, layer)
    require_power(layer, p_r, "no safe gain exists")
    margin = 1.0 / p_r if delta is None else delta
    return np.sqrt(net.relay_budgets[layer - 1] / ((1.0 + margin) * p_r))


def received_power(net: LayeredNetwork, k: NodeId) -> float:
    """Full-budget coherent received power of one node."""
    if k.layer == 0:
        raise ValueError("the source node receives nothing")
    return float(received_powers(net, k.layer)[k.index])


def node_delta(net: LayeredNetwork, k: NodeId) -> float:
    """Reciprocal received power; the per-node smallness measure."""
    p = received_power(net, k)
    if p == 0.0:
        raise ValueError(f"received power at {k} is zero; its reciprocal is undefined")
    return 1.0 / p


def regime_delta(net: LayeredNetwork, spec: RegimeSpec) -> float:
    """Smallest margin for which every node outside the exceptional layer
    (and the source) has received power at least 1/delta."""
    spec.validate(net)
    worst = math.inf
    for layer in range(1, net.num_layers + 1):
        if layer == spec.exceptional_layer:
            continue
        p = received_powers(net, layer)
        require_power(layer, p, "regime margin undefined")
        worst = min(worst, float(p.min()))
    if not math.isfinite(worst):
        raise ValueError("no nodes outside the exceptional layer")
    return 1.0 / worst


def max_safe_gain(net: LayeredNetwork, k: NodeId) -> float:
    """Largest |beta| at relay k under the sufficient power condition.

    Raises ValueError when k, or any other relay of its layer, has zero
    received power: the box is computed for the whole layer at once.
    """
    if received_power(net, k) == 0.0:
        raise ValueError(f"received power at {k} is zero; no safe gain exists")
    if k.layer == net.num_layers:
        raise ValueError("destination has no power budget")
    return float(safe_gains(net, k.layer)[k.index])


def exact_transmit_power(
    net: LayeredNetwork,
    gains: GainAssignment,
    k: NodeId,
    state: CodingState | None = None,
) -> float:
    """True second moment of node k's transmission, beta_k^2 * E[reception^2]."""
    if k.layer == 0:
        return net.source_power
    if k.layer == net.num_layers:
        raise ValueError("destination never transmits")
    if state is None:
        state = propagate_coefficients(net, gains)
    return float(state.transmit_powers(k.layer)[k.index])


# Slack for float round-trips like beta = sqrt(x) followed by beta^2 <= x.
_PASS_RTOL = 1e-12


@dataclass(frozen=True)
class NodeFeasibility:
    node: NodeId
    beta: float
    beta_max: float
    exact_power: float
    budget: float
    sufficient_ok: bool
    exact_ok: bool


@dataclass(frozen=True)
class FeasibilityReport:
    entries: tuple[NodeFeasibility, ...]

    @property
    def sufficient_ok(self) -> bool:
        return all(e.sufficient_ok for e in self.entries)

    @property
    def exact_ok(self) -> bool:
        return all(e.exact_ok for e in self.entries)

    def to_dict(self) -> dict:
        verdicts = {"sufficient_ok": self.sufficient_ok, "exact_ok": self.exact_ok}
        return {"nodes": as_json(self.entries), **verdicts}

    def to_csv(self) -> str:
        return records_csv(NodeFeasibility, self.entries)


def check_feasible(net: LayeredNetwork, gains: GainAssignment) -> FeasibilityReport:
    """Per-relay comparison of the sufficient condition and the exact budget."""
    state = propagate_coefficients(net, gains)
    entries = []
    for layer in range(1, net.num_layers):
        beta = gains.layer_array(net, layer)
        beta_max = safe_gains(net, layer)
        exact = state.transmit_powers(layer)
        budget = net.relay_budgets[layer - 1]
        sufficient_ok = np.abs(beta) <= beta_max * (1.0 + _PASS_RTOL)
        exact_ok = exact <= budget * (1.0 + _PASS_RTOL)
        for i in range(net.layer_sizes[layer]):
            entries.append(
                NodeFeasibility(
                    node=NodeId(layer, i),
                    beta=float(beta[i]),
                    beta_max=float(beta_max[i]),
                    exact_power=float(exact[i]),
                    budget=float(budget[i]),
                    sufficient_ok=bool(sufficient_ok[i]),
                    exact_ok=bool(exact_ok[i]),
                )
            )
    return FeasibilityReport(entries=tuple(entries))
