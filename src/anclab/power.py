"""Received powers, regime margin, and transmit-power feasibility.

Everything here is computed one layer at a time on arrays.
received_powers(layer) is the signal power each node of a layer would see
with every in-neighbor transmitting a full-budget symbol coherently; it
depends only on the network, never on the chosen gains, so it is computed
once per network (LayeredNetwork.received_powers) and every caller reads
the same read-only array.  Gains are signed and enter the sum before
squaring, so mixed signs can drive the value toward zero; build_network
refuses a network where a received power or its reciprocal is not finite.

safe_gains(layer) is the box: the largest amplification magnitude for which
the received-power sufficient condition guarantees each relay's transmit
budget.  With each relay's own margin 1/P_R it too depends on the network
alone, so it is read from the network's cache (LayeredNetwork.safe_boxes),
as power_margin and regime_delta read each layer's smallest received power
(LayeredNetwork.least_received_powers).  The per-node functions read single
entries of these arrays.  The condition is one-directional:
exact_transmit_power computes the true second moment by propagating the
gains (CodingState.transmit_powers reads a whole layer of one propagation)
so the two can be compared, and check_feasible reports both verdicts side
by side.  Its report holds one array per quantity over all relays,
layer-major, and nothing else: a relay's "layer:index" label is built from
the layer sizes only when the report is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .coding import propagate_coefficients
from .gains import GainAssignment
from .network import LayeredNetwork, NodeId, RegimeSpec
from .report import csv_table


def received_powers(net: LayeredNetwork, layer: int) -> np.ndarray:
    """Full-budget coherent received power (sum_j h[j,k] sqrt(P_j))^2 of a layer, read-only."""
    if not 1 <= layer <= net.num_layers:
        raise ValueError(f"layer {layer} receives nothing; receiving layers are 1..{net.num_layers}")
    return net.received_powers[layer - 1]


def safe_gains(net: LayeredNetwork, layer: int) -> np.ndarray:
    """Largest |beta| of every relay of a layer under the sufficient power condition.

    Equals sqrt(P_k / ((1 + delta_k) * P_R)) with P_R the received power and
    delta_k = 1/P_R, read-only from the network's cache.
    """
    net.require_relay_layer(layer)
    return net.safe_boxes[layer - 1]


def received_power(net: LayeredNetwork, k: NodeId) -> float:
    """Full-budget coherent received power of one node."""
    return float(received_powers(net, k.layer)[k.index])


def node_delta(net: LayeredNetwork, k: NodeId) -> float:
    """Reciprocal received power, the node's own margin; finite on a built network."""
    return 1.0 / received_power(net, k)


def power_margin(net: LayeredNetwork, layers: Iterable[int]) -> float:
    """Smallest delta with every node of the given layers receiving at least 1/delta, or 0."""
    worst = math.inf
    for layer in layers:
        received_powers(net, layer)  # raises for a layer that receives nothing
        worst = min(worst, net.least_received_powers[layer - 1])
    return 1.0 / worst


def regime_delta(net: LayeredNetwork, spec: RegimeSpec) -> float:
    """Smallest margin for which every node outside the exceptional layer
    (and the source) has received power at least 1/delta."""
    spec.validate(net)
    others = [m for m in range(1, net.num_layers + 1) if m != spec.exceptional_layer]
    return power_margin(net, others)


def max_safe_gain(net: LayeredNetwork, k: NodeId) -> float:
    """Largest |beta| at relay k; the zero check only feeds perfbench's tracer self-test."""
    net.require_relay_layer(k.layer)
    if received_power(net, k) == 0.0:
        raise ValueError(f"received power at {k} is zero; no safe gain exists")
    return float(safe_gains(net, k.layer)[k.index])


def exact_transmit_power(net: LayeredNetwork, gains: GainAssignment, k: NodeId) -> float:
    """True second moment of node k's transmission, beta_k^2 * E[reception^2]."""
    if k.layer == 0:
        return net.source_power
    return float(propagate_coefficients(net, gains).transmit_powers(k.layer)[k.index])


# Slack for float round-trips like beta = sqrt(x) followed by beta^2 <= x.
_PASS_RTOL = 1e-12


# The report's columns, in the order its CSV and JSON write them after "node".
_COLUMNS = ("beta", "beta_max", "exact_power", "budget", "sufficient_ok", "exact_ok")
_HEADER = ("node", *_COLUMNS)


def _column(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenation of per-layer arrays; empty for a network without relays."""
    return np.concatenate(parts) if parts else np.zeros(0)


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Per-relay feasibility as read-only columns over every relay, layer-major.

    columns maps each name of _COLUMNS to its column; relay_sizes holds the
    number of relays of layers 1..L-1.
    """

    relay_sizes: tuple[int, ...]
    columns: dict[str, np.ndarray]

    @property
    def sufficient_ok(self) -> bool:
        return bool(self.columns["sufficient_ok"].all())

    @property
    def exact_ok(self) -> bool:
        return bool(self.columns["exact_ok"].all())

    def nodes(self) -> list[str]:
        """The "layer:index" label of every relay, layer-major."""
        return [
            str(NodeId(layer, i))
            for layer, size in enumerate(self.relay_sizes, start=1)
            for i in range(size)
        ]

    def _rows(self):
        """One _HEADER row per relay, the values as Python floats and bools."""
        return zip(self.nodes(), *(self.columns[name].tolist() for name in _COLUMNS))

    def to_dict(self) -> dict:
        nodes = [dict(zip(_HEADER, row)) for row in self._rows()]
        return {"nodes": nodes, "sufficient_ok": self.sufficient_ok, "exact_ok": self.exact_ok}

    def to_csv(self) -> str:
        return csv_table(_HEADER, self._rows())


def check_feasible(net: LayeredNetwork, gains: GainAssignment) -> FeasibilityReport:
    """Per-relay comparison of the sufficient condition and the exact budget."""
    state = propagate_coefficients(net, gains)
    beta = _column(state.betas[1:])
    beta_max = _column(net.safe_boxes)
    exact = _column([state.transmit_powers(layer) for layer in range(1, net.num_layers)])
    budget = _column(net.relay_budgets)
    sufficient_ok = np.abs(beta) <= beta_max * (1.0 + _PASS_RTOL)
    exact_ok = exact <= budget * (1.0 + _PASS_RTOL)
    columns = dict(zip(_COLUMNS, (beta, beta_max, exact, budget, sufficient_ok, exact_ok)))
    for column in columns.values():
        column.flags.writeable = False
    return FeasibilityReport(relay_sizes=net.layer_sizes[1:-1], columns=columns)
