"""Received powers, regime margin, and transmit-power feasibility.

A relay's received power P_R is the signal power it would see with every
in-neighbor transmitting a full-budget symbol coherently; its safe-gain box
sqrt(P / ((1 + 1/P_R) * P_R)) is the largest amplification magnitude for
which that received-power sufficient condition keeps its transmit budget.
Both depend on the network alone, so the network keeps them as read-only
arrays (LayeredNetwork.received_powers, safe_boxes, least_received_powers)
and every caller reads those; this module has no array layer of its own.
Gains are signed and enter the sum before squaring, so mixed signs can drive
P_R toward zero; build_network refuses a P_R or 1/P_R that is not finite.

The per-node functions (received_power, node_delta, max_safe_gain,
exact_transmit_power) are checked leaves: each refuses a node that the
network lacks, naming it, then reads one entry of an array, and no other
module of the package calls them.  The condition is one-directional:
exact_transmit_power computes the true second moment by propagating the
gains (CodingState.transmit_powers reads a whole layer of one propagation)
so the two can be compared, and check_feasible reports both verdicts side
by side.  Its report holds one array per quantity over all relays,
layer-major, and nothing else: a relay's "layer:index" label is built from
the layer sizes only when the report is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coding import propagate_coefficients
from .gains import GainAssignment
from .network import LayeredNetwork, NodeId, RegimeSpec, is_int
from .report import csv_table


def _node_index(net: LayeredNetwork, k: NodeId) -> int:
    """k.index, after checking that it is an integer, not a bool, that names a node of
    k's layer.  Each per-node function checks k's layer first, with its own message."""
    size = net.layer_sizes[k.layer]
    if not (is_int(k.index) and 0 <= k.index < size):
        raise ValueError(f"no node {k} in the network: layer {k.layer} holds nodes 0..{size - 1}")
    return int(k.index)


def received_power(net: LayeredNetwork, k: NodeId) -> float:
    """Full-budget coherent received power of one node."""
    if not (is_int(k.layer) and 1 <= k.layer <= net.num_layers):
        raise ValueError(
            f"layer {k.layer} receives nothing; receiving layers are 1..{net.num_layers}"
        )
    return float(net.received_powers[k.layer - 1][_node_index(net, k)])


def node_delta(net: LayeredNetwork, k: NodeId) -> float:
    """Reciprocal received power, the node's own margin; finite on a built network."""
    return 1.0 / received_power(net, k)


def regime_delta(net: LayeredNetwork, spec: RegimeSpec) -> float:
    """Smallest margin for which every node outside the exceptional layer
    (and the source) has received power at least 1/delta."""
    spec.validate(net)
    least = net.least_received_powers
    return 1.0 / min(p for m, p in enumerate(least, start=1) if m != spec.exceptional_layer)


def max_safe_gain(net: LayeredNetwork, k: NodeId) -> float:
    """Largest |beta| at relay k; the zero check only feeds perfbench's tracer self-test."""
    net.require_relay_layer(k.layer)
    index = _node_index(net, k)
    if received_power(net, k) == 0.0:
        raise ValueError(f"received power at {k} is zero; no safe gain exists")
    return float(net.safe_boxes[k.layer - 1][index])


def exact_transmit_power(net: LayeredNetwork, gains: GainAssignment, k: NodeId) -> float:
    """True second moment of node k's transmission, beta_k^2 * E[reception^2]."""
    if not (k.layer == 0 and is_int(k.layer)):  # the source transmits too
        net.require_relay_layer(k.layer)
    index = _node_index(net, k)
    if k.layer == 0:
        return net.source_power
    return float(propagate_coefficients(net, gains).transmit_powers(k.layer)[index])


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
