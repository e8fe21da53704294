"""Amplification gain assignments.

A gain assignment gives every relay node the scalar it applies to its
reception before retransmitting.  The source's gain is fixed at 1 and the
destination never transmits, so neither appears here.  betas(net) is where
an assignment meets a network, checked once: its result (1, beta_1, ...,
beta_{L-1}) is CodingState.betas, indexed by layer.  In JSON the gains are
keyed by each relay's "layer:index" text, and every relay is named once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .network import LayeredNetwork, NodeId, require_numbers
from .report import json_text


@dataclass(frozen=True)
class GainAssignment:
    """Per-relay amplification gains, one array per relay layer 1..L-1."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.layers and not np.isfinite(np.concatenate(self.layers, axis=None)).all():
            raise ValueError("amplification gains must be finite")
        for arr in self.layers:
            arr.flags.writeable = False

    @classmethod
    def from_layers(cls, values: list[list[float]] | list[np.ndarray]) -> "GainAssignment":
        return cls(tuple(np.array(layer, dtype=np.float64) for layer in values))

    def betas(self, net: LayeredNetwork) -> tuple[np.ndarray, ...]:
        """Gains of net's layers 0..L-1 (the source's is 1), checked against net."""
        relay_layers = net.num_layers - 1
        if len(self.layers) != relay_layers:
            raise ValueError(
                f"gain assignment has {len(self.layers)} relay layers, network has {relay_layers}"
            )
        for layer, arr in enumerate(self.layers, start=1):
            if arr.shape != (net.layer_sizes[layer],):
                raise ValueError(
                    f"gain assignment layer {layer} has {arr.size} entries, "
                    f"network expects {net.layer_sizes[layer]}"
                )
        return (np.ones(1), *self.layers)


def gains_to_dict(net: LayeredNetwork, gains: GainAssignment) -> dict:
    betas = gains.betas(net)
    return {"beta": {str(k): float(betas[k.layer][k.index]) for k in net.relays()}}


def gains_from_dict(net: LayeredNetwork, data: dict) -> GainAssignment:
    """Gain layers from {"beta": {"layer:index": value}} naming every relay once."""
    # "snr" and "rate" let optimizer reports replay directly as gain files.
    if not isinstance(data, dict):
        raise ValueError("a gain assignment must be a JSON object")
    unknown = set(data) - {"beta", "snr", "rate"}
    if unknown:
        raise ValueError(f"unknown gain-assignment fields: {sorted(unknown)}")
    beta = data.get("beta")
    if not isinstance(beta, dict):
        raise ValueError('"beta" must map "layer:index" keys to gains')
    layers = [np.zeros(size) for size in net.layer_sizes[1:-1]]
    relays = set(net.relays())
    named: set[NodeId] = set()
    for key, value in beta.items():
        try:
            node = NodeId.parse(str(key))
        except ValueError:
            raise ValueError(f"gain key {key!r} is not of the form layer:index") from None
        if node not in relays:
            raise ValueError(f"gain key {key!r} names no relay node")
        if node in named:
            raise ValueError(f"gain key {key!r} names relay {node} a second time")
        require_numbers(f"gain {key!r}", value, 0)
        named.add(node)
        layers[node.layer - 1][node.index] = float(value)
    missing = [node for node in net.relays() if node not in named]
    if missing:
        raise ValueError(f"gain assignment must cover every relay node; {missing[0]} is missing")
    return GainAssignment.from_layers(layers)


def save_gains(net: LayeredNetwork, gains: GainAssignment, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(gains_to_dict(net, gains)))


def load_gains(net: LayeredNetwork, path: str) -> GainAssignment:
    with open(path, "r", encoding="utf-8") as fh:
        return gains_from_dict(net, json.load(fh))
