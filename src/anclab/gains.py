"""Amplification gain assignments.

A gain assignment gives every relay node the scalar it applies to its
reception before retransmitting.  The source's gain is fixed at 1 and the
destination never transmits, so neither appears here.  In JSON the gains
are keyed by each relay's "layer:index" text, and every relay is named once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .network import LayeredNetwork, NodeId, require_numbers


@dataclass(frozen=True)
class GainAssignment:
    """Per-relay amplification gains, one array per relay layer 1..L-1."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for arr in self.layers:
            if not np.all(np.isfinite(arr)):
                raise ValueError("amplification gains must be finite")
            arr.flags.writeable = False

    @classmethod
    def from_layers(cls, values: list[list[float]] | list[np.ndarray]) -> "GainAssignment":
        return cls(tuple(np.array(layer, dtype=np.float64) for layer in values))

    def layer_array(self, net: LayeredNetwork, layer: int) -> np.ndarray:
        net.require_relay_layer(layer)
        arr = self.layers[layer - 1]
        if arr.shape != (net.layer_sizes[layer],):
            raise ValueError(
                f"gain assignment layer {layer} has {arr.size} entries, "
                f"network expects {net.layer_sizes[layer]}"
            )
        return arr


def gains_to_dict(net: LayeredNetwork, gains: GainAssignment) -> dict:
    layers = [gains.layer_array(net, layer) for layer in range(1, net.num_layers)]
    return {"beta": {str(k): float(layers[k.layer - 1][k.index]) for k in net.relays()}}


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
    named: set[NodeId] = set()
    for key, value in beta.items():
        try:
            node = NodeId.parse(str(key))
        except ValueError:
            raise ValueError(f"gain key {key!r} is not of the form layer:index") from None
        relay_layer = 1 <= node.layer < net.num_layers
        if not (relay_layer and 0 <= node.index < net.layer_sizes[node.layer]):
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
        json.dump(gains_to_dict(net, gains), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_gains(net: LayeredNetwork, path: str) -> GainAssignment:
    with open(path, "r", encoding="utf-8") as fh:
        return gains_from_dict(net, json.load(fh))
