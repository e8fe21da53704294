"""Amplification gain assignments.

A gain assignment gives every relay node the scalar it applies to its
reception before retransmitting.  The source's gain is fixed at 1 and the
destination never transmits, so neither appears here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .network import LayeredNetwork, NodeId


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

    @classmethod
    def from_dict(cls, net: LayeredNetwork, beta: dict[NodeId, float]) -> "GainAssignment":
        layers = [np.zeros(net.layer_sizes[l]) for l in range(1, net.num_layers)]
        seen = 0
        for node, value in beta.items():
            if not 1 <= node.layer <= net.num_layers - 1:
                raise ValueError(f"{node} is not a relay node")
            layers[node.layer - 1][node.index] = value
            seen += 1
        if seen != sum(net.layer_sizes[1:-1]):
            raise ValueError("gain assignment must cover every relay node exactly once")
        return cls.from_layers(layers)

    def layer_array(self, net: LayeredNetwork, layer: int) -> np.ndarray:
        if not 1 <= layer <= net.num_layers - 1:
            raise ValueError(f"layer {layer} holds no relays")
        arr = self.layers[layer - 1]
        if arr.shape != (net.layer_sizes[layer],):
            raise ValueError(
                f"gain assignment layer {layer} has {arr.size} entries, "
                f"network expects {net.layer_sizes[layer]}"
            )
        return arr

    def get(self, net: LayeredNetwork, k: NodeId) -> float:
        """Amplification gain of node k; the source reports its fixed gain 1."""
        if k.layer == 0:
            return 1.0
        if k.layer == net.num_layers:
            raise ValueError("destination has no amplification gain")
        return float(self.layer_array(net, k.layer)[k.index])

    def scaled_layer(self, layer: int, factor: float) -> "GainAssignment":
        """Copy with every gain of one relay layer multiplied by factor."""
        arrays = [arr.copy() for arr in self.layers]
        arrays[layer - 1] *= factor
        return GainAssignment.from_layers(arrays)


def gains_to_dict(net: LayeredNetwork, gains: GainAssignment) -> dict:
    return {"beta": {str(k): gains.get(net, k) for k in net.relays()}}


def gains_from_dict(net: LayeredNetwork, data: dict) -> GainAssignment:
    # "snr" and "rate" let optimizer reports replay directly as gain files.
    unknown = set(data) - {"beta", "snr", "rate"}
    if unknown:
        raise ValueError(f"unknown gain-assignment fields: {sorted(unknown)}")
    beta = {NodeId.parse(key): float(value) for key, value in data["beta"].items()}
    return GainAssignment.from_dict(net, beta)


def save_gains(net: LayeredNetwork, gains: GainAssignment, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(gains_to_dict(net, gains), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_gains(net: LayeredNetwork, path: str) -> GainAssignment:
    with open(path, "r", encoding="utf-8") as fh:
        return gains_from_dict(net, json.load(fh))
