"""Layered Gaussian relay network model.

A network has layers 0..L with a single source at layer 0 and a single
destination at layer L.  Edges exist only between adjacent layers and are
described by one real gain matrix per hop.  Every node adds unit-variance
Gaussian noise; every transmitting node has a linear power budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class NetworkValidationError(ValueError):
    """Raised when a network description violates the layered model."""


def require_int_fields(obj, limits: tuple[tuple[str, int], ...]) -> None:
    """Raise ValueError naming the first field of obj that is not an integer >= its limit."""
    for name, least in limits:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True, order=True)
class NodeId:
    """Position of a node: layer index and index within the layer."""

    layer: int
    index: int

    def __str__(self) -> str:
        return f"{self.layer}:{self.index}"

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        layer, _, index = text.partition(":")
        return cls(int(layer), int(index))


@dataclass(frozen=True)
class LayeredNetwork:
    """Immutable layered relay network.

    gain_matrices[l] has shape (layer_sizes[l+1], layer_sizes[l]) and maps
    layer-l transmissions to layer-(l+1) receptions.  relay_budgets holds one
    array per relay layer 1..L-1.  Noise variance is fixed at 1 per node,
    which every downstream formula assumes.
    """

    layer_sizes: tuple[int, ...]
    gain_matrices: tuple[np.ndarray, ...]
    relay_budgets: tuple[np.ndarray, ...]
    source_power: float

    @property
    def num_layers(self) -> int:
        """Number of hops L (layers are 0..L)."""
        return len(self.layer_sizes) - 1

    @property
    def source(self) -> NodeId:
        return NodeId(0, 0)

    @property
    def destination(self) -> NodeId:
        return NodeId(self.num_layers, 0)

    def nodes(self) -> Iterator[NodeId]:
        """All nodes in layer-major order."""
        for layer, size in enumerate(self.layer_sizes):
            for index in range(size):
                yield NodeId(layer, index)

    def relays(self) -> Iterator[NodeId]:
        """Relay nodes (layers 1..L-1) in layer-major order."""
        for layer in range(1, self.num_layers):
            for index in range(self.layer_sizes[layer]):
                yield NodeId(layer, index)

    def gain(self, j: NodeId, k: NodeId) -> float:
        """Channel gain from node j to node k (adjacent layers only)."""
        if k.layer != j.layer + 1:
            raise ValueError(f"no channel between {j} and {k}: layers not adjacent")
        return float(self.gain_matrices[j.layer][k.index, j.index])

    def budget(self, k: NodeId) -> float:
        """Power budget of a transmitting node; the source budget is its power."""
        if k.layer == 0:
            return self.source_power
        if k.layer == self.num_layers:
            raise ValueError("destination has no power budget")
        return float(self.relay_budgets[k.layer - 1][k.index])


def build_network(
    layer_sizes: Sequence[int],
    gain_matrices: Sequence[np.ndarray | Sequence[Sequence[float]]],
    power_budgets: Sequence[float],
    source_power: float,
) -> LayeredNetwork:
    """Validate and construct a LayeredNetwork.

    power_budgets lists relay budgets in layer-major order (layers 1..L-1);
    the source transmits at source_power and the destination never transmits.

    Raises NetworkValidationError on non-integer layer sizes, shape mismatch,
    nonpositive power, non-finite gains, or unreachable nodes (a non-source
    node with all-zero incoming gains, or a non-destination node with all-zero
    outgoing gains).
    """
    not_integers = f"layer sizes must be integers, got {layer_sizes}"
    try:
        sizes = tuple(int(s) for s in layer_sizes)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetworkValidationError(not_integers) from exc
    if any(size != s for size, s in zip(sizes, layer_sizes)):
        raise NetworkValidationError(not_integers)
    if len(sizes) < 2:
        raise NetworkValidationError("need at least a source layer and a destination layer")
    if any(s < 1 for s in sizes):
        raise NetworkValidationError(f"layer sizes must be positive, got {sizes}")
    if sizes[0] != 1 or sizes[-1] != 1:
        raise NetworkValidationError(
            f"source and destination layers must hold exactly one node, got sizes {sizes}"
        )

    num_hops = len(sizes) - 1
    if len(gain_matrices) != num_hops:
        raise NetworkValidationError(
            f"expected {num_hops} gain matrices, got {len(gain_matrices)}"
        )
    matrices = []
    for l, raw in enumerate(gain_matrices):
        mat = np.array(raw, dtype=np.float64)
        expected = (sizes[l + 1], sizes[l])
        if mat.shape != expected:
            raise NetworkValidationError(
                f"gain matrix {l} has shape {mat.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(mat)):
            raise NetworkValidationError(f"gain matrix {l} contains non-finite entries")
        mat.flags.writeable = False
        matrices.append(mat)

    num_relays = sum(sizes[1:-1])
    budgets_flat = np.array(power_budgets, dtype=np.float64)
    if budgets_flat.shape != (num_relays,):
        raise NetworkValidationError(
            f"expected {num_relays} relay power budgets, got {budgets_flat.size}"
        )
    if not np.all(np.isfinite(budgets_flat)) or np.any(budgets_flat <= 0):
        raise NetworkValidationError("power budgets must be finite and strictly positive")
    if not np.isfinite(source_power) or source_power <= 0:
        raise NetworkValidationError(f"source power must be strictly positive, got {source_power}")

    relay_budgets = []
    offset = 0
    for layer in range(1, num_hops):
        chunk = budgets_flat[offset : offset + sizes[layer]].copy()
        chunk.flags.writeable = False
        relay_budgets.append(chunk)
        offset += sizes[layer]

    # Reachability: every non-source node hears someone, every non-destination
    # node is heard by someone in the next layer.
    for l, mat in enumerate(matrices):
        incoming = np.any(mat != 0.0, axis=1)
        for index in np.flatnonzero(~incoming):
            raise NetworkValidationError(
                f"node {NodeId(l + 1, int(index))} is unreachable: all incoming gains are zero"
            )
        outgoing = np.any(mat != 0.0, axis=0)
        for index in np.flatnonzero(~outgoing):
            raise NetworkValidationError(
                f"node {NodeId(l, int(index))} is silent: all outgoing gains are zero"
            )

    return LayeredNetwork(
        layer_sizes=sizes,
        gain_matrices=tuple(matrices),
        relay_budgets=tuple(relay_budgets),
        source_power=float(source_power),
    )


def neighbors_in(net: LayeredNetwork, k: NodeId) -> list[NodeId]:
    """Previous-layer nodes with a nonzero gain into k.

    The source has no in-neighbors and is rejected.
    """
    if k.layer == 0:
        raise ValueError("the source node has no in-neighbors")
    row = net.gain_matrices[k.layer - 1][k.index]
    return [NodeId(k.layer - 1, int(j)) for j in np.flatnonzero(row != 0.0)]


@dataclass(frozen=True)
class RegimeSpec:
    """Selects the one layer exempted from the high received-power condition."""

    exceptional_layer: int

    def validate(self, net: LayeredNetwork) -> None:
        if not 1 <= self.exceptional_layer <= net.num_layers:
            raise ValueError(
                f"exceptional layer must lie in 1..{net.num_layers}, "
                f"got {self.exceptional_layer}"
            )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_NETWORK_FIELDS = {"layer_sizes", "gain_matrices", "power_budgets", "source_power"}


def network_to_dict(net: LayeredNetwork) -> dict:
    return {
        "layer_sizes": list(net.layer_sizes),
        "gain_matrices": [mat.tolist() for mat in net.gain_matrices],
        "power_budgets": [float(b) for chunk in net.relay_budgets for b in chunk],
        "source_power": net.source_power,
    }


def network_from_dict(data: dict) -> LayeredNetwork:
    unknown = set(data) - _NETWORK_FIELDS
    if unknown:
        raise NetworkValidationError(f"unknown network fields: {sorted(unknown)}")
    missing = _NETWORK_FIELDS - set(data)
    if missing:
        raise NetworkValidationError(f"missing network fields: {sorted(missing)}")
    return build_network(
        data["layer_sizes"],
        data["gain_matrices"],
        data["power_budgets"],
        data["source_power"],
    )


def save_network(net: LayeredNetwork, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_network(path: str) -> LayeredNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))
