"""Layered Gaussian relay network model.

A network has layers 0..L with a single source at layer 0 and a single
destination at layer L.  Edges exist only between adjacent layers and are
described by one real gain matrix per hop.  Every node adds unit-variance
Gaussian noise; every transmitting node has a linear power budget.

The network is frozen, so what depends on it alone is computed once per
instance and kept on it: received_powers, the full-budget coherent received
power of every layer, handed out as read-only arrays; the smallest of each
layer (least_received_powers); and each relay layer's safe-gain box without
a uniform margin (safe_boxes).  These caches are the one accessor of those
quantities, entry l-1 for layer l: every scheme, bound and report reads
them, and power's per-node functions read single entries of them.

Signed gains can cancel.  drop_residue is the one rule for when they do: a
signed sum no larger than 1e-12 times the same sum on magnitudes is exactly
zero.  coherent_power applies it to received powers, and coding.visible_row
to the one destination row that the matched scheme or ideal_snr reads.  Every
bound, box and margin reads a node's received power P_R or its margin 1/P_R,
so build_network refuses a network where either is not finite.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .report import json_text


# A coherent sum this small next to the sum of its terms' magnitudes is
# treated as exact cancellation.
_CANCEL_RTOL = 1e-12


def drop_residue(values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """A new array of values, each entry no larger than 1e-12 * scale set to 0.0:
    the one cancellation rule, scale being the same sum taken on magnitudes."""
    out = values.copy()
    out[np.abs(values) <= _CANCEL_RTOL * scale] = 0.0
    return out


def coherent_power(h: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Read-only (sum_j h[k,j] a_j)^2 of every row k, cancellation residue set to zero."""
    # np.vecdot takes one dot per row, as a scalar per-node sum would.
    total = drop_residue(np.vecdot(h, amplitudes), np.abs(h) @ amplitudes)
    power = total * total
    power.flags.writeable = False
    return power


def safe_box(budgets: np.ndarray, p_r: np.ndarray, margin) -> np.ndarray:
    """sqrt(P_k / ((1 + margin) * P_R)): the largest |beta| of each relay for which
    the received-power sufficient condition keeps its transmit budget."""
    return np.sqrt(budgets / ((1.0 + margin) * p_r))


class NetworkValidationError(ValueError):
    """Raised when a network description violates the layered model."""


def is_int(value) -> bool:
    """True for a Python or numpy integer, False for a bool or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_int_fields(obj, limits: tuple[tuple[str, int], ...]) -> None:
    """Raise ValueError naming the first field of obj that is not an integer >= its limit."""
    for name, least in limits:
        value = getattr(obj, name)
        if not is_int(value) or value < least:
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

    @cached_property
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

    def require_relay_layer(self, layer: int, name: str = "layer") -> None:
        """Raise ValueError unless layer is a relay layer 1..L-1, an integer and not a bool:
        the one relay-layer check."""
        if not (is_int(layer) and 1 <= layer <= self.num_layers - 1):
            last = self.num_layers - 1
            raise ValueError(f"{name} must be a relay layer in 1..{last}, got {layer}")

    @cached_property
    def received_powers(self) -> tuple[np.ndarray, ...]:
        """Full-budget coherent received power (sum_j h[k,j] sqrt(P_j))^2 of layers 1..L.

        Entry l-1 belongs to layer l.  It depends on the network only, never
        on gains: every in-neighbor transmits a full-budget symbol, and
        signed gains enter the sum before squaring.
        """
        amplitudes = [np.array([math.sqrt(self.source_power)])]
        amplitudes += [np.sqrt(budgets) for budgets in self.relay_budgets]
        return tuple(map(coherent_power, self.gain_matrices, amplitudes))

    @cached_property
    def least_received_powers(self) -> tuple[float, ...]:
        """Smallest received power of each of layers 1..L, entry l-1 for layer l."""
        return tuple(float(p.min()) for p in self.received_powers)

    @cached_property
    def safe_boxes(self) -> tuple[np.ndarray, ...]:
        """safe_box of relay layers 1..L-1 with each relay's own margin 1/P_R,
        read-only; entry l-1 belongs to layer l."""
        boxes = []
        for budgets, p_r in zip(self.relay_budgets, self.received_powers):
            boxes.append(safe_box(budgets, p_r, 1.0 / p_r))
            boxes[-1].flags.writeable = False
        return tuple(boxes)


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
    nonpositive power, non-finite gains, unreachable nodes (a non-source
    node with all-zero incoming gains, or a non-destination node with all-zero
    outgoing gains), or a node whose received power or its reciprocal is not
    finite.
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
        if not np.isfinite(mat).all():
            raise NetworkValidationError(f"gain matrix {l} contains non-finite entries")
        mat.flags.writeable = False
        matrices.append(mat)

    num_relays = sum(sizes[1:-1])
    budgets_flat = np.array(power_budgets, dtype=np.float64)
    if budgets_flat.shape != (num_relays,):
        raise NetworkValidationError(
            f"expected {num_relays} relay power budgets, got {budgets_flat.size}"
        )
    if not np.isfinite(budgets_flat).all() or (budgets_flat <= 0).any():
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
        if np.count_nonzero(mat) == mat.size:  # no zero gain: the common case, in one call
            continue
        incoming = mat.any(axis=1)  # a float is true where nonzero
        if not incoming.all():
            index = int(np.argmin(incoming))  # the first False
            raise NetworkValidationError(
                f"node {NodeId(l + 1, index)} is unreachable: all incoming gains are zero"
            )
        outgoing = mat.any(axis=0)
        if not outgoing.all():
            index = int(np.argmin(outgoing))
            raise NetworkValidationError(
                f"node {NodeId(l, index)} is silent: all outgoing gains are zero"
            )

    net = LayeredNetwork(
        layer_sizes=sizes,
        gain_matrices=tuple(matrices),
        relay_budgets=tuple(relay_budgets),
        source_power=float(source_power),
    )
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused, not warned
        p_r = np.concatenate(net.received_powers)  # layer-major, as net.nodes() after the source
        bad = np.flatnonzero(~(np.isfinite(p_r) & np.isfinite(1.0 / p_r)))
    if bad.size:
        node, value = list(net.nodes())[1 + bad[0]], float(p_r[bad[0]])
        message = f"received power at {node} is {value}; it and its reciprocal must be finite"
        raise NetworkValidationError(message)
    return net


@dataclass(frozen=True)
class RegimeSpec:
    """Selects the one relay layer (1..L-1) exempted from the high received-power condition;
    with no weak relay layer, [4]'s full_power_gains and high_snr_lower_bound apply."""

    exceptional_layer: int

    def validate(self, net: LayeredNetwork) -> None:
        net.require_relay_layer(self.exceptional_layer, "exceptional layer")


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

# How deep each field nests its numbers in lists, in build_network's argument order.
_NETWORK_FIELDS = {"layer_sizes": 1, "gain_matrices": 3, "power_budgets": 1, "source_power": 0}


def require_numbers(field: str, value, depth: int) -> None:
    """Raise NetworkValidationError unless value nests real numbers, not bool or str,
    depth lists deep; numpy would take "2.0" and true as floats.  Plain JSON
    numbers pass at C speed."""
    parents = [[value]]  # the leaves are the items of the parents' items
    for _ in range(depth):
        items = list(itertools.chain.from_iterable(parents))
        if not set(map(type, items)) <= {list, tuple}:
            bad = next(item for item in items if type(item) not in (list, tuple))
            raise NetworkValidationError(f"{field}: {bad!r} is not a list")
        parents = items
    if not set(map(type, itertools.chain.from_iterable(parents))) <= {int, float}:
        for item in itertools.chain.from_iterable(parents):
            if isinstance(item, bool) or not isinstance(item, numbers.Real):
                raise NetworkValidationError(f"{field}: {item!r} is not a number")


def network_to_dict(net: LayeredNetwork) -> dict:
    return {
        "layer_sizes": list(net.layer_sizes),
        "gain_matrices": [mat.tolist() for mat in net.gain_matrices],
        "power_budgets": [float(b) for chunk in net.relay_budgets for b in chunk],
        "source_power": net.source_power,
    }


def network_from_dict(data: dict) -> LayeredNetwork:
    if not isinstance(data, dict):
        raise NetworkValidationError("a network must be a JSON object")
    unknown = set(data) - _NETWORK_FIELDS.keys()
    if unknown:
        raise NetworkValidationError(f"unknown network fields: {sorted(unknown)}")
    missing = _NETWORK_FIELDS.keys() - set(data)
    if missing:
        raise NetworkValidationError(f"missing network fields: {sorted(missing)}")
    for field, depth in _NETWORK_FIELDS.items():
        require_numbers(field, data[field], depth)
    return build_network(*(data[field] for field in _NETWORK_FIELDS))


def save_network(net: LayeredNetwork, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(network_to_dict(net)))


def load_network(path: str) -> LayeredNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))
