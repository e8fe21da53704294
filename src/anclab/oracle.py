"""Independent oracles for the fast path.

path_coefficient recomputes one propagation coefficient by brute-force path
enumeration: the sum, over every relay path, of the per-hop products
beta * h, starting with the origin's own amplification.  It reads only
gain_matrices and GainAssignment.betas(net), never the layered sweep of
anclab.coding that it checks.  MAX_ENUMERATED_PATHS guards against
combinatorial blow-up.

This module imports only network and gains, and no module of the package
imports it, so `import anclab` does not load it.
"""

from __future__ import annotations

import numpy as np

from .gains import GainAssignment
from .network import LayeredNetwork, NodeId


class TooManyPathsError(RuntimeError):
    """Raised when path enumeration would exceed the combinatorial guard."""


MAX_ENUMERATED_PATHS = 10**6


def count_paths(net: LayeredNetwork, origin: NodeId, target: NodeId) -> int:
    """Number of relay paths from origin to target through nonzero gains."""
    if target.layer <= origin.layer:
        return 1 if target == origin else 0
    counts = np.zeros(net.layer_sizes[origin.layer], dtype=np.int64)
    counts[origin.index] = 1
    for layer in range(origin.layer, target.layer):
        adjacency = (net.gain_matrices[layer] != 0.0).astype(np.int64)
        counts = adjacency @ counts
    return int(counts[target.index])


def enumerate_paths(
    net: LayeredNetwork, origin: NodeId, target: NodeId
) -> list[tuple[NodeId, ...]]:
    """All relay paths origin -> target, one layer per hop, nonzero gains only."""
    total = count_paths(net, origin, target)
    if total > MAX_ENUMERATED_PATHS:
        raise TooManyPathsError(
            f"{total} paths from {origin} to {target} exceed the "
            f"{MAX_ENUMERATED_PATHS} enumeration guard"
        )
    paths: list[tuple[NodeId, ...]] = []

    def extend(prefix: list[NodeId]) -> None:
        tail = prefix[-1]
        if tail.layer == target.layer:
            if tail == target:
                paths.append(tuple(prefix))
            return
        column = net.gain_matrices[tail.layer][:, tail.index]
        for nxt in np.flatnonzero(column != 0.0):
            prefix.append(NodeId(tail.layer + 1, int(nxt)))
            extend(prefix)
            prefix.pop()

    if target.layer > origin.layer:
        extend([origin])
    elif target == origin:
        paths.append((origin,))
    return paths


def path_coefficient(
    net: LayeredNetwork, gains: GainAssignment, origin: NodeId, target: NodeId
) -> float:
    """Coefficient from origin to target: over every path, the sum of the
    products of beta * h along its hops, the origin's own beta included."""
    betas = gains.betas(net)
    if target == origin:
        return 1.0
    total = 0.0
    for path in enumerate_paths(net, origin, target):
        product = 1.0
        for a, b in zip(path, path[1:]):
            h = net.gain_matrices[a.layer][b.index, a.index]
            product *= float(betas[a.layer][a.index] * h)
        total += product
    return total
