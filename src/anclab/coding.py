"""Signal and noise propagation coefficients, one array per layer.

Each node retransmits a scaled copy of its noisy reception, so the signal
arriving anywhere is a linear combination of the source symbol and every
noise injected upstream.  The coefficient from an origin o to a node k is
the sum over all relay paths of the per-hop products beta * h, with the
origin's own amplification included (the source has beta fixed at 1).

In matrix form one hop is A_l = H_l diag(beta_l).  propagate_coefficients
runs one forward sweep (forward_hop) that carries the source vector
s_{l+1} = A_l s_l and the transfer matrix from every upstream relay noise
to layer l+1, whose squared row sums give the propagated noise power, plus
one backward sweep for the destination rows r_l (the coefficient from a
layer-l transmission to the destination).  These per-layer arrays are the
interface: callers index them by layer and node, and no per-node accessor
re-derives an entry.  path_coefficient is the one oracle: it recomputes a
single coefficient by brute-force path enumeration from the hop matrices
and gain layers, without the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gains import GainAssignment
from .network import LayeredNetwork, NodeId


class TooManyPathsError(RuntimeError):
    """Raised when path enumeration would exceed the combinatorial guard."""


MAX_ENUMERATED_PATHS = 10**6


@dataclass(frozen=True)
class CodingState:
    """Propagation quantities of a network under one gain assignment.

    The array fields are the interface, each a tuple indexed by layer and
    then by node index:
      betas[l]   amplification of layers 0..L-1 (the source's is 1);
      source[l]  coefficient of the source symbol at layer l, l = 0..L;
      noise[l]   propagated-plus-local noise power at layer l, unit noise
                 variances (0 at the source, which receives nothing);
      rows[l]    coefficient from a layer-l transmission to the destination,
                 the node's own gain excluded, l = 0..L-1.
    So the destination's signal coefficient is source[-1][0], its noise
    power noise[-1][0], and a relay (l, i)'s noise reaches the destination
    scaled by betas[l][i] * rows[l][i].  path_coefficient checks them.
    """

    net: LayeredNetwork
    betas: tuple[np.ndarray, ...]
    source: tuple[np.ndarray, ...]
    noise: tuple[np.ndarray, ...]
    rows: tuple[np.ndarray, ...]

    def transmit_powers(self, layer: int) -> np.ndarray:
        """True second moment beta^2 E[y^2] of every relay of a layer, where
        E[y^2] = s^2 P + noise is the reception's signal plus noise power."""
        self.net.require_relay_layer(layer)
        s, beta = self.source[layer], self.betas[layer]
        return beta * beta * (s * s * self.net.source_power + self.noise[layer])


def destination_rows(net: LayeredNetwork, betas, matrices=None) -> list[np.ndarray]:
    """Backward sweep r_{L-1} = H_{L-1}, r_l = (r_{l+1} * beta_{l+1}) H_l.

    betas[l] is read for layers 1..L-1 only; r_l excludes layer l's own gain,
    so betas[l] * r_l is the destination coefficient of a layer-l noise.
    matrices, if given, stand in for the hop matrices H_l.
    """
    h = matrices or net.gain_matrices
    rows = [h[-1]]  # shape (1, n_{L-1})
    for layer in range(net.num_layers - 1, 0, -1):
        rows.append((rows[-1] * betas[layer]) @ h[layer - 1])
    return [row[0] for row in reversed(rows)]


def forward_hop(net: LayeredNetwork, betas, layer: int, source, transfer):
    """Source vector and noise transfer matrix one hop on, at layer + 1.

    transfer maps every relay noise of layers 1..layer-1 (columns layer-major)
    to layer; this layer's own noises join scaled by their gains.
    """
    h, beta = net.gain_matrices[layer], betas[layer]
    transfer = h @ (beta[:, np.newaxis] * transfer)
    if layer > 0:
        transfer = np.concatenate([transfer, h * beta], axis=1)
    return h @ (source * beta), transfer


def propagate_coefficients(net: LayeredNetwork, gains: GainAssignment) -> CodingState:
    """Source vectors, noise powers and destination rows of every layer."""
    betas = [np.ones(1)] + [gains.layer_array(net, layer) for layer in range(1, net.num_layers)]
    source = [np.ones(1)]
    noise = [np.zeros(1)]
    transfer = np.zeros((1, 0))  # the source injects no noise
    for layer in range(net.num_layers):
        s, transfer = forward_hop(net, betas, layer, source[-1], transfer)
        source.append(s)
        noise.append((transfer * transfer).sum(axis=1) + 1.0)
    return CodingState(
        net=net,
        betas=tuple(betas),
        source=tuple(source),
        noise=tuple(noise),
        rows=tuple(destination_rows(net, betas)),
    )


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
    """Coefficient from origin to target by explicit path enumeration.

    Sums, over every path, the product of beta * h along the hops, starting
    with the origin's own amplification.  Reads the hop matrices and gain
    layers itself, independent of the layered sweep; guarded against
    combinatorial blow-up.
    """
    if target == origin:
        return 1.0
    betas = [np.ones(1)] + [gains.layer_array(net, l) for l in range(1, net.num_layers)]
    total = 0.0
    for path in enumerate_paths(net, origin, target):
        product = 1.0
        for a, b in zip(path, path[1:]):
            h = net.gain_matrices[a.layer][b.index, a.index]
            product *= float(betas[a.layer][a.index] * h)
        total += product
    return total
