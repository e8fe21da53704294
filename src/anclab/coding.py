"""Signal and noise propagation coefficients, one array per layer.

Each node retransmits a scaled copy of its noisy reception, so the signal
arriving anywhere is a linear combination of the source symbol and every
noise injected upstream.  The coefficient from an origin o to a node k is
the sum over all relay paths of the per-hop products beta * h, with the
origin's own amplification included (the source has beta fixed at 1).

In matrix form one hop is A_l = H_l diag(beta_l).  propagate_coefficients
is the forward sweep only (forward_hop): it carries the source vector
s_{l+1} = A_l s_l and the transfer matrix from every upstream relay noise
to layer l+1, whose squared row sums give the propagated noise power.
destination_rows is the backward sweep, run where its rows r_l (the
coefficient from a layer-l transmission to the destination) are read.
Where one row is read, swept_row runs the sweep down to that row only;
schemes.downstream_gains reads it as it is, and visible_row(net, betas, l)
applies the one residue rule, network.drop_residue, to it.  These per-layer
arrays are the interface: callers index them by layer and node, and no
per-node accessor re-derives an entry.  The oracle that checks them,
brute-force path enumeration, lives in anclab.oracle: it reads only
gain_matrices and GainAssignment.betas(net), and no module of the package
imports it.

forward_hop and destination_rows also take a stack of S gain assignments,
one (S, n_l) array per layer, and every array they return then carries the
same leading axis.  The
optimizer ascends its starts this way, one numpy call per layer product for
the whole stack.  A stacked call gives every assignment the bits of its own
unstacked call, because each product keeps an explicit unit axis, so numpy
runs it per assignment as the same matrix-vector or row-matrix product:
(h @ x[..., None])[..., 0] and rows of shape (..., 1, n).  A flattened
(S, n) @ (n, m) product goes through a different BLAS kernel and can differ
in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gains import GainAssignment
from .network import LayeredNetwork, drop_residue


@dataclass(frozen=True)
class CodingState:
    """Forward propagation quantities of a network under one gain assignment.

    The array fields are the interface, each a tuple indexed by layer and
    then by node index:
      betas[l]   GainAssignment.betas(net): gains of layers 0..L-1, the source's 1;
      source[l]  coefficient of the source symbol at layer l, l = 0..L;
      noise[l]   propagated-plus-local noise power at layer l, unit noise
                 variances (0 at the source, which receives nothing).
    So the destination's signal coefficient is source[-1][0], its noise power
    noise[-1][0], and snr their SNR.  A relay (l, i)'s noise reaches the
    destination scaled by betas[l][i] * destination_rows(net, betas)[l][i], the
    backward sweep that this state does not run.  anclab.oracle checks them.
    """

    net: LayeredNetwork
    betas: tuple[np.ndarray, ...]
    source: tuple[np.ndarray, ...]
    noise: tuple[np.ndarray, ...]

    def transmit_powers(self, layer: int) -> np.ndarray:
        """True second moment beta^2 E[y^2] of every relay of a layer, where
        E[y^2] = s^2 P + noise is the reception's signal plus noise power."""
        self.net.require_relay_layer(layer)
        s, beta = self.source[layer], self.betas[layer]
        return beta * beta * (s * s * self.net.source_power + self.noise[layer])

    @property
    def snr(self) -> float:
        """Destination SNR f^2 P / noise, the one SNR formula of a propagation."""
        f = float(self.source[-1][0])
        return f * f * self.net.source_power / float(self.noise[-1][0])


def _backward_rows(h, betas) -> list[np.ndarray]:
    """Rows r_{n-1}, ..., r_0 of the backward sweep over the n hops h, last hop first,
    each (..., 1, n_k), (S, 1, n_k) for a stack: a row-matrix product per assignment."""
    last = betas[-1]
    rows = [h[-1][np.newaxis].repeat(len(last), axis=0) if np.ndim(last) > 1 else h[-1]]
    for k in range(len(h) - 1, 0, -1):
        rows.append((rows[-1] * betas[k][..., np.newaxis, :]) @ h[k - 1])
    return rows


def destination_rows(net: LayeredNetwork, betas) -> list[np.ndarray]:
    """Backward sweep r_{L-1} = H_{L-1}, r_l = (r_{l+1} * beta_{l+1}) H_l.

    betas[l] is read for layers 1..L-1 only; r_l excludes layer l's own gain,
    so betas[l] * r_l is the destination coefficient of a layer-l noise.  Stacked
    betas, one (S, n_l) array per layer, give (S, n_l) rows, r_{L-1} repeated.
    """
    return [row[..., 0, :] for row in reversed(_backward_rows(net.gain_matrices, betas))]


def swept_row(h, betas) -> np.ndarray:
    """First row of the backward sweep over the hops h, in len(h) - 1 steps: row l of a
    network is swept_row(net.gain_matrices[l:], betas[l:]), destination_rows' row l bit for bit."""
    return _backward_rows(h, betas)[-1][0]


def visible_row(net: LayeredNetwork, betas, layer: int) -> np.ndarray:
    """destination_rows(net, betas)[layer], swept down to that row only, with an
    entry no larger than 1e-12 times the same sweep on |H| and |beta| set to 0.0."""
    h, betas = net.gain_matrices[layer:], betas[layer:]
    scale = swept_row([*map(np.abs, h)], [*map(np.abs, betas)])
    return drop_residue(swept_row(h, betas), scale)


def forward_hop(net: LayeredNetwork, betas, layer: int, source, transfer):
    """Source vector and noise transfer matrix one hop on, at layer + 1.

    transfer maps every relay noise of layers 1..layer-1 (columns layer-major)
    to layer; this layer's own noises join scaled by their gains.  Stacked
    betas, source or transfer give a stacked result.
    """
    h, beta = net.gain_matrices[layer], betas[layer]
    transfer = h @ (beta[..., :, np.newaxis] * transfer)
    if layer > 0:
        transfer = np.concatenate([transfer, h * beta[..., np.newaxis, :]], axis=-1)
    return (h @ (source * beta)[..., np.newaxis])[..., 0], transfer


def propagate_coefficients(net: LayeredNetwork, gains: GainAssignment) -> CodingState:
    """Source vectors and noise powers of every layer, by the forward sweep alone."""
    betas = gains.betas(net)
    source = [np.ones(1)]
    noise = [np.zeros(1)]
    transfer = np.zeros((1, 0))  # the source injects no noise
    for layer in range(net.num_layers):
        s, transfer = forward_hop(net, betas, layer, source[-1], transfer)
        source.append(s)
        noise.append((transfer * transfer).sum(axis=1) + 1.0)
    return CodingState(net=net, betas=betas, source=tuple(source), noise=tuple(noise))
