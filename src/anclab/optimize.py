"""Numeric baseline for the best destination SNR over box-constrained gains.

Multi-start projected coordinate ascent in layer-major order.  Holding every
other gain fixed, the SNR is a ratio of quadratics in one gain whose
stationary condition is linear, so each step compares the exact interior
optimum with the box ends.  Gains of layer l do not change its source vector
s_l, the transfer matrix T_l from upstream relay noises, or its destination
row r_l.  The noise of layer l and of everything upstream reaches the
destination with power v^T K v, where v = r_l * beta_l and K = T_l T_l^T + I
is the layer's noise Gram matrix, and the layers downstream add a fixed
rest.  So a sweep builds K with one matmul per layer, and each relay step is
O(W) scalar work on K's row and u = K v, for a layer of W relays.  The gains
alone set the reported SNR: the sweep's forward pass, one hop on, gives it
bit for bit as a fresh propagation would.  A start stops when a sweep raises
the SNR by a relative 1e-10 or less, or after 200 sweeps.  The closed-form
schemes are always starting points, so the result never falls below them.

The starts are independent, so they run in lockstep: up to _STACK (32) of
them, in start order, form a stack with one row per start, and each sweep
makes its backward pass, forward hops and Gram builds once for the whole
stack through coding's stack axis.  Only the scalar relay steps run start by
start.  A start that stops leaves the stack, and the next stack's random
starts are drawn when it begins, so memory is bounded by the stack whatever
the restart count.  Each start gives the bits it gives alone.  Once a stack
finishes, its starts log in start order on this module's logger: each its
sweep count and final SNR at DEBUG, after a warning if it was still
improving at the last sweep.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .coding import destination_rows, forward_hop
from .gains import GainAssignment
from .network import LayeredNetwork, RegimeSpec, require_int_fields
from .schemes import matched_gains

_log = logging.getLogger(__name__)

_MAX_SWEEPS = 200  # per start
_TOLERANCE = 1e-10  # a sweep gaining no more than this relative SNR ends its start
_STACK = 32  # starts ascended together at most


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        require_int_fields(self, (("restarts", 1), ("seed", 0)))


def _best_gain(a0, a1, q0, q1, q2, box, power) -> float:
    """Exact maximizer of (a0 + a1 b)^2 power / (q0 + q1 b + q2 b^2) over b in [-box, box].

    The stationary equation reduces to a linear one after factoring out the
    signal zero, so the interior optimum is compared with the box ends: the
    positive end first, so sign-symmetric ties stay positive, and a later
    candidate only when its SNR is strictly higher.
    """
    sig = a0 + a1 * box
    best, best_snr = box, sig * sig * power / (q0 + q1 * box + q2 * box * box)
    sig = a0 - a1 * box
    snr = sig * sig * power / (q0 - q1 * box + q2 * box * box)
    if snr > best_snr:
        best, best_snr = -box, snr
    slope = a1 * q1 - 2.0 * a0 * q2
    if slope != 0.0:  # guards the division only: a stationary point must beat both ends
        b = (a0 * q1 - 2.0 * a1 * q0) / slope
        if -box < b < box:
            sig = a0 + a1 * b
            if sig * sig * power / (q0 + q1 * b + q2 * b * b) > best_snr:
                best = b
    return best


def _dot(a, b):
    """Row-wise a . b of two stacks of vectors, one (1, n) @ (n, 1) product per row."""
    return (a[..., np.newaxis, :] @ b[..., :, np.newaxis])[..., 0, 0]


def _sweep_layer(net, betas, layer, box, forward, rows):
    """Coordinate steps over one layer's relays in index order, in place,
    for every start of the stack.

    betas, forward = (s_l, T_l) from coding.forward_hop and rows from
    coding.destination_rows are stacked, one row per start.  Relay i adds
    beta_i s_i r_i to the destination signal f.  With v = r * beta, the noise
    of this layer and of everything upstream reaches the destination with
    power v^T K v, K = T_l T_l^T + I, and the layers downstream add the fixed
    rest.  So the sweep builds K, u = K v, Q = v^T u, rest and f for the
    whole stack, then steps each start in turn: it reads each step's affine
    coefficients off them in scalar work, and updates u by row i of K (K is
    symmetric).
    Returns the lists of f and of the destination noise power, by start.
    """
    source, transfer = forward
    r, beta = rows[layer], betas[layer]
    gram = transfer @ transfer.swapaxes(-1, -2)
    size = gram.shape[-1]
    gram.reshape(len(gram), -1)[:, :: size + 1] += 1.0  # K = T T^T + I
    v = r * beta
    u = (gram @ v[..., np.newaxis])[..., 0]
    rest = [1.0] * len(beta)
    for m in range(layer + 1, net.num_layers):
        w = betas[m] * rows[m]
        rest = [total + term for total, term in zip(rest, _dot(w, w).tolist())]
    power = net.source_power
    boxes = box.tolist()
    signals, noises = [], []
    for gains, gram_s, source_s, r_s, beta_s, u_s, quad, rest_s, f in zip(
        beta, gram.tolist(), source.tolist(), r.tolist(), beta.tolist(), u.tolist(),
        _dot(v, u).tolist(), rest, _dot(beta * source, r).tolist(),
    ):  # one start: gains is its writable row of beta
        for i, (k, s_i, r_i, b_i, box_i) in enumerate(zip(gram_s, source_s, r_s, beta_s, boxes)):
            k_ii = k[i]
            v_i = r_i * b_i
            c = u_s[i] - k_ii * v_i  # sum over j != i of K_ij v_j
            a1 = s_i * r_i
            a0 = f - b_i * a1
            own = quad - v_i * (2.0 * c + k_ii * v_i)  # Q without relay i's noise
            q1 = 2.0 * r_i * c
            q2 = r_i * r_i * k_ii
            b = _best_gain(a0, a1, own + rest_s, q1, q2, box_i, power)
            step = r_i * b - v_i
            u_s = [u_j + step * k_j for u_j, k_j in zip(u_s, k)]
            quad = own + b * (q1 + q2 * b)
            f = a0 + b * a1
            gains[i] = b
        signals.append(f)
        noises.append(quad + rest_s)
    return signals, noises


def _ascend(net, starts, boxes, max_iterations, first=0):
    """At most max_iterations coordinate sweeps of every start in starts, a list
    of per-layer gain lists numbered from first, ascended as one stack;
    returns [(beta_layers, snr)] in start order and then logs each start.

    Sweep 0 only propagates.  Sweeping layer l changes no gain past it, so a
    sweep's rows stay valid and its forward pass ends under the final gains.
    The hop into layer 1 does not depend on the gains and is computed once.
    A start that stops leaves the stack: its rows are dropped.
    """
    betas = [np.ones(1)]
    betas += [np.clip(np.stack(layer), -b, b) for layer, b in zip(zip(*starts), boxes)]
    first_hop = forward_hop(net, betas, 0, np.ones(1), np.zeros((1, 0)))
    first_hop = [np.broadcast_to(a, (len(starts), *a.shape)) for a in first_hop]
    live = list(range(first, first + len(starts)))  # start number of each stack row
    finished = {}
    for sweep in range(max_iterations + 1):
        rows = destination_rows(net, betas) if sweep else None
        forward = first_hop
        for layer in range(1, net.num_layers):
            if sweep:
                _sweep_layer(net, betas, layer, boxes[layer - 1], forward, rows)
            forward = forward_hop(net, betas, layer, *forward)
        source, transfer = forward
        f = source[:, 0]  # as propagate_coefficients and destination_snr round
        noise = (transfer * transfer).sum(axis=-1)[:, 0] + 1.0
        snr = (f * f * net.source_power / noise).tolist()
        if sweep:
            stopped = [s <= p * (1.0 + _TOLERANCE) for s, p in zip(snr, previous)]
            if sweep == max_iterations or any(stopped):
                keep = []
                for row, (start, s, p, stop) in enumerate(zip(live, snr, previous, stopped)):
                    if stop or sweep == max_iterations:
                        layers = [b[row] for b in betas[1:]]
                        finished[start] = layers, s, sweep, None if stop else (p, s)
                    else:
                        keep.append(row)
                if not keep:
                    break
                betas = betas[:1] + [b[keep] for b in betas[1:]]
                first_hop = [a[keep] for a in first_hop]
                live = [live[row] for row in keep]
                snr = [snr[row] for row in keep]
        previous = snr

    results = []
    for start in sorted(finished):
        layers, snr, sweeps, unconverged = finished[start]
        if unconverged:
            message = "start %d stopped at max_iterations=%d before converging: SNR %r -> %r"
            _log.warning(message, start, max_iterations, *unconverged)
        _log.debug("start %d: %d sweeps, SNR %r", start, sweeps, snr)
        results.append((layers, snr))
    return results


def _starts(net, boxes, config):
    """Every starting point, in start order: full power, then the matched
    scheme of each exceptional layer that has one, then the random draws."""
    yield boxes  # full power: the network's safe boxes, which _ascend clips into copies
    for layer in range(1, net.num_layers):
        try:
            assignment, _ = matched_gains(net, RegimeSpec(exceptional_layer=layer))
        except ValueError:
            continue
        yield list(assignment.layers)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.restarts):
        yield [rng.uniform(-b, b) for b in boxes]


def optimize_gains(
    net: LayeredNetwork, config: OptimizerConfig = OptimizerConfig()
) -> tuple[GainAssignment, float]:
    """Best found gain assignment and its destination SNR.

    Starting points: the full-power scheme, the matched scheme for every
    feasible exceptional layer, and config.restarts random draws inside the
    boxes.  Deterministic for a fixed config; ties keep the earliest start.
    """
    boxes = list(net.safe_boxes)
    starts = _starts(net, boxes, config)
    best_layers, best_snr = None, -1.0
    count = 0
    while stack := list(itertools.islice(starts, _STACK)):
        for layers, snr in _ascend(net, stack, boxes, _MAX_SWEEPS, count):
            if snr > best_snr:
                best_layers, best_snr = layers, snr
        count += len(stack)
    return GainAssignment.from_layers(best_layers), best_snr
