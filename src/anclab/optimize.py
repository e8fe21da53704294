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
the SNR by a relative 1e-10 or less, or after 200 sweeps; each start logs
its sweep count and final SNR at DEBUG on this module's logger, and a start
still improving after the last sweep logs a warning.  The closed-form
schemes are always starting points, so the result never falls below them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .coding import destination_rows, forward_hop
from .gains import GainAssignment
from .network import LayeredNetwork, RegimeSpec, require_int_fields
from .power import safe_gains
from .schemes import matched_gains

_log = logging.getLogger(__name__)

_MAX_SWEEPS = 200  # per start
_TOLERANCE = 1e-10  # a sweep gaining no more than this relative SNR ends its start


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


def _sweep_layer(net, betas, layer, box, forward, rows, choose=_best_gain):
    """Coordinate steps over one layer's relays in index order, in place.

    forward is (s_l, T_l) from coding.forward_hop.  Relay i adds beta_i s_i r_i
    to the destination signal f.  With v = r * beta, the noise of this layer
    and of everything upstream reaches the destination with power v^T K v,
    K = T_l T_l^T + I, and the layers downstream add the fixed rest.  So the
    sweep keeps f, u = K v and Q = v^T u, reads each step's affine
    coefficients off them in scalar work, and updates u by row i of K (K is
    symmetric); choose(a0, a1, q0, q1, q2, box_i, power) picks the new gain.
    Returns f and the destination noise power.
    """
    source, transfer = forward
    r, beta = rows[layer], betas[layer]
    gram = transfer @ transfer.T
    gram.flat[:: gram.shape[0] + 1] += 1.0  # K = T T^T + I
    v = r * beta
    u = gram @ v
    quad = float(v @ u)
    u = u.tolist()
    rest = 1.0
    for m in range(layer + 1, net.num_layers):
        w = betas[m] * rows[m]
        rest += float(w @ w)
    f = float((beta * source) @ r)
    power = net.source_power
    for i, (k, s_i, r_i, b_i, box_i) in enumerate(
        zip(gram.tolist(), source.tolist(), r.tolist(), beta.tolist(), box.tolist())
    ):
        k_ii = k[i]
        v_i = r_i * b_i
        c = u[i] - k_ii * v_i  # sum over j != i of K_ij v_j
        a1 = s_i * r_i
        a0 = f - b_i * a1
        own = quad - v_i * (2.0 * c + k_ii * v_i)  # Q without relay i's noise
        q1 = 2.0 * r_i * c
        q2 = r_i * r_i * k_ii
        b = choose(a0, a1, own + rest, q1, q2, box_i, power)
        step = r_i * b - v_i
        u = [u_j + step * k_j for u_j, k_j in zip(u, k)]
        quad = own + b * (q1 + q2 * b)
        f = a0 + b * a1
        beta[i] = b
    return f, quad + rest


def _ascend(net, start_layers, boxes, max_iterations, start=0):
    """At most max_iterations coordinate sweeps from start number start;
    returns (beta_layers, snr).

    Sweep 0 only propagates.  Sweeping layer l changes no gain past it, so a
    sweep's rows stay valid and its forward pass ends under the final gains.
    """
    betas = [np.ones(1)] + [np.clip(arr, -b, b) for arr, b in zip(start_layers, boxes)]
    snrs = []
    for sweep in range(max_iterations + 1):
        rows = destination_rows(net, betas) if sweep else None
        forward = (np.ones(1), np.zeros((1, 0)))
        for layer in range(1, net.num_layers):
            forward = forward_hop(net, betas, layer - 1, *forward)
            if sweep:
                _sweep_layer(net, betas, layer, boxes[layer - 1], forward, rows)
        source, transfer = forward_hop(net, betas, net.num_layers - 1, *forward)
        f = float(source[0])  # as propagate_coefficients and destination_snr round
        snrs.append(f * f * net.source_power / float((transfer * transfer).sum(axis=1)[0] + 1.0))
        if sweep and snrs[-1] <= snrs[-2] * (1.0 + _TOLERANCE):
            break
    else:
        message = "start %d stopped at max_iterations=%d before converging: SNR %r -> %r"
        _log.warning(message, start, max_iterations, *snrs[-2:])
    _log.debug("start %d: %d sweeps, SNR %r", start, sweep, snrs[-1])
    return betas[1:], snrs[-1]


def optimize_gains(
    net: LayeredNetwork, config: OptimizerConfig = OptimizerConfig()
) -> tuple[GainAssignment, float]:
    """Best found gain assignment and its destination SNR.

    Starting points: the full-power scheme, the matched scheme for every
    feasible exceptional layer, and config.restarts random draws inside the
    boxes.  Deterministic for a fixed config; ties keep the earliest start.
    """
    boxes = [safe_gains(net, layer) for layer in range(1, net.num_layers)]
    starts = [boxes]  # full power: the safe_gains boxes, which _ascend clips into copies
    for layer in range(1, net.num_layers):
        try:
            assignment, _ = matched_gains(net, RegimeSpec(exceptional_layer=layer))
        except ValueError:
            continue
        starts.append(list(assignment.layers))

    rng = np.random.default_rng(config.seed)
    for _ in range(config.restarts):
        starts.append([rng.uniform(-b, b) for b in boxes])

    best_layers, best_snr = None, -1.0
    for index, start in enumerate(starts):
        layers, snr = _ascend(net, start, boxes, _MAX_SWEEPS, index)
        if snr > best_snr:
            best_layers, best_snr = layers, snr
    return GainAssignment.from_layers(best_layers), best_snr
