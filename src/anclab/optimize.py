"""Numeric baseline for the best destination SNR over box-constrained gains.

Multi-start projected coordinate ascent in layer-major order.  Holding every
other gain fixed, the SNR is a ratio of quadratics in one gain whose
stationary condition is linear, so each step compares the exact interior
optimum with the box ends.  Gains of layer l do not change its source vector
s_l, the transfer matrix T_l from upstream relay noises, or its destination
row r_l, so a sweep builds those once per layer and steps through the
layer's relays on them with O(R) rank-one updates.  The sweep's forward
pass, one hop on, gives the SNR bit for bit as a fresh propagation would; a
start still improving after max_iterations sweeps logs a warning.  The
closed-form schemes are always starting points, so the result never falls
below them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .coding import destination_rows, forward_hop
from .gains import GainAssignment
from .network import LayeredNetwork, RegimeSpec, require_int_fields
from .power import safe_gains
from .schemes import matched_gains


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 6
    max_iterations: int = 200
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        require_int_fields(self, (("restarts", 1), ("max_iterations", 1), ("seed", 0)))
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")


def _best_gain(a0, a1, q0, q1, q2, box, power) -> float:
    """Exact maximizer of (a0 + a1 b)^2 power / (q0 + q1 b + q2 b^2) over b in [-box, box].

    The stationary equation reduces to a linear one after factoring out the
    signal zero, so the interior optimum is compared with the box ends.
    """

    def snr(b: float) -> float:
        sig = a0 + a1 * b
        return sig * sig * power / (q0 + q1 * b + q2 * b * b)

    candidates = [box, -box]  # positive end first so sign-symmetric ties stay positive
    slope = a1 * q1 - 2.0 * a0 * q2
    intercept = a0 * q1 - 2.0 * a1 * q0
    if slope != 0.0:  # guards the division only: a stationary point must beat both ends
        stationary = intercept / slope
        if -box < stationary < box:
            candidates.append(stationary)
    return max(candidates, key=snr)


def _sweep_layer(net, betas, layer, box, forward, rows, choose=_best_gain):
    """Coordinate steps over one layer's relays in index order, in place.

    forward is (s_l, T_l) from coding.forward_hop.  Relay i adds beta_i s_i r_i
    to the destination signal f and beta_i r_i (T_l[i], e_i) to its noise
    coefficients, so each step reads its affine coefficients off f and the
    noise vector and updates both by a rank-one step; choose(a0, a1, q0, q1,
    q2, box_i, power) picks the new gain.  Returns f and the noise vector.
    """
    source, transfer = forward
    r, beta = rows[layer], betas[layer]
    upstream = transfer.shape[1]
    noise = np.concatenate(
        [(r * beta) @ transfer]
        + [betas[m] * rows[m] for m in range(layer, net.num_layers)]
    )
    up, own = noise[:upstream], noise[upstream : upstream + beta.size]
    f = float((beta * source) @ r)
    power = net.source_power
    steps = r[:, np.newaxis] * transfer  # row i: relay i's noise-coefficient step per unit gain
    q2s = np.vecdot(steps, steps) + r * r
    for i, (s_i, r_i, b_i, box_i, q2) in enumerate(
        zip(source.tolist(), r.tolist(), beta.tolist(), box.tolist(), q2s.tolist())
    ):
        d_up = steps[i]
        a1 = s_i * r_i
        a0 = f - b_i * a1
        up -= b_i * d_up
        own[i] = 0.0
        q0 = float(noise @ noise) + 1.0
        q1 = 2.0 * float(up @ d_up)
        b = choose(a0, a1, q0, q1, q2, box_i, power)
        up += b * d_up
        own[i] = b * r_i
        f = a0 + b * a1
        beta[i] = b
    return f, noise


def _ascend(net, start_layers, boxes, max_iterations, tolerance, start=0):
    """Coordinate sweeps from start number start; returns (beta_layers, snr).

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
        if sweep and snrs[-1] <= snrs[-2] * (1.0 + tolerance):
            break
    else:
        message = "start %d stopped at max_iterations=%d before converging: SNR %r -> %r"
        logging.getLogger(__name__).warning(message, start, max_iterations, *snrs[-2:])
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
        layers, snr = _ascend(net, start, boxes, config.max_iterations, config.tolerance, index)
        if snr > best_snr:
            best_layers, best_snr = layers, snr
    return GainAssignment.from_layers(best_layers), best_snr
