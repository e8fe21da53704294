"""Numeric baseline for the best destination SNR over box-constrained gains.

Multi-start projected coordinate ascent.  Holding every other gain fixed,
the SNR is a ratio of quadratics in one gain whose stationary condition is
linear, so each coordinate step evaluates the exact interior optimum against
the box ends instead of a line search.  The closed-form schemes are always
injected as starting points, so the result never falls below them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import destination_snr
from .coding import propagate_coefficients
from .gains import GainAssignment
from .network import LayeredNetwork, RegimeSpec
from .power import safe_gains
from .schemes import full_power_gains, matched_gains


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 6
    max_iterations: int = 200
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def _gain_boxes(net: LayeredNetwork) -> list[np.ndarray]:
    return [safe_gains(net, layer) for layer in range(1, net.num_layers)]


def _coefficients_at(net, beta_layers, k, value):
    """Destination signal coefficient and noise coefficients with beta_k set."""
    arrays = [arr.copy() for arr in beta_layers]
    arrays[k.layer - 1][k.index] = value
    gains = GainAssignment.from_layers(arrays)
    state = propagate_coefficients(net, gains)
    noises = [state.betas[l] * state.rows[l] for l in range(1, net.num_layers)]
    return float(state.source[-1][0]), np.concatenate(noises)


def _best_coordinate(net, beta_layers, k, box):
    """Exact maximizer of the destination SNR over beta_k in [-box, box].

    The signal coefficient is affine in beta_k and every noise coefficient is
    affine as well, so the SNR is (a0 + a1 b)^2 P / (q0 + q1 b + q2 b^2) and
    its stationary equation reduces to a linear one after factoring out the
    signal zero.
    """
    f0, n0 = _coefficients_at(net, beta_layers, k, 0.0)
    f1, n1 = _coefficients_at(net, beta_layers, k, 1.0)
    a0, a1 = f0, f1 - f0
    d = n1 - n0
    q0 = float(n0 @ n0) + 1.0
    q1 = 2.0 * float(n0 @ d)
    q2 = float(d @ d)

    def snr(b: float) -> float:
        sig = a0 + a1 * b
        return sig * sig * net.source_power / (q0 + q1 * b + q2 * b * b)

    candidates = [box, -box]  # positive end first so sign-symmetric ties stay positive
    slope = a1 * q1 - 2.0 * a0 * q2
    intercept = a0 * q1 - 2.0 * a1 * q0
    if slope != 0.0:
        stationary = intercept / slope
        if -box < stationary < box:
            candidates.append(stationary)
    return max(candidates, key=snr)


def _ascend(net, start_layers, boxes, max_iterations, tolerance):
    """Coordinate sweeps from one start; returns (beta_layers, snr)."""
    beta_layers = [np.clip(arr, -b, b) for arr, b in zip(start_layers, boxes)]
    current = destination_snr(net, GainAssignment.from_layers(beta_layers))
    for _ in range(max_iterations):
        for k in net.relays():
            box = boxes[k.layer - 1][k.index]
            beta_layers[k.layer - 1][k.index] = _best_coordinate(net, beta_layers, k, box)
        updated = destination_snr(net, GainAssignment.from_layers(beta_layers))
        if updated <= current * (1.0 + tolerance):
            current = max(current, updated)
            break
        current = updated
    return beta_layers, current


def optimize_gains(
    net: LayeredNetwork, config: OptimizerConfig = OptimizerConfig()
) -> tuple[GainAssignment, float]:
    """Best found gain assignment and its destination SNR.

    Starting points: the full-power scheme, the matched scheme for every
    feasible exceptional layer, and config.restarts random draws inside the
    boxes.  Deterministic for a fixed config; ties keep the earliest start.
    """
    boxes = _gain_boxes(net)
    starts: list[list[np.ndarray]] = []

    starts.append([arr.copy() for arr in full_power_gains(net).layers])
    for layer in range(1, net.num_layers):
        try:
            assignment, _ = matched_gains(net, RegimeSpec(exceptional_layer=layer))
        except ValueError:
            continue
        starts.append([arr.copy() for arr in assignment.layers])

    rng = np.random.default_rng(config.seed)
    for _ in range(config.restarts):
        starts.append([rng.uniform(-b, b) for b in boxes])

    best_layers, best_snr = None, -1.0
    for start in starts:
        layers, snr = _ascend(net, start, boxes, config.max_iterations, config.tolerance)
        if snr > best_snr:
            best_layers, best_snr = layers, snr
    return GainAssignment.from_layers(best_layers), best_snr
