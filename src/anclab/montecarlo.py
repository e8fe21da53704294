"""Sample-level simulation of the relay network.

Each sample draws an independent Gaussian source symbol and one unit-normal
noise per node, then propagates layer by layer exactly as the transmission
model prescribes (full duplex, no intersymbol memory, one scalar per node).
The empirical moments give an independent statistical check of the analytic
coefficients, transmit powers, and destination SNR.

Noise streams are keyed by (seed, node, block), so reports are bit-identical
for a fixed seed regardless of the worker count or scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import destination_snr
from .coding import propagate_coefficients
from .gains import GainAssignment
from .network import LayeredNetwork, NodeId, require_int_fields
from .report import as_json, json_text, records_csv

_BLOCK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    samples: int = 10**6
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        require_int_fields(self, (("samples", 1), ("seed", 0), ("workers", 1)))


@dataclass(frozen=True)
class SimReport:
    """Empirical moments with standard errors."""

    samples: int
    seed: int
    transmit_power: dict[NodeId, float]
    transmit_power_se: dict[NodeId, float]
    source_coeff: float
    source_coeff_se: float
    noise_power: float
    snr: float
    snr_se: float

    def to_dict(self) -> dict:
        return as_json(self)

    def to_json(self) -> str:
        return json_text(self)


def _node_noise(seed: int, node: NodeId, block: int, size: int) -> np.ndarray:
    rng = np.random.default_rng([seed, node.layer, node.index, block])
    return rng.standard_normal(size)


def _block_sums(net, beta_layers, seed, block, size):
    """Raw moment sums for one block of samples."""
    x = math.sqrt(net.source_power) * _node_noise(seed, NodeId(0, 0), block, size)
    x = x[np.newaxis, :]
    sums = {NodeId(0, 0): (float(np.sum(x**2)), float(np.sum(x**4)))}
    x_source = x[0]
    for layer in range(1, net.num_layers + 1):
        z = np.stack(
            [
                _node_noise(seed, NodeId(layer, i), block, size)
                for i in range(net.layer_sizes[layer])
            ]
        )
        y = net.gain_matrices[layer - 1] @ x + z
        if layer == net.num_layers:
            y_d = y[0]
            return sums, (
                float(np.sum(y_d**2)),
                float(np.sum(y_d**4)),
                float(np.sum(y_d * x_source)),
                float(np.sum((y_d * x_source) ** 2)),
                float(np.sum(y_d**3 * x_source)),
            )
        x = beta_layers[layer - 1][:, np.newaxis] * y
        for i in range(net.layer_sizes[layer]):
            sums[NodeId(layer, i)] = (float(np.sum(x[i] ** 2)), float(np.sum(x[i] ** 4)))
    raise AssertionError("unreachable")


def simulate(net: LayeredNetwork, gains: GainAssignment, config: SimConfig) -> SimReport:
    """Propagate config.samples draws and report empirical moments.

    Gains are applied as given; infeasible assignments are simulated, not
    rejected.  Blocks are accumulated in index order, so the report does not
    depend on how many workers ran them.
    """
    beta_layers = [gains.layer_array(net, layer) for layer in range(1, net.num_layers)]
    blocks = [
        (b, min(_BLOCK, config.samples - b * _BLOCK))
        for b in range((config.samples + _BLOCK - 1) // _BLOCK)
    ]

    def run(args):
        block, size = args
        return _block_sums(net, beta_layers, config.seed, block, size)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(b) for b in blocks]

    n = float(config.samples)
    node_sums: dict[NodeId, list[float]] = {}
    dest = [0.0] * 5
    for sums, dest_part in results:
        for node, (s2, s4) in sums.items():
            acc = node_sums.setdefault(node, [0.0, 0.0])
            acc[0] += s2
            acc[1] += s4
        for i, v in enumerate(dest_part):
            dest[i] += v

    power = {}
    power_se = {}
    for node, (s2, s4) in node_sums.items():
        mean = s2 / n
        var = max(s4 / n - mean * mean, 0.0)
        power[node] = mean
        power_se[node] = math.sqrt(var / n)

    s_y2, s_y4, s_yx, s_yx2, s_y3x = dest
    p_s = net.source_power
    f_hat = s_yx / (n * p_s)
    var_yx = max(s_yx2 / n - (s_yx / n) ** 2, 0.0)
    f_se = math.sqrt(var_yx / n) / p_s
    vy = s_y2 / n
    var_y2 = max(s_y4 / n - vy * vy, 0.0)
    noise_hat = vy - f_hat * f_hat * p_s
    if noise_hat <= 0.0:
        raise ValueError(
            f"degenerate destination noise estimate {noise_hat}; more samples needed"
        )
    snr_hat = f_hat * f_hat * p_s / noise_hat

    # Delta method for the SNR standard error in terms of (f_hat, vy).
    cov_u_v = (s_y3x / n - (s_yx / n) * vy) / (n * p_s)
    var_u = var_yx / (n * p_s * p_s)
    var_v = var_y2 / n
    d_u = 2.0 * f_hat * p_s * vy / (noise_hat * noise_hat)
    d_v = -f_hat * f_hat * p_s / (noise_hat * noise_hat)
    var_snr = max(d_u * d_u * var_u + d_v * d_v * var_v + 2.0 * d_u * d_v * cov_u_v, 0.0)

    return SimReport(
        samples=config.samples,
        seed=config.seed,
        transmit_power=power,
        transmit_power_se=power_se,
        source_coeff=f_hat,
        source_coeff_se=f_se,
        noise_power=noise_hat,
        snr=snr_hat,
        snr_se=math.sqrt(var_snr),
    )


def analytic_moments(net: LayeredNetwork, gains: GainAssignment) -> dict:
    """Exact counterparts of the simulated quantities."""
    state = propagate_coefficients(net, gains)
    power = {net.source: net.source_power}
    for layer in range(1, net.num_layers):
        for i, p in enumerate(state.transmit_powers(layer)):
            power[NodeId(layer, i)] = float(p)
    return {
        "transmit_power": power,
        "source_coeff": float(state.source[-1][0]),
        "noise_power": float(state.noise[-1][0]),
        "snr": destination_snr(net, gains, state=state),
    }


@dataclass(frozen=True)
class AgreementCheck:
    quantity: str
    node: NodeId | None
    empirical: float
    analytic: float
    stderr: float
    z: float = field(metadata={"float_format": ".6g"})
    ok: bool


@dataclass(frozen=True)
class AgreementReport:
    checks: tuple[AgreementCheck, ...]
    z_threshold: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {**as_json(self), "ok": self.ok}

    def to_csv(self) -> str:
        return records_csv(AgreementCheck, self.checks)


def agreement_check(
    report: SimReport, analytic: dict, z_threshold: float = 4.0
) -> AgreementReport:
    """Compare empirical moments against analytic values at a z threshold."""
    if set(report.transmit_power) != set(analytic["transmit_power"]):
        raise ValueError("node sets of the report and the analytic values differ")
    checks = []

    def add(quantity, node, empirical, expected, stderr):
        if stderr > 0:
            z = abs(empirical - expected) / stderr
        else:
            z = 0.0 if empirical == expected else math.inf
        checks.append(
            AgreementCheck(
                quantity=quantity,
                node=node,
                empirical=empirical,
                analytic=expected,
                stderr=stderr,
                z=z,
                ok=z <= z_threshold,
            )
        )

    for node in sorted(report.transmit_power):
        add(
            "transmit_power",
            node,
            report.transmit_power[node],
            analytic["transmit_power"][node],
            report.transmit_power_se[node],
        )
    add("source_coeff", None, report.source_coeff, analytic["source_coeff"], report.source_coeff_se)
    add("snr", None, report.snr, analytic["snr"], report.snr_se)
    return AgreementReport(checks=tuple(checks), z_threshold=z_threshold)
