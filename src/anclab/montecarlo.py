"""Sample-level simulation of the relay network.

Each sample draws an independent Gaussian source symbol and one unit-normal
noise per node, then propagates layer by layer exactly as the transmission
model prescribes (full duplex, no intersymbol memory, one scalar per node).
The empirical moments give an independent statistical check of the analytic
coefficients, transmit powers, and destination SNR.

Samples come in blocks of 2^15.  In each block the source symbol and every
node's noise come from a generator of their own, keyed by (seed, layer,
index, block), so a block's samples do not depend on which worker runs it.
A block runs in passes of 2^11 samples: each pass continues every stream
into buffers allocated once per block and adds the pass's moment sums to the
block's.  The streams carry on from pass to pass, so the samples equal one
draw of the block's length.  Blocks' sums are added in block order, so
reports are bit-identical for a fixed seed regardless of the worker count.

Transmitting nodes come in one order everywhere: the source, then the
relays layer-major.  SimReport.transmit_power is keyed by NodeId in that
order, analytic_moments returns its transmit powers as one array in that
order, and agreement_check pairs the two by position.

SimReport.to_dict keys its node dicts by "l:i", and AgreementReport.to_dict
gives each check's node as "l:i" or None.  A check's z is inf when its
standard error is exactly 0 and the two values differ: the CSV prints inf,
and report.json_text refuses it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coding import propagate_coefficients
from .gains import GainAssignment
from .network import LayeredNetwork, NodeId, require_int_fields
from .report import csv_table

_BLOCK = 1 << 15
_PASS = 1 << 11
# Each worker is a thread that runs whole blocks, so a long run starts up to
# this many threads; a larger count is refused before any pool exists.
MAX_WORKERS = 64


@dataclass(frozen=True)
class SimConfig:
    samples: int = 10**6
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        require_int_fields(self, (("samples", 2), ("seed", 0), ("workers", 1)))
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}, got {self.workers}")


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
        """The fields in order, the two node-keyed dicts keyed by "l:i"."""
        data = dict(vars(self))
        for name in ("transmit_power", "transmit_power_se"):
            data[name] = {str(node): value for node, value in data[name].items()}
        return data


def _block_sums(net, betas, seed, block, size):
    """Raw moment sums of one block under betas = GainAssignment.betas(net), pass by pass.

    Returns the sums of x^2 and x^4 of each transmitting node, shape
    (2, nodes) in layer order from the source, and the destination's sums of
    y^2, yx, y^3 x, y^4 and (yx)^2, where x is the source symbol.
    """
    sizes = net.layer_sizes
    rngs = [
        [np.random.default_rng([seed, layer, i, block]) for i in range(width)]
        for layer, width in enumerate(sizes)
    ]
    scale = math.sqrt(net.source_power)
    source = np.empty(_PASS)
    # Received rows of even and odd layers, and scratch rows for the noise,
    # the powers and the destination's three products.
    even, odd, scratch = (np.empty(max(*sizes, 3) * _PASS) for _ in range(3))
    node = np.zeros((2, sum(sizes[:-1])))
    dest = np.zeros(5)
    for start in range(0, size, _PASS):
        n = min(_PASS, size - start)
        x = source[:n].reshape(1, n)
        rngs[0][0].standard_normal(out=x[0])
        x *= scale
        col = 0
        for layer in range(1, len(sizes)):
            sq = scratch[: x.size].reshape(x.shape)
            np.square(x, out=sq)
            node[0, col : col + len(x)] += sq.sum(axis=1)
            np.square(sq, out=sq)
            node[1, col : col + len(x)] += sq.sum(axis=1)
            col += len(x)
            y = (odd if layer % 2 else even)[: sizes[layer] * n].reshape(-1, n)
            z = scratch[: y.size].reshape(y.shape)
            for row, rng in zip(z, rngs[layer]):
                rng.standard_normal(out=row)
            np.matmul(net.gain_matrices[layer - 1], x, out=y)
            y += z
            if layer < net.num_layers:
                y *= betas[layer][:, np.newaxis]
                x = y
        t = scratch[: 3 * n].reshape(3, n)
        np.square(y[0], out=t[0])
        np.multiply(y[0], source[:n], out=t[1])
        np.multiply(t[0], t[1], out=t[2])
        dest[:3] += t.sum(axis=1)
        np.square(t[:2], out=t[:2])
        dest[3:] += t[:2].sum(axis=1)
    return node, dest


@np.errstate(over="ignore", invalid="ignore")  # overflowing moment sums are refused
def simulate(net: LayeredNetwork, gains: GainAssignment, config: SimConfig) -> SimReport:
    """Propagate config.samples draws and report empirical moments.

    Gains are applied as given; infeasible assignments are simulated, not
    rejected.  Workers run whole blocks, each in passes over noise streams
    keyed by (seed, node, block), and the blocks' sums are added in block
    order as they arrive, so the report does not depend on the worker count.
    """
    betas = gains.betas(net)
    blocks = [
        (b, min(_BLOCK, config.samples - b * _BLOCK))
        for b in range((config.samples + _BLOCK - 1) // _BLOCK)
    ]

    @np.errstate(over="ignore", invalid="ignore")  # per thread, so in the pool's threads too
    def run(args):
        block, size = args
        return _block_sums(net, betas, config.seed, block, size)

    nodes = [NodeId(l, i) for l in range(net.num_layers) for i in range(net.layer_sizes[l])]
    node_sums = np.zeros((2, len(nodes)))
    dest = np.zeros(5)
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        for block_nodes, block_dest in (pool.map if config.workers > 1 else map)(run, blocks):
            node_sums += block_nodes
            dest += block_dest
    if not (np.isfinite(node_sums).all() and np.isfinite(dest).all()):
        raise ValueError("moment sums overflow float64; powers too large to simulate")

    n = float(config.samples)
    mean = node_sums[0] / n
    se = np.sqrt(np.maximum(node_sums[1] / n - mean * mean, 0.0) / n)
    power = dict(zip(nodes, mean.tolist()))
    power_se = dict(zip(nodes, se.tolist()))

    s_y2, s_yx, s_y3x, s_y4, s_yx2 = dest.tolist()
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
    u_scale = n * p_s * p_s
    if u_scale == 0.0:
        raise ValueError(f"source power {p_s!r} too small to simulate: n * P_S**2 underflows")
    var_u = var_yx / u_scale
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
    """Exact counterparts of the simulated quantities, transmit_power an array in node order."""
    state = propagate_coefficients(net, gains)
    relays = [state.transmit_powers(layer) for layer in range(1, net.num_layers)]
    return {
        "transmit_power": np.concatenate([[net.source_power], *relays]),
        "source_coeff": float(state.source[-1][0]),
        "noise_power": float(state.noise[-1][0]),
        "snr": state.snr,
    }


@dataclass(frozen=True)
class AgreementCheck:
    quantity: str
    node: NodeId | None
    empirical: float
    analytic: float
    stderr: float
    z: float
    ok: bool


_CHECK_COLUMNS = ("quantity", "node", "empirical", "analytic", "stderr", "z", "ok")


@dataclass(frozen=True)
class AgreementReport:
    checks: tuple[AgreementCheck, ...]
    z_threshold: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        """Each check's fields, its node as "l:i" or None, then z_threshold and ok."""
        checks = [{**vars(c), "node": None if c.node is None else str(c.node)} for c in self.checks]
        return {"checks": checks, "z_threshold": self.z_threshold, "ok": self.ok}

    def to_csv(self) -> str:
        """One row per check in _CHECK_COLUMNS order; z is written with ".6g"."""
        rows = (
            (c.quantity, c.node, c.empirical, c.analytic, c.stderr, format(c.z, ".6g"), c.ok)
            for c in self.checks
        )
        return csv_table(_CHECK_COLUMNS, rows)


def agreement_check(
    report: SimReport, analytic: dict, z_threshold: float = 4.0
) -> AgreementReport:
    """Compare empirical moments against analytic values at a z threshold."""
    if not (math.isfinite(z_threshold) and z_threshold > 0):
        raise ValueError(f"z_threshold must be finite and positive, got {z_threshold!r}")
    powers = analytic["transmit_power"].tolist()
    n, m = len(report.transmit_power), len(powers)
    if n != m:
        raise ValueError(f"the report has {n} transmitting nodes, the analytic values {m}")
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

    # Both sides list the transmitting nodes in the same layer-major order.
    for node, exact in zip(report.transmit_power, powers):
        power, se = report.transmit_power[node], report.transmit_power_se[node]
        add("transmit_power", node, power, exact, se)
    add("source_coeff", None, report.source_coeff, analytic["source_coeff"], report.source_coeff_se)
    add("snr", None, report.snr, analytic["snr"], report.snr_se)
    return AgreementReport(checks=tuple(checks), z_threshold=z_threshold)
