"""Shared generators for randomized suites.

Random networks come in two flavors.  Coherent ones have strictly positive
gains, the setting in which the sufficient power condition and the rate
bounds are provable; signed ones draw gains from [-2, 2] away from zero and
exercise the sign bookkeeping of the coefficient algebra.
"""

from __future__ import annotations

import math

import numpy as np

from anclab import GainAssignment, NodeId, build_network, max_safe_gain, propagate_coefficients
from anclab.coding import destination_rows, forward_hop
from anclab.power import _PASS_RTOL
from anclab.report import csv_table


def random_network(
    rng: np.random.Generator,
    max_layers: int = 5,
    max_width: int = 6,
    coherent: bool = False,
    gain_lo: float = 0.1,
    gain_hi: float = 2.0,
    budget_lo: float = 0.5,
    budget_hi: float = 4.0,
):
    num_hops = int(rng.integers(2, max_layers + 1))
    sizes = [1] + [int(rng.integers(1, max_width + 1)) for _ in range(num_hops - 1)] + [1]
    matrices = []
    for l in range(num_hops):
        shape = (sizes[l + 1], sizes[l])
        mat = rng.uniform(gain_lo, gain_hi, shape)
        if not coherent:
            mat *= rng.choice([-1.0, 1.0], size=shape)
        matrices.append(mat)
    budgets = rng.uniform(budget_lo, budget_hi, sum(sizes[1:-1]))
    source_power = float(rng.uniform(budget_lo, budget_hi))
    return build_network(sizes, matrices, budgets, source_power)


def near_cancelling_network(eps: float):
    """Signed [1, 2, 2, 1] network whose layer-1 node 0 reaches the destination
    through b_0 + (-2 + eps) b_1, which all but cancels under the matched
    scheme with exceptional layer 1 as eps shrinks."""
    return build_network(
        [1, 2, 2, 1], [[[10], [10]], [[1, 0], [1, 1]], [[1, -2 + eps]]], [1, 1, 1, 1], 100
    )


def cancelling_destination_network() -> dict:
    """[1, 3, 1] network, as JSON, whose destination sum 0.1 + 0.2 - 0.3 is
    cancellation residue; build_network refuses it."""
    return {
        "layer_sizes": [1, 3, 1],
        "gain_matrices": [[[1.0], [1.0], [1.0]], [[0.1, 0.2, -0.3]]],
        "power_budgets": [1.0] * 3,
        "source_power": 1.0,
    }


def box_limits(net) -> list[np.ndarray]:
    return [
        np.array([max_safe_gain(net, NodeId(layer, i)) for i in range(net.layer_sizes[layer])])
        for layer in range(1, net.num_layers)
    ]


def random_box_gains(
    rng: np.random.Generator, net, signed: bool = False
) -> GainAssignment:
    """Betas drawn uniformly inside each node's sufficient-condition box."""
    layers = []
    for limits in box_limits(net):
        fractions = rng.uniform(0.0, 1.0, limits.shape)
        if signed:
            fractions *= rng.choice([-1.0, 1.0], size=limits.shape)
        layers.append(fractions * limits)
    return GainAssignment.from_layers(layers)


def swept_coefficients(net, gains) -> dict:
    """Every coefficient production computes, keyed (origin, target) for each
    target downstream of the source or of a relay: state.source[l] from the
    source, betas[o] * destination_rows(...)[o] from a relay to the
    destination, and the columns of the transfer matrix that forward_hop
    carries from a relay to a later relay."""
    state = propagate_coefficients(net, gains)
    rows = destination_rows(net, state.betas)
    coefficients = {}
    for layer in range(1, net.num_layers + 1):
        for k, value in enumerate(state.source[layer]):
            coefficients[net.source, NodeId(layer, k)] = value
    relays = list(net.relays())  # layer-major, the transfer matrix's column order
    for origin in relays:
        o, i = origin.layer, origin.index
        coefficients[origin, net.destination] = state.betas[o][i] * rows[o][i]
    source, transfer = state.source[0], np.zeros((1, 0))
    for layer in range(net.num_layers - 1):  # targets: relay layers 1..L-1
        source, transfer = forward_hop(net, state.betas, layer, source, transfer)
        for column, origin in enumerate(relays[: transfer.shape[1]]):
            for k, value in enumerate(transfer[:, column]):
                coefficients[origin, NodeId(layer + 1, k)] = value
    return coefficients


def per_node_block_sums(net, beta_layers, seed: int, block: int, size: int):
    """Reference for `montecarlo._block_sums`: one whole-block draw per node
    and node-by-node moment sums, returned in the kernel's layout."""

    def noise(layer, index):
        return np.random.default_rng([seed, layer, index, block]).standard_normal(size)

    x_source = math.sqrt(net.source_power) * noise(0, 0)
    x = x_source[np.newaxis, :]
    node = [(np.sum(x_source**2), np.sum(x_source**4))]
    for layer in range(1, net.num_layers + 1):
        z = np.stack([noise(layer, i) for i in range(net.layer_sizes[layer])])
        y = net.gain_matrices[layer - 1] @ x + z
        if layer < net.num_layers:
            x = beta_layers[layer - 1][:, np.newaxis] * y
            node += [(np.sum(row**2), np.sum(row**4)) for row in x]
    y_d = y[0]
    dest = [
        np.sum(y_d**2),
        np.sum(y_d * x_source),
        np.sum(y_d**3 * x_source),
        np.sum(y_d**4),
        np.sum((y_d * x_source) ** 2),
    ]
    return np.array(node).T, np.array(dest)


FEASIBILITY_HEADER = (
    "node", "beta", "beta_max", "exact_power", "budget", "sufficient_ok", "exact_ok"
)


def feasibility_records(net, gains) -> list[dict]:
    """Reference for `check_feasible`: one FEASIBILITY_HEADER dict per relay, built in a loop."""
    state = propagate_coefficients(net, gains)
    records = []
    for layer in range(1, net.num_layers):
        beta = gains.betas(net)[layer]
        beta_max = net.safe_boxes[layer - 1]
        exact = state.transmit_powers(layer)
        budget = net.relay_budgets[layer - 1]
        sufficient_ok = np.abs(beta) <= beta_max * (1.0 + _PASS_RTOL)
        exact_ok = exact <= budget * (1.0 + _PASS_RTOL)
        for i in range(net.layer_sizes[layer]):
            records.append(
                {
                    "node": str(NodeId(layer, i)),
                    "beta": float(beta[i]),
                    "beta_max": float(beta_max[i]),
                    "exact_power": float(exact[i]),
                    "budget": float(budget[i]),
                    "sufficient_ok": bool(sufficient_ok[i]),
                    "exact_ok": bool(exact_ok[i]),
                }
            )
    return records


def records_outputs(records) -> tuple[dict, str]:
    """The to_dict() and to_csv() a feasibility report of these records writes."""
    verdicts = {
        "sufficient_ok": all(r["sufficient_ok"] for r in records),
        "exact_ok": all(r["exact_ok"] for r in records),
    }
    rows = ([r[name] for name in FEASIBILITY_HEADER] for r in records)
    return {"nodes": records, **verdicts}, csv_table(FEASIBILITY_HEADER, rows)
