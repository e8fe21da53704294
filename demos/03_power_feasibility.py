"""Safe amplification boxes versus exact transmit power.

The box rule beta^2 <= P / ((1 + 1/P_R) P_R) guarantees the budget whenever
signals combine constructively.  The check report shows both verdicts; the
second half demonstrates why the guarantee needs coherent gains.
"""

import numpy as np

from anclab import (
    GainAssignment,
    NodeId,
    build_network,
    check_feasible,
    exact_transmit_power,
    max_safe_gain,
)
from anclab.presets import asymmetric_three_layer

net = asymmetric_three_layer()
boxes = {k: max_safe_gain(net, k) for k in net.relays()}
print("per-node safe gain limits:")
for k, b in boxes.items():
    print(f"  {k}: |beta| <= {b:.4f}  (budget {net.relay_budgets[k.layer - 1][k.index]:g})")

gains = GainAssignment.from_layers(
    [[boxes[NodeId(1, 0)], boxes[NodeId(1, 1)]], [boxes[NodeId(2, 0)], boxes[NodeId(2, 1)]]]
)
report = check_feasible(net, gains)
print("\nall relays at the box edge:")
print(report.to_csv())

# --- slack upstream lets a gain exceed its box yet satisfy the true budget --
slack_net = build_network([1, 1, 1, 1], [[[1.0]], [[1.0]], [[1.0]]], [120.0, 1.0], 1.0)
b_max = max_safe_gain(slack_net, NodeId(2, 0))
quiet_upstream = GainAssignment.from_layers([[1e-3], [10.0 * b_max]])
entry = check_feasible(slack_net, quiet_upstream).entries[1]
print(
    f"ten times the safe gain: sufficient_ok={entry.sufficient_ok}, "
    f"exact power {entry.exact_power:.4f} <= budget {entry.budget:g} -> exact_ok={entry.exact_ok}"
)

# --- and the converse: sign cancellations break the box guarantee -----------
cancel = build_network(
    [1, 2, 1, 1], [[[1.0], [-1.0]], [[1.0, -0.9]], [[1.0]]], [1.0, 1.0, 1.0], 1.0
)
edge = GainAssignment.from_layers(
    [[max_safe_gain(cancel, NodeId(1, 0)), max_safe_gain(cancel, NodeId(1, 1))],
     [max_safe_gain(cancel, NodeId(2, 0))]]
)
k = NodeId(2, 0)
print(
    f"anti-correlated inputs at {k}: exact power "
    f"{exact_transmit_power(cancel, edge, k):.3f} despite budget {cancel.relay_budgets[1][0]:g} "
    "(the box rule presumes coherent combining)"
)
