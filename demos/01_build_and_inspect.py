"""Build layered relay networks and inspect their structure.

A network is described by layer sizes, one gain matrix per hop, relay power
budgets, and the source power.  Validation enforces the strictly layered
shape and rejects unreachable or silent nodes.
"""

import numpy as np

from anclab import (
    NetworkValidationError,
    NodeId,
    build_network,
    network_from_dict,
    network_to_dict,
    received_power,
)
from anclab.network import neighbors_in
from anclab.presets import asymmetric_three_layer, diamond_network

# --- a minimal diamond: source, two parallel relays, destination -----------
net = diamond_network()
print("diamond layers:", net.layer_sizes)
print("relays:", [str(k) for k in net.relays()])
print("in-neighbors of the destination:", [str(j) for j in neighbors_in(net, net.destination)])

# received power with every in-neighbor at full budget
for k in net.nodes():
    if k.layer > 0:
        print(f"  received power at {k}: {received_power(net, k):g}")

# --- validation catches broken topologies -----------------------------------
try:
    build_network([1, 2, 1], [[[1.0], [0.0]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)
except NetworkValidationError as exc:
    print("rejected:", exc)

# --- JSON round trip ---------------------------------------------------------
net = asymmetric_three_layer()
data = network_to_dict(net)
again = network_from_dict(data)
assert again.layer_sizes == net.layer_sizes
assert all(np.array_equal(a, b) for a, b in zip(again.gain_matrices, net.gain_matrices))
print("JSON round trip reproduces the network exactly")
print("shipped three-layer config:", data["layer_sizes"], "source power", data["source_power"])
