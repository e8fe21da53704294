"""Signal and noise propagation coefficients.

Every reception is a linear combination of the source symbol and all noises
injected upstream.  The layered sweeps compute every coefficient as
per-layer arrays: propagate_coefficients is the forward pass, and
destination_rows the backward pass from every layer to the destination.
Brute-force path enumeration (anclab.oracle) recomputes any one of them as
an independent cross-check.
"""

import numpy as np

from anclab import GainAssignment, build_network, propagate_coefficients
from anclab.coding import destination_rows
from anclab.oracle import count_paths, enumerate_paths, path_coefficient

rng = np.random.default_rng(7)
net = build_network(
    [1, 3, 2, 1],
    [rng.uniform(-1.5, 1.5, (3, 1)), rng.uniform(-1.5, 1.5, (2, 3)), rng.uniform(-1.5, 1.5, (1, 2))],
    rng.uniform(0.5, 2.0, 5),
    2.0,
)
gains = GainAssignment.from_layers([rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 2)])

state = propagate_coefficients(net, gains)
rows = destination_rows(net, state.betas)
d = net.destination
print(f"signal coefficient at the destination: {state.source[-1][0]:+.6f}")
for origin in net.relays():
    o, i = origin.layer, origin.index
    scale = state.betas[o][i] * rows[o][i]
    print(f"  noise from {origin} arrives scaled by {scale:+.6f}")

# the destination's second moment decomposes into signal + noise + own noise
f = state.source[-1][0]
m2 = f * f * net.source_power + state.noise[-1][0]
print(f"destination second moment: {m2:.6f}")

# --- cross-check one coefficient by explicit path enumeration ---------------
print("paths source -> destination:", count_paths(net, net.source, d))
for path in enumerate_paths(net, net.source, d)[:3]:
    print("  path:", " -> ".join(str(p) for p in path))
dp = state.source[-1][0]
oracle = path_coefficient(net, gains, net.source, d)
print(f"sweep {dp:.12f} vs enumeration {oracle:.12f} (difference {abs(dp - oracle):.2e})")
