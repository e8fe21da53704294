"""Sample-level simulation against the analytic moments.

The simulator draws Gaussian source symbols and unit noises, propagates them
layer by layer, and reports empirical transmit powers, the source-to-
destination coefficient, and the SNR with standard errors.  Noise streams
are keyed by (seed, node, block), so worker count never changes the output.
"""

from anclab import (
    RegimeSpec,
    SimConfig,
    agreement_check,
    analytic_moments,
    matched_gains,
    simulate,
)
from anclab.presets import asymmetric_three_layer
from anclab.report import json_text

net = asymmetric_three_layer()
gains, _ = matched_gains(net, RegimeSpec(exceptional_layer=2))

report = simulate(net, gains, SimConfig(samples=400_000, seed=2026, workers=2))
analytic = analytic_moments(net, gains)

print(f"{'quantity':>16} {'empirical':>12} {'analytic':>12} {'z':>6}")
result = agreement_check(report, analytic, z_threshold=4.0)
for check in result.checks:
    label = check.quantity if check.node is None else f"{check.quantity}[{check.node}]"
    print(f"{label:>16} {check.empirical:12.5f} {check.analytic:12.5f} {check.z:6.2f}")
print("verdict:", "agree" if result.ok else "DISAGREE")

again = simulate(net, gains, SimConfig(samples=400_000, seed=2026, workers=5))
same = json_text(report.to_dict()) == json_text(again.to_dict())
print("bit-identical across worker counts:", same)
