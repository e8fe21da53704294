"""The two closed-form gain schemes and the rate bounds around them.

full_power_gains maximizes each relay independently.  matched_gains treats
one weak layer as a matched combiner: its nodes are scaled so every
contribution reaches the destination with a common positive weight.  The
achieved rate of the matched scheme is sandwiched between the closed-form
lower and upper bounds.
"""

from anclab import (
    NodeId,
    RegimeSpec,
    bounds_report,
    downstream_gains,
    full_power_gains,
    ideal_snr,
    mac_cutset,
    matched_gains,
    regime_delta,
)
from anclab.presets import asymmetric_three_layer

net = asymmetric_three_layer(source_power=1000.0)
spec = RegimeSpec(exceptional_layer=2)
print(f"regime margin delta = {regime_delta(net, spec):.4g}")

matched, c1 = matched_gains(net, spec)
full = full_power_gains(net)
print(f"matched-combiner constant c1 = {c1:.4f}")
l = spec.exceptional_layer
# end-to-end weight of each node: its gain times its compound downstream gain
gammas = matched.layers[l - 1] * downstream_gains(net, matched, l)
for i, gamma in enumerate(gammas):
    beta = matched.layers[l - 1][i]
    print(f"  {NodeId(l, i)}: beta={beta:+.4f}  end-to-end weight gamma={gamma:.4f}")

report = bounds_report(net, spec, matched, c1, scheme="generalized")
full_report = bounds_report(net, spec, full, c1, scheme="full_power")
print("\nrates in bits per channel use:")
print(f"  lower bound       {report.lower_bound:.4f}")
print(f"  matched scheme    {report.achieved_rate:.4f}")
print(f"  upper bound       {report.upper_bound:.4f}")
print(f"  full-power scheme {full_report.achieved_rate:.4f}")
print(f"  MAC cut bound     {mac_cutset(net):.4f}")

# the noiseless-except-one-layer idealization dominates the true SNR
print(
    f"\nideal (single noisy layer) SNR {ideal_snr(net, matched, 2):.3f}"
    f" >= true SNR {report.snr:.3f}"
)
