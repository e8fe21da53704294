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
    anc_rate,
    bounds_report,
    destination_snr,
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

matched, params = matched_gains(net, spec)
full = full_power_gains(net)
print(f"matched-combiner constant c1 = {params.c1:.4f}")
l = spec.exceptional_layer
for i, gamma in enumerate(params.gamma):
    beta = matched.layers[l - 1][i]
    print(f"  {NodeId(l, i)}: beta={beta:+.4f}  end-to-end weight gamma={gamma:.4f}")

report = bounds_report(net, spec, matched, params, scheme="generalized")
print("\nrates in bits per channel use:")
print(f"  lower bound       {report.lower_bound:.4f}")
print(f"  matched scheme    {report.achieved_rate:.4f}")
print(f"  upper bound       {report.upper_bound:.4f}")
print(f"  full-power scheme {anc_rate(destination_snr(net, full)):.4f}")
print(f"  MAC cut bound     {mac_cutset(net):.4f}")

# the noiseless-except-one-layer idealization dominates the true SNR
print(
    f"\nideal (single noisy layer) SNR {ideal_snr(net, matched, 2):.3f}"
    f" >= true SNR {destination_snr(net, matched):.3f}"
)
