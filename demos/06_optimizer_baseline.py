"""How close are the closed-form schemes to the best box-feasible gains?

The coordinate-ascent baseline starts from both schemes plus random points,
so it never reports less than either.  In a deep high-margin regime the
matched scheme is confirmed nearly optimal.
"""

from anclab import (
    OptimizerConfig,
    RegimeSpec,
    anc_rate,
    destination_snr,
    full_power_gains,
    matched_gains,
    optimize_gains,
    rate_upper_bound,
)
from anclab.presets import asymmetric_three_layer, rescale_to_delta

spec = RegimeSpec(exceptional_layer=2)

for label, net in [
    ("moderate margin", asymmetric_three_layer(source_power=100.0)),
    ("deep high-SNR", rescale_to_delta(asymmetric_three_layer(), 2, 1e-4)),
]:
    matched, _ = matched_gains(net, spec)
    best, snr = optimize_gains(net, OptimizerConfig(restarts=4, seed=0))
    rates = {
        "full power": anc_rate(destination_snr(net, full_power_gains(net))),
        "matched": anc_rate(destination_snr(net, matched)),
        "optimizer": anc_rate(snr),
        "upper bound": rate_upper_bound(net, spec),
    }
    print(f"{label}:")
    for name, rate in rates.items():
        print(f"  {name:>12}: {rate:.4f} bits")
    print(f"  optimizer beats matched by {rates['optimizer'] - rates['matched']:.4f} bits")
