"""Regenerate the shipped network configs from their builders.

Run `python demos/regenerate_configs.py` to rewrite configs/*.json.
Importing the module writes nothing; BUILDERS pairs each file name with the
builder that produces it.
"""

from pathlib import Path

from anclab import save_network
from anclab.presets import (
    asymmetric_three_layer,
    chain_network,
    diamond_network,
    wide_bottleneck_network,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BUILDERS = [
    ("chain.json", lambda: chain_network(hops=2)),
    ("diamond.json", diamond_network),
    ("three_layer.json", asymmetric_three_layer),
    ("wide_bottleneck_base.json", lambda: wide_bottleneck_network(1)),
]

if __name__ == "__main__":
    CONFIGS.mkdir(exist_ok=True)
    for name, build in BUILDERS:
        save_network(build(), str(CONFIGS / name))
        print("wrote", CONFIGS / name)
