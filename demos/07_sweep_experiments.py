"""The three trend experiments, emitted as CSV.

Equivalent to the sweep-ps / sweep-n / sweep-delta subcommands; running this
script writes the same tables under demos/output/, and
tests/test_demos.py checks that they still regenerate byte for byte.
  * source-power sweep: the matched rate approaches the upper bound while
    the full-power rate keeps a near-constant gap;
  * relay-count sweep: with per-relay budget 2 the gap to the bound shrinks
    as the bottleneck layer widens;
  * margin sweep: bound gap vanishes as every strong layer's received power
    grows with the bottleneck powers pinned.
"""

from pathlib import Path

from anclab.cli import main as cli_main

HERE = Path(__file__).resolve().parent
OUT = HERE / "output"
CONFIGS = HERE.parent / "configs"

# (label, output file name, CLI arguments without --out)
JOBS = [
    (
        "source-power sweep",
        "sweep_source_power.csv",
        [
            "sweep-ps", "--network", str(CONFIGS / "three_layer.json"), "--layer", "2",
            "--grid", "1,3.16,10,31.6,100,316,1000,3162,10000,31623,100000",
        ],
    ),
    (
        "relay-count sweep",
        "sweep_relay_count.csv",
        [
            "sweep-n", "--network", str(CONFIGS / "wide_bottleneck_base.json"),
            "--grid", ",".join(str(n) for n in range(2, 51)), "--relay-budget", "2",
        ],
    ),
    (
        "margin sweep",
        "sweep_margin.csv",
        [
            "sweep-delta", "--network", str(CONFIGS / "three_layer.json"), "--layer", "2",
            "--grid", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
        ],
    ),
]

def main() -> None:
    OUT.mkdir(exist_ok=True)
    for label, name, args in JOBS:
        path = OUT / name
        code = cli_main(args + ["--out", str(path)])
        assert code == 0, f"{label} failed"
        lines = path.read_text().splitlines()
        print(f"{label}: wrote {path.name} ({len(lines) - 1} rows)")
        print("  " + lines[0])
        print("  " + lines[1])
        print("  " + lines[-1])


if __name__ == "__main__":
    main()
