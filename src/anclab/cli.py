"""Command-line front end.

Subcommands: bounds, simulate, optimize, sweep-ps, sweep-n, sweep-delta.
All tabular output is RFC-4180-style CSV with a header row, `.` decimals,
and LF line endings, written by anclab.report.  bounds and simulate take
--format csv|json; optimize always writes JSON and the three sweeps always
write CSV.  Options are never abbreviated.  Exit codes: 0 success, 1
validation or usage error, 2 a requested check failed.

--layer names the exceptional layer, a relay layer 1..L-1.  A network with
no weak relay layer is the case of Maric et al. [4]: --scheme full_power,
with the high_snr_lower_bound column as its bound.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .bounds import anc_rate, bounds_report, destination_snr, rate_lower_bound, rate_upper_bound
from .gains import gains_to_dict, load_gains
from .montecarlo import SimConfig, agreement_check, analytic_moments, simulate
from .network import (
    LayeredNetwork,
    NetworkValidationError,
    RegimeSpec,
    load_network,
    network_from_dict,
    network_to_dict,
)
from .optimize import OptimizerConfig, optimize_gains
from .power import check_feasible
from .presets import replicate_last_relay_layer, rescale_to_delta
from .report import csv_table, json_text
from .schemes import full_power_gains, matched_gains

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2

# A sweep-n row takes about 120 bytes per replicated relay, 120 MB at 10**6; far
# larger counts exhaust memory or overflow numpy, so they are refused up front.
MAX_RELAY_COUNT = 10**6


class CliError(Exception):
    """Validation or usage failure; maps to exit code 1."""


def _write(text: str, out: str) -> None:
    if out == "stdout" or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from exc


def _load_net(path: str) -> LayeredNetwork:
    try:
        return load_network(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"cannot load network {path}: {exc}") from exc


def _scheme_gains(net: LayeredNetwork, scheme: str, layer: int | None):
    """Gain assignment plus matched-scheme params for the requested scheme."""
    if layer is None:
        raise CliError("--layer is required for scheme-based commands")
    spec = RegimeSpec(exceptional_layer=layer)
    matched, params = matched_gains(net, spec)
    return (full_power_gains(net) if scheme == "full_power" else matched), params, spec


def _grid(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise CliError(f"bad grid {text!r}: {exc}") from exc
    for v in values:
        if not math.isfinite(v):
            raise CliError(f"grid entry {v} is not finite")
    if not values:
        raise CliError("grid is empty")
    diffs = np.diff(values)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise CliError("grid must be strictly monotone")
    return values


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    net = _load_net(args.network)
    gains, params, spec = _scheme_gains(net, args.scheme, args.layer)
    if args.scheme == "optimizer":
        gains, snr = optimize_gains(net, config)
    payload = bounds_report(net, spec, gains, params, scheme=args.scheme).to_dict()
    if args.scheme == "optimizer":
        payload["optimizer_rate"] = anc_rate(snr)
    if args.format == "json":
        _write(json_text(payload) + "\n", args.out)
    else:
        _write(csv_table(payload, [payload.values()]), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    net = _load_net(args.network)
    if args.scheme is not None:
        gains, _, _ = _scheme_gains(net, args.scheme, args.layer)
    elif args.layer is not None:
        raise CliError("--layer applies to --scheme, not to --gains")
    else:
        try:
            gains = load_gains(net, args.gains)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CliError(f"cannot load gains {args.gains}: {exc}") from exc
    config = SimConfig(samples=args.samples, seed=args.seed, workers=args.workers)
    report = simulate(net, gains, config)
    agreement = agreement_check(report, analytic_moments(net, gains), z_threshold=args.z)
    feasibility = check_feasible(net, gains)
    if not feasibility.exact_ok:
        bad = [str(e.node) for e in feasibility.entries if not e.exact_ok]
        print(
            f"warning: exact power constraint violated at {', '.join(bad)}",
            file=sys.stderr,
        )
    if args.format == "json":
        payload = {
            "simulation": report.to_dict(),
            "agreement": agreement.to_dict(),
            "feasibility": feasibility.to_dict(),
        }
        _write(json_text(payload) + "\n", args.out)
    else:
        _write(agreement.to_csv(), args.out)
    return EXIT_OK if agreement.ok else EXIT_CHECK_FAILED


def cmd_optimize(args) -> int:
    net = _load_net(args.network)
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    gains, snr = optimize_gains(net, config)
    payload = gains_to_dict(net, gains)
    payload["snr"] = snr
    payload["rate"] = anc_rate(snr)
    _write(json_text(payload) + "\n", args.out)
    return EXIT_OK


def _sweep(args, header: str, row) -> int:
    """One CSV row per grid value, row(base network, value) -> list."""
    base = _load_net(args.network)
    rows = [row(base, value) for value in _grid(args.grid)]
    _write(csv_table(header.split(","), rows), args.out)
    return EXIT_OK


def cmd_sweep_ps(args) -> int:
    spec = RegimeSpec(exceptional_layer=args.layer)

    def row(base, p_s):
        if p_s <= 0:
            raise CliError("source powers must be positive")
        net = network_from_dict({**network_to_dict(base), "source_power": p_s})
        matched, params = matched_gains(net, spec)
        rate_matched = anc_rate(destination_snr(net, matched))
        rate_full = anc_rate(destination_snr(net, full_power_gains(net)))
        upper = rate_upper_bound(net, spec)
        lower = rate_lower_bound(net, spec, params)
        return [p_s, rate_matched, rate_full, upper, lower, upper - rate_matched, upper - rate_full]

    header = "source_power,rate_matched,rate_full_power,upper_bound,lower_bound,gap_matched"
    return _sweep(args, header + ",gap_full_power", row)


def cmd_sweep_n(args) -> int:
    def row(base, n_float):
        n = int(n_float)
        if n != n_float or n < 1:
            raise CliError(f"relay counts must be positive integers, got {n_float}")
        if n > MAX_RELAY_COUNT:
            raise CliError(f"relay counts must be at most {MAX_RELAY_COUNT}, got {n_float:g}")
        net = replicate_last_relay_layer(base, n, args.relay_budget)
        spec = RegimeSpec(exceptional_layer=net.num_layers - 1)
        matched, _ = matched_gains(net, spec)
        rate = anc_rate(destination_snr(net, matched))
        upper = rate_upper_bound(net, spec)
        return [n, rate, upper, upper - rate]

    return _sweep(args, "n,rate,upper_bound,gap", row)


def cmd_sweep_delta(args) -> int:
    spec = RegimeSpec(exceptional_layer=args.layer)

    def row(base, delta):
        if delta <= 0:
            raise CliError("margins must be positive")
        net = rescale_to_delta(base, args.layer, delta)
        _, params = matched_gains(net, spec)
        upper = rate_upper_bound(net, spec)
        lower = rate_lower_bound(net, spec, params)
        return [delta, upper, lower, upper - lower]

    return _sweep(args, "delta,upper_bound,lower_bound,gap", row)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # Subparsers are built with this class too.  An abbreviation such as
    # --gri would slip past _attach_grid, so none is accepted.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with code 2 on usage errors; the contract reserves 2 for
    # failed checks, so remap usage problems to the validation code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="stdout", help="output file, or stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anclab",
        description="Gain schemes, rate bounds, and simulation for layered relay networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="achieved rate and closed-form bounds")
    p.add_argument("--network", required=True)
    p.add_argument("--layer", type=int, required=True, help="exceptional layer (1..L-1)")
    p.add_argument(
        "--scheme", choices=["generalized", "full_power", "optimizer"], default="generalized"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=6)
    _add_common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="sample-level simulation with agreement check")
    p.add_argument("--network", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--gains", help="gain-assignment JSON file")
    source.add_argument("--scheme", choices=["generalized", "full_power"])
    p.add_argument("--layer", type=int, default=None)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--z", type=float, default=4.0, help="agreement threshold in stderr units")
    _add_common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="coordinate-ascent SNR maximization")
    p.add_argument("--network", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep-ps", help="source-power sweep on a fixed network")
    p.add_argument("--network", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--grid", required=True, help="comma-separated source powers")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_ps)

    p = sub.add_parser("sweep-n", help="bottleneck relay-count sweep")
    p.add_argument("--network", required=True, help="base network; last relay layer replicated")
    p.add_argument("--grid", required=True, help="comma-separated relay counts")
    p.add_argument("--relay-budget", type=float, default=2.0)
    _add_common(p)
    p.set_defaults(func=cmd_sweep_n)

    p = sub.add_parser("sweep-delta", help="regime-margin sweep with fixed bottleneck powers")
    p.add_argument("--network", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--grid", required=True, help="comma-separated margins")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_delta)

    return parser


def _attach_grid(argv: list[str]) -> list[str]:
    """Join --grid with its value, so a grid like -1,2 is not read as an option."""
    out = list(argv)
    for i in range(len(out) - 1, 0, -1):
        if out[i - 1] == "--grid" and not out[i].startswith("--"):
            out[i - 1 : i + 1] = [f"--grid={out[i]}"]
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_grid(argv))
    try:
        return args.func(args)
    except (CliError, NetworkValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
