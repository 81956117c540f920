"""Command-line front end.

Commands: ``bound`` (architecture arithmetic), ``build`` (generate a network
attaining the bound), ``analyze`` (exact knot report for a network file, with
optional CSV spline export), ``verify`` (sampling oracle against exact
extraction, optional random stress search), ``canonicalize`` (forward-facing
form of a one-hidden-layer network, compared exactly with its extraction).

Every report but ``build``'s is one payload, printed by ``_render``: as
JSON, or as one ``key: value`` line per key.

Exit codes: 0 success, 1 internal failure, 2 input error, 3 unattainable
architecture, 4 mismatch, 5 wrong depth; README's exit-code table lists
the cases of each.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import re
import sys
from pathlib import Path

from .bounds import (
    Architecture,
    approx_bound,
    bound_prefixes,
    knot_bound,
    param_count,
    tightness_eligibility,
)
from .canonical import to_forward_facing
from .construct import build_tight_network
from .jsonio import SchemaError, load_network, network_to_dict, save_network
from .network import KNOT_LIMIT, ExtractionTrace, extract
from .rational import decimal_str, digit_limit_error, format_ratio, format_rational, parse_rational
from .verify import SamplingConfig, oracle_agreement, stress_bound

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_INELIGIBLE = 3
EXIT_MISMATCH = 4
EXIT_DEPTH = 5


CSV_COLUMNS = [
    "output_index",
    "x_rational",
    "x_decimal",
    "value_rational",
    "value_decimal",
    "left_slope_rational",
    "right_slope_rational",
]


def write_spline_csv(trace: ExtractionTrace, path: str | Path) -> None:
    """CSV with one row per knot and two ray rows (x = -inf / +inf) per output.

    Ray rows carry the ray's slope in both slope columns and the ray line's
    value at x = 0 in the value columns, so the CSV alone reconstructs the
    function everywhere.

    The trace's outputs and final grid are walked in their ints: every
    piece is (S*x + c)/D with int S and c over the trace's denominator D.
    At a knot p/q (reduced, q > 0) the value is (S*p + c*q)/(q*D), and past
    it, with jump d/D, the intercept is c - d*p/q, an exact division.

    Each row is written as one line as soon as it is made, ending in
    ``\\r\\n`` as RFC 4180 (and ``csv.writer``) has it. No cell is quoted:
    every cell is an int, a ``format_ratio`` string, a ``decimal_str``
    string or an infinity, and none holds a comma, a quote or a line break.
    A write that fails removes the file only if this call created it: a
    path that already named something (a file, a device, a pipe) stays.
    """
    (nums, dens), den = trace.grids[-1], trace.denominator
    try:
        handle, created = open(path, "x", newline=""), True
    except FileExistsError:
        handle, created = open(path, "w", newline=""), False
    try:
        with handle:
            write = handle.write
            write(",".join(CSV_COLUMNS) + "\r\n")
            for k, (slope, c, knots, jumps) in enumerate(trace.outputs):
                right = format_ratio(slope, den)
                write(f"{k},-inf,-inf,{format_ratio(c, den)},{decimal_str(c, den)},{right},{right}\r\n")
                for i, d in zip(knots, jumps):
                    p, q = nums[i], dens[i]
                    value, value_den = slope * p + c * q, q * den
                    left, slope, c = right, slope + d, c - d * p // q
                    right = format_ratio(slope, den)
                    write(
                        f"{k},{format_ratio(p, q)},{decimal_str(p, q)},"
                        f"{format_ratio(value, value_den)},{decimal_str(value, value_den)},"
                        f"{left},{right}\r\n"
                    )
                write(f"{k},+inf,inf,{format_ratio(c, den)},{decimal_str(c, den)},{right},{right}\r\n")
    except BaseException:
        if created:  # only the regular file this call made, never a device or pipe
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _on_file(path: str, action, *args):
    """``action(*args, path)``; a file that cannot be read or written, or a
    network document that breaks the schema, is an input error naming it."""
    try:
        return action(*args, path)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from exc
    except SchemaError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _output_directory(path: str) -> None:
    """Raise the ``OSError`` that writing ``path`` would meet when it is
    empty, when its directory is missing or is not a directory, or when it
    is a directory, without touching the file: stat of "<directory>/."
    fails as the open would."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    os.stat(os.path.join(os.path.dirname(path), "."))
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _render(payload: dict, as_json: bool) -> str:
    """``payload`` as text: with ``--json`` the indented JSON object, else
    one ``key: value`` line per key, a string bare and any other value as
    JSON writes it. An int past Python's digit limit is refused whole, so
    nothing of the report is printed."""
    try:
        if as_json:
            return json.dumps(payload, indent=2)
        return "\n".join(
            f"{key}: {value if isinstance(value, str) else json.dumps(value)}"
            for key, value in payload.items()
        )
    except ValueError:  # past Python's limit for printing an int
        raise digit_limit_error() from None


def cmd_bound(args: argparse.Namespace) -> int:
    arch = Architecture(args.widths, output_dim=args.p)
    report = {
        "widths": list(arch.widths),
        "p": arch.output_dim,
        "bound": knot_bound(arch),
        "per_layer_bounds": bound_prefixes(arch),
        "approx_bound": approx_bound(arch),
        "param_count": param_count(arch),
        "tightness": "tight" if tightness_eligibility(arch) is None else "not_tight",
    }
    print(_render(report, args.json))
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    arch = Architecture(args.widths, output_dim=args.p)
    reason = tightness_eligibility(arch)
    if reason is not None:
        raise _CliError(
            f"cannot attain the bound for widths {list(arch.widths)}: {reason}",
            EXIT_INELIGIBLE,
        )
    bound = knot_bound(arch)
    if bound > KNOT_LIMIT:
        raise ValueError(
            f"widths {list(arch.widths)} ask for {bound} knots, "
            f"above build's limit of {KNOT_LIMIT}"
        )
    if arch.output_dim * bound > 2 * KNOT_LIMIT:
        raise ValueError(
            f"{arch.output_dim} outputs at bound {bound} ask for "
            f"{arch.output_dim * bound} knots, above build's limit of "
            f"{2 * KNOT_LIMIT} over all outputs"
        )
    if args.out is not None:
        _on_file(args.out, _output_directory)
    net = build_tight_network(arch)  # raises unless the outputs reach the bound
    if args.out is not None:
        _on_file(args.out, save_network, net)
        print(f"wrote {args.out}")
        print(f"knots: {bound} (bound {bound})")
    else:
        print(f"knots: {bound} (bound {bound})", file=sys.stderr)
        print(json.dumps(network_to_dict(net), indent=2))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    net = _on_file(args.network, load_network)
    if args.csv is not None:
        _on_file(args.csv, _output_directory)
    trace = extract(net)
    grids, output_knots = trace.grids, trace.output_knot_indices
    arch = net.architecture
    bound = knot_bound(arch)
    payload = {
        "widths": list(net.widths),
        "p": net.output_dim,
        "per_layer_knot_counts": [len(nums) for nums, _ in grids],
        "output_knot_count": len(output_knots),
        "bound": bound,
        "meets_bound": len(output_knots) == bound,
        "tightness": "tight" if tightness_eligibility(arch) is None else "not_tight",
    }
    if args.layers:
        payload["per_layer_knots"] = [list(map(format_ratio, *grid)) for grid in grids]
        nums, dens = grids[-1]
        payload["output_knots"] = [format_ratio(nums[k], dens[k]) for k in output_knots]
    text = _render(payload, args.json)  # before the CSV: a refused report writes none
    if args.csv is not None:
        _on_file(args.csv, write_spline_csv, trace)
    print(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    net = _on_file(args.network, load_network)
    interval = (-1, net.widths[0])
    if args.interval:
        interval = tuple(parse_rational(s) for s in args.interval)
    cfg = SamplingConfig(interval, samples=args.samples)
    # before the oracle, which takes most of the run, so bad trials fail fast
    stress = stress_bound(net.architecture, args.trials, args.seed) if args.trials else None
    low, high = cfg.interval
    agreement = oracle_agreement(net, cfg)
    payload: dict = {
        "interval": [format_rational(low), format_rational(high)],
        "samples": cfg.samples,
        "detected": len(agreement.detected),
        "exact": len(agreement.exact_points),
        "exact_outside_interval": agreement.exact_outside_interval,
        "grid_step": cfg.grid_step,
        "max_location_error": agreement.max_location_error,
        "agree": agreement.agree,
        "crowded": agreement.crowded,
    }
    if stress is not None:
        payload["stress"] = dataclasses.asdict(stress)
    print(_render(payload, args.json))
    if not payload["agree"]:
        raise _CliError(agreement.mismatch(), EXIT_MISMATCH)
    return EXIT_OK


def cmd_canonicalize(args: argparse.Namespace) -> int:
    net = _on_file(args.network, load_network)
    if net.depth != 1:
        raise _CliError(
            f"canonicalize needs exactly one hidden layer, network has {net.depth}",
            EXIT_DEPTH,
        )
    form = to_forward_facing(net)
    trace = extract(net)
    # A continuous piecewise-linear function is fixed by its leftmost line
    # and its nonzero slope jumps. The network's come from the trace, over
    # its denominator D. The form's are (c1, c0) and the sums of its tied
    # ramps (equal knots have equal K*x_j) that are not 0, over S. Both
    # sides' knots ascend; each pair of ratios is compared cross-multiplied.
    (nums, dens), den = trace.grids[-1], trace.denominator
    knot_lcd, lcd = form.knot_lcd, form.lcd
    matched = len(form.scaled_rows) == len(trace.outputs)
    for row, (slope, c, knots, jumps) in zip(form.scaled_rows, trace.outputs):
        sums: dict[int, int] = {}
        for x, s in zip(form.scaled_knots, row):
            sums[x] = sums.get(x, 0) + s
        ramps = [(x, s) for x, s in sums.items() if s]
        matched = matched and (
            (slope * lcd, c * lcd) == (row[-2] * den, row[-1] * den)
            and len(ramps) == len(knots)
            and all(
                x * dens[i] == nums[i] * knot_lcd and s * den == d * lcd
                for (x, s), i, d in zip(ramps, knots, jumps)
            )
        )
    payload = {
        "knot_locations": [format_ratio(x, knot_lcd) for x in form.scaled_knots],
        "ray_slopes": [[format_ratio(s, lcd) for s in row[:-2]] for row in form.scaled_rows],
        "line_slope": [format_ratio(row[-2], lcd) for row in form.scaled_rows],
        "line_intercept": [format_ratio(row[-1], lcd) for row in form.scaled_rows],
        "folded_units": list(form.folded_units),
        "equivalence_check": {"matched": matched},
    }
    print(_render(payload, True))
    if not matched:
        raise _CliError("canonical form disagrees with the network", EXIT_MISMATCH)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relu-knots",
        description="Exact knot counting and bound certification for scalar-input ReLU networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute the knot bound for an architecture")
    p_bound.add_argument("widths", nargs="+", type=int, help="hidden layer widths")
    p_bound.add_argument("--p", type=int, default=1, help="output dimension (default 1)")
    p_bound.add_argument("--json", action="store_true")
    p_bound.set_defaults(handler=cmd_bound)

    p_build = sub.add_parser("build", help="generate a network attaining the bound")
    p_build.add_argument("widths", nargs="+", type=int)
    p_build.add_argument("--p", type=int, default=1)
    p_build.add_argument("--out", help="write network JSON here (default: stdout)")
    p_build.set_defaults(handler=cmd_build)

    p_analyze = sub.add_parser("analyze", help="exact knot report for a network file")
    p_analyze.add_argument("network", help="network JSON file")
    p_analyze.add_argument("--layers", action="store_true", help="include knot locations")
    p_analyze.add_argument("--csv", help="write per-output spline records here")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(handler=cmd_analyze)

    p_verify = sub.add_parser("verify", help="sampling oracle against exact extraction")
    # argparse takes only "-1" and "-.5" for negative numbers, "-1/2" for an option
    p_verify._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    p_verify.add_argument("network", help="network JSON file")
    p_verify.add_argument("--samples", type=int, default=100_001)
    p_verify.add_argument(
        "--interval",
        nargs=2,
        metavar=("LOW", "HIGH"),
        help="sampling interval as rationals (default: -1 to first-layer width)",
    )
    p_verify.add_argument("--trials", type=int, default=0, help="also stress-search this many random networks")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(handler=cmd_verify)

    p_canon = sub.add_parser(
        "canonicalize", help="forward-facing form of a one-hidden-layer network"
    )
    p_canon.add_argument("network", help="network JSON file")
    p_canon.set_defaults(handler=cmd_canonicalize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
