"""Command-line front end: grid scans, validation suites, figure manifests."""

from __future__ import annotations

import argparse
import sys

from .beamsplitter import SplitterParams
from .errors import ConfigError, NcqoError
from .figrun import FIGURE_NAMES, run_figure
from .scan import GridSpec, Quantity, ScanSpec, emit, run_scan
from .states import StateFamily
from .validate import run_validation


def _number(convert, text: str, option: str):
    """convert(text), with a ValueError reported as a ConfigError naming the option."""
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{option}: expected {convert.__name__}, got {text!r}") from None


def _parse_range(text: str, option: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be min:max:steps, got {text!r}")
    return (
        _number(float, parts[0], option),
        _number(float, parts[1], option),
        _number(int, parts[2], option),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ncqo")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="evaluate a diagnostic on an (alpha, tau) grid")
    scan.add_argument("--quantity", required=True, choices=[q.value for q in Quantity])
    scan.add_argument("--kind", required=True, choices=[f.value for f in StateFamily])
    scan.add_argument("--re", required=True, help="min:max:steps for Re(alpha)")
    scan.add_argument("--im", required=True, help="min:max:steps for Im(alpha)")
    scan.add_argument("--tau", required=True, help="comma-separated tau list")
    scan.add_argument("--theta", default="1.5707963267948966")
    scan.add_argument("--phi", default="0.0")
    scan.add_argument("--cutoff", default="auto", help="basis cutoff or 'auto'")
    scan.add_argument("--fock-n", default="0", help="photon index for photon_dist")
    scan.add_argument("--exact", action="store_true", help="exact-factorial coefficient mode")
    scan.add_argument("--format", default="csv", choices=["csv", "json"])
    scan.add_argument("--out", required=True)

    val = sub.add_parser("validate", help="run the cross-check suite")
    val.add_argument("--level", default="fast", choices=["fast", "full"])

    fig = sub.add_parser("figure", help="run a figure-reproduction manifest")
    fig.add_argument("name", choices=list(FIGURE_NAMES))
    fig.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "scan":
            re_min, re_max, re_steps = _parse_range(args.re, "--re")
            im_min, im_max, im_steps = _parse_range(args.im, "--im")
            spec = ScanSpec(
                quantity=Quantity(args.quantity),
                family=StateFamily(args.kind),
                grid=GridSpec(re_min, re_max, re_steps, im_min, im_max, im_steps),
                tau_list=tuple(_number(float, t, "--tau") for t in args.tau.split(",")),
                splitter=SplitterParams(
                    _number(float, args.theta, "--theta"), _number(float, args.phi, "--phi")
                ),
                cutoff=None if args.cutoff == "auto" else _number(int, args.cutoff, "--cutoff"),
                fock_n=_number(int, args.fock_n, "--fock-n"),
                exact=args.exact,
            )
            emit(run_scan(spec), args.format, args.out)
            return 0
        if args.command == "validate":
            report = run_validation(args.level)
            for line in report.lines():
                print(line)
            return 0 if report.passed else 1
        if args.command == "figure":
            for path in run_figure(args.name, args.out):
                print(path)
            return 0
    except NcqoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
