"""Command-line interface: run scenarios, analyze traces, validate goldens.

Exit codes: 0 success, 1 usage or scenario error, 2 data error
(malformed trace, lifecycle violations, I/O).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import MininsError, ScenarioError
from .scenario import SEED_MAX, parse_integer, parse_scenario
from .sim import Simulation
from .units import NS_PER_SEC, format_time_short


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise ScenarioError(message)


def _bin_ns(text: str) -> int:
    """argparse type of --bin: seconds, finite and at least 1 ns, to whole ns (half to even)."""
    try:
        value = float(text)
        ns = value * NS_PER_SEC
        if not (math.isfinite(ns) and ns >= 1):
            raise ValueError(f"bin must be at least 1 ns and a finite number of ns, got {value}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return round(ns)


def _build_parser() -> _Parser:
    parser = _Parser(prog="minins", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="scenario file path")
    run_p.add_argument("--seed", default=None,
                       help="override the scenario seed (0 to 2**64 - 1, as seed=)")
    run_p.add_argument("--trace", default=None, help="override the trace output path")

    an_p = sub.add_parser("analyze", help="compute statistics from a trace file")
    an_p.add_argument("trace", help="trace file path")
    an_p.add_argument("--fid", default=None, help="flow id to report on (0 to 2**63 - 1, as fid=)")
    an_p.add_argument("--src", default=None, help="flow source node id (as --fid)")
    an_p.add_argument("--sink", default=None, help="flow sink node id (as --fid)")
    an_p.add_argument("--bin", type=_bin_ns, default=None, metavar="SECONDS",
                      help="also print a throughput time series")
    an_p.add_argument("--check", action="store_true",
                      help="verify packet lifecycle conservation")

    val_p = sub.add_parser("validate", help="rerun golden scenarios against fixtures")
    val_p.add_argument("--dir", default=None, help="scenario directory (default: bundled)")
    return parser


def _cmd_run(args) -> int:
    seed = None if args.seed is None else parse_integer("--seed", args.seed, SEED_MAX)
    if args.trace == "":
        raise ScenarioError("--trace needs a file path")
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    spec = parse_scenario(text)
    if seed is not None:
        spec = spec._replace(seed=seed)
    if args.trace is not None:
        spec = spec._replace(trace_path=args.trace)
    result = Simulation(spec).run()
    sys.stdout.write(result.stats_block())
    return 0


def _cmd_analyze(args) -> int:
    # Imported here: run and validate never load the analyzer.
    from .analyze import analyze_trace, throughput_bps

    wants_flow = args.fid is not None or args.src is not None or args.sink is not None
    if wants_flow and None in (args.fid, args.src, args.sink):
        raise ScenarioError("flow statistics need --fid, --src and --sink together")
    if args.bin is not None and not wants_flow:
        raise ScenarioError("--bin needs --fid, --src and --sink")
    if not wants_flow and not args.check:
        raise ScenarioError("nothing to do: pass --fid/--src/--sink and/or --check")

    flow = tuple(parse_integer(flag, text) for flag, text in (
        ("--fid", args.fid), ("--src", args.src), ("--sink", args.sink))) if wants_flow else None
    # Undecodable bytes reach parse_line as surrogates, which it rejects by
    # line; LF is the only line end, so a CR stays in its line and is rejected.
    with open(args.trace, encoding="ascii", errors="surrogateescape", newline="\n") as f:
        report = analyze_trace(f, args.bin)
    status = 0
    if wants_flow:
        stats = report.flow(flow)
        try:
            series = [] if args.bin is None else throughput_bps(stats.bins, args.bin)
        except ValueError as exc:  # too many throughput bins for this --bin
            raise ScenarioError(f"--bin: {exc}") from None
        print(f"sent={stats.sent}")
        print(f"received={stats.received}")
        print(f"dropped={stats.dropped}")
        print(f"bytes_received={stats.bytes_received}")
        if stats.mean_delay is not None:
            print(f"mean_delay_s={stats.mean_delay!r}")
            print(f"max_delay_s={stats.max_delay!r}")
        for k, bps in enumerate(series):  # every bin from 0: printed exactly
            print(f"throughput_{format_time_short(k * args.bin)}s_bps={bps!r}")
    if args.check:
        print(f"violations={len(report.violations)}")
        for violation in report.violations:
            print(violation, file=sys.stderr)
        if report.violations:
            status = 2
    return status


def _cmd_validate(args) -> int:
    # Imported here: run and analyze need none of golden's hashing and JSON.
    from .golden import run_validate

    return 0 if run_validate(args.dir) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_validate(args)
    except MininsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
