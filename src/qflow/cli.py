"""Command-line entry point: analyze, calibrate, oracle-diff."""

from __future__ import annotations

import argparse
import sys
import traceback

from .bitgraph import dump_forest
from .channelizer import DEFAULT_MAX_CHANNEL_INPUTS, dump_channels
from .errors import QFlowError
from .oracle import differential_run
from .pipeline import Config, analyze, build, evaluate, render_report
from .report import DEFAULT_DETECT, DEFAULT_WARN, Thresholds, calibrate_thresholds

ERROR_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(ERROR_EXIT)


def _add_analysis_args(sub):
    sub.add_argument("files", nargs="+", metavar="FILE", help="Verilog sources")
    sub.add_argument("--top", required=True, help="top module name")
    sub.add_argument("--high", default="",
                     help="comma-separated input nets to mark High")
    sub.add_argument("--probs", default=None,
                     help="input probability file (net[bit] = p)")
    sub.add_argument("--p-high", type=float, default=None,
                     help="single probability for all secret bits")
    sub.add_argument("--max-channel-inputs", type=int, default=DEFAULT_MAX_CHANNEL_INPUTS)
    sub.add_argument("--no-cap", action="store_true",
                     help="disable the per-bit min-entropy cap on totals")
    sub.add_argument("--dump-trees", action="store_true",
                     help="print bind trees to stderr")
    sub.add_argument("--dump-channels", action="store_true",
                     help="print merged channels to stderr")


def build_parser():
    parser = _Parser(prog="qflow",
                     description="Quantitative information-flow analysis of "
                                 "Verilog designs with marked secret inputs.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_an = subs.add_parser("analyze", help="classify secret-bit leakage")
    _add_analysis_args(p_an)
    p_an.add_argument("--warn", type=float, default=DEFAULT_WARN)
    p_an.add_argument("--detect", type=float, default=DEFAULT_DETECT)
    p_an.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_cal = subs.add_parser("calibrate",
                            help="derive warn/detect thresholds from a "
                                 "fully-diffusing reference design")
    _add_analysis_args(p_cal)
    p_cal.add_argument("--sweep", action="store_true",
                       help="table of min/mean leakage for merge bounds 1..5")

    p_diff = subs.add_parser("oracle-diff",
                             help="seeded random-circuit comparison against "
                                  "the exact exhaustive oracle")
    p_diff.add_argument("--seed", type=int, default=42)
    p_diff.add_argument("--count", type=int, default=200)
    p_diff.add_argument("--max-bits", type=int, default=12)
    return parser


def _config_from(args, thresholds=None) -> Config:
    return Config(
        files=args.files,
        top=args.top,
        high_overrides=tuple(n for n in args.high.split(",") if n),
        prob_file=args.probs,
        p_high=args.p_high,
        max_channel_inputs=args.max_channel_inputs,
        thresholds=thresholds or Thresholds(),
        cap=not args.no_cap,
    )


def _maybe_dump(args, analysis):
    if args.dump_trees:
        sys.stderr.write(dump_forest(analysis.forest))
    if args.dump_channels:
        sys.stderr.write(dump_channels(analysis.graph))


def cmd_analyze(args) -> int:
    config = _config_from(args, Thresholds(args.warn, args.detect))
    analysis = analyze(config)
    _maybe_dump(args, analysis)
    sys.stdout.buffer.write(render_report(analysis, args.format))
    sys.stdout.flush()
    return analysis.report.exit_code()


def cmd_calibrate(args) -> int:
    config = _config_from(args)
    design, forest = build(config)
    rows = []
    for bound in range(1, 6) if args.sweep else (args.max_channel_inputs,):
        config.max_channel_inputs = bound
        analysis = evaluate(design, forest, config)
        rows.append((bound, calibrate_thresholds(analysis.totals)))
    _maybe_dump(args, analysis)
    if args.sweep:
        print(f"{'max_channel_inputs':>18}  {'min (warn)':>14}  {'mean (detect)':>14}")
        for bound, t in rows:
            print(f"{bound:>18}  {t.warn:>14.9f}  {t.detect:>14.9f}")
    else:
        t = rows[-1][1]
        print(f"warn={t.warn!r}")
        print(f"detect={t.detect!r}")
    return 0


def cmd_oracle_diff(args) -> int:
    records = differential_run(args.seed, args.count, args.max_bits)
    violations = 0
    for r in records:
        status = "dominated" if r.dominated else "VIOLATION"
        print(f"circuit {r.index:4d}: exact={r.exact_bits:.6f} "
              f"qmodel={r.qmodel_bits:.6f} {status}")
        if not r.dominated:
            violations += 1
    print(f"{len(records)} circuits, {violations} violations "
          f"(seed={args.seed}, max_bits={args.max_bits})")
    return 0 if violations == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle-diff":
        if args.count < 1:  # a run that checks no circuit proves nothing
            parser.error("argument --count: must be at least 1")
        if args.max_bits < 2:
            # a random circuit has at least one secret bit and one more input
            parser.error("argument --max-bits: must be at least 2")
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "calibrate":
            return cmd_calibrate(args)
        return cmd_oracle_diff(args)
    except (QFlowError, ValueError, OSError) as e:
        print(f"qflow: error: {e}", file=sys.stderr)
        return ERROR_EXIT
    except Exception:  # a crash is an error, never the warnings exit code 1
        traceback.print_exc()
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
