#!/usr/bin/env python3
"""Sweep the channel merge bound and print per-bit mean leakage estimates.

Tighter bounds force smaller channels and coarser estimates; growing the
bound lets more logic fold into each channel, so the mean estimate should
not increase along the sweep on the bundled pipelined calibration design.
"""

import argparse

from qflow import corpus
from qflow.channelizer import MAX_TABLE_INPUTS
from qflow.pipeline import Config, build, evaluate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--design", default="toy_spn.v")
    parser.add_argument("--top", default="toy_spn")
    parser.add_argument("--max-bound", type=int, default=5)
    args = parser.parse_args()
    if not 1 <= args.max_bound <= MAX_TABLE_INPUTS:
        parser.error(f"argument --max-bound: must be in [1, {MAX_TABLE_INPUTS}]")

    cfg = Config(files=[corpus.path(args.design)], top=args.top)
    try:
        design, forest = build(cfg)
    except OSError as e:
        parser.exit(1, f"{parser.prog}: error: {args.design}: {e.strerror}\n")
    if not design.high_bits():
        parser.exit(1, f"{parser.prog}: error: {args.top} in {args.design} has no secret bit\n")
    print("merge_bound,mean_leakage_bits,max_leakage_bits")
    for bound in range(1, args.max_bound + 1):
        cfg.max_channel_inputs = bound
        vals = list(evaluate(design, forest, cfg).totals.values())
        print(f"{bound},{sum(vals) / len(vals):.6f},{max(vals):.6f}")


if __name__ == "__main__":
    main()
