#!/usr/bin/env python3
"""Sweep the secret-bit 1-probability and print total estimated leakage.

The curve is zero at p in {0, 1}, peaks at p = 0.5, and is symmetric
about 0.5 for designs whose channels treat the secret bits uniformly.
"""

import argparse

from qflow import corpus
from qflow.pipeline import Config, build, evaluate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--design", default="aes_t2100.v",
                        help="bundled corpus file (default: aes_t2100.v)")
    parser.add_argument("--top", default="TSC")
    parser.add_argument("--high", default="key")
    parser.add_argument("--steps", type=int, default=20)
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("argument --steps: must be at least 1")

    cfg = Config(files=[corpus.path(args.design)], top=args.top,
                 high_overrides=tuple(h for h in args.high.split(",") if h))
    try:
        design, forest = build(cfg)
    except OSError as e:
        parser.exit(1, f"{parser.prog}: error: {args.design}: {e.strerror}\n")
    print("p_high,total_leakage_bits")
    for i in range(args.steps + 1):
        cfg.p_high = p = i / args.steps
        result = evaluate(design, forest, cfg)
        print(f"{p:.3f},{sum(result.totals.values()):.6f}")


if __name__ == "__main__":
    main()
