#!/usr/bin/env python3
"""Run the seeded differential harness across several seeds.

For each random circuit the analyzer's design-total estimate (cap off)
is compared against the exact joint leakage; any circuit where the
estimate falls below the exact value is reported as a violation.
"""

import argparse

from qflow.oracle import differential_run


def seed_list(text):
    """The seeds of a comma-separated list, every item an integer."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    # parsed whole before any seed runs, so a bad item is a usage error
    parser.add_argument("--seeds", type=seed_list, default="42,0,1,7,123,999")
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args()
    if args.count < 1:  # a run that checks no circuit proves nothing
        parser.error("argument --count: must be at least 1")

    grand_total = grand_bad = 0
    for seed in args.seeds:
        records = differential_run(seed=seed, count=args.count)
        bad = [r for r in records if not r.dominated]
        margin = min(r.qmodel_bits - r.exact_bits for r in records)
        print(f"seed {seed:5d}: {len(records)} circuits, "
              f"{len(bad)} violations, min margin {margin:.6f}")
        grand_total += len(records)
        grand_bad += len(bad)
    print(f"overall: {grand_total} circuits, {grand_bad} violations")
    return 1 if grand_bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
