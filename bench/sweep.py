#!/usr/bin/env python3
"""Report-only size sweep: per-layer time and counters at 3-4 sizes per family.

Nothing here is gated.  It records how each layer grows with the size
parameter of its family, so that a scaling claim can cite a measurement:

    python3 bench/sweep.py            # writes bench/sweep.json and prints a table

Times are the fastest of REPEATS traced runs of one design per size
(seed 1), the sizes taking turns.  Growth is given as an exponent for
the polynomial families (time ~ size^e) and as a ratio per step for the
exponential ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
from pathlib import Path

import families
import run
import tracing

# family: (size parameter, sizes, generator, growth model)
SWEEPS = {
    "reconvergent_chain": ("stages", (9, 10, 11, 12), families.reconvergent_chain, "step"),
    "trojan_pipeline": ("depth", (8, 16, 24, 32),
                        lambda rng, d: families.trojan_pipeline(rng, d, 64), "power"),
    "bitsliced_datapath": ("width", (128, 256, 512, 1024),
                           families.bitsliced_datapath, "power"),
    "oracle_diff": ("input_bits", (10, 12, 14, 16), families.read_once_circuit, "step"),
}
REPEATS = 5  # traced runs per size; the fastest counts
GROWTH_COUNTERS = ("channelizer.channels", "channelizer.table_entries",
                   "bitgraph.dag_nodes", "qif_engine.leak_vector_entries",
                   "oracle.assignments")


def measure_points(mods, designs):
    """REPEATS traced runs of each design, the sizes taking turns.

    Taking turns spreads every size over the same phases of host load,
    so the fastest run of each size is comparable between sizes.
    """
    runner = run.Runner(mods)
    tallies = [run.Tally([d]) for d in designs]
    layers = [[] for _ in designs]
    tracer = tracing.Tracer()
    for _ in range(REPEATS):
        for tally, per_design in zip(tallies, layers):
            first = len(tracer.spans)
            tracer.install(mods["pipeline"], mods["oracle"])
            try:
                tally.run(runner, 0, tracer)
            finally:
                tracer.uninstall()
            per_design.append(tracer.self_times_ms(first))
    points = []
    for design, tally, per_design in zip(designs, tallies, layers):
        if tally.failed:
            raise SystemExit(f"{design.name}: {tally.failures[0]}")
        times = {name: min(p[name] for p in per_design)
                 for name in tracing.TIME_METRICS}
        points.append({"size": design.size, "design": design.name,
                       "total_ms": sum(times.values()),
                       "layers_ms": {k: v for k, v in times.items() if v > 0.0},
                       "counters": tracing.sum_counters(tally.counters.values())})
    return points


def growth(points, key, model):
    """Per consecutive pair of sizes: exponent ('power') or ratio per step ('step')."""
    out = []
    for a, b in zip(points, points[1:]):
        va, vb = key(a), key(b)
        if not va or not vb:
            out.append(None)
        elif model == "power":
            out.append(round(math.log(vb / va) / math.log(b["size"] / a["size"]), 2))
        else:
            out.append(round((vb / va) ** (1.0 / (b["size"] - a["size"])), 2))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent / "sweep.json"))
    args = parser.parse_args(argv)
    mods = run.load_qflow()
    doc = {"machine": {"arch": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
           "repeats": REPEATS, "families": {}}
    for family, (param, sizes, make, model) in SWEEPS.items():
        points = measure_points(mods, [make(random.Random(1), n) for n in sizes])
        layer_names = sorted({k for p in points for k in p["layers_ms"]})
        doc["families"][family] = {
            "parameter": param, "growth_model": model, "points": points,
            "growth": {
                "total_ms": growth(points, lambda p: p["total_ms"], model),
                **{name: growth(points, lambda p, n=name: p["layers_ms"].get(n), model)
                   for name in layer_names},
                **{name: growth(points, lambda p, n=name: p["counters"][n], model)
                   for name in GROWTH_COUNTERS},
            }}
        print(f"{family} ({param}; growth as "
              f"{'exponent' if model == 'power' else 'ratio per step'})")
        for p in points:
            top = sorted(p["layers_ms"].items(), key=lambda kv: -kv[1])[:3]
            print(f"  {param}={p['size']:<5} total {p['total_ms']:9.1f} ms  "
                  + "  ".join(f"{k} {v:.1f}" for k, v in top))
        for name, g in doc["families"][family]["growth"].items():
            if any(x is not None for x in g):
                print(f"    growth {name:<32} {g}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
