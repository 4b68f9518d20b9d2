#!/usr/bin/env python3
"""Per-stage A/B timing of two qflow source trees in one process.

    python3 scripts/ab_stages.py BASE_SRC NEW_SRC --workload W --seed N --passes P

BASE_SRC and NEW_SRC are directories that hold a ``qflow`` package (a
checkout's ``src``).  Both are imported here, under the package names
``qflow_a`` and ``qflow_b``, and run the operation of ``bench/run.py`` on
the designs of one seeded workload pool (``bench/families.py``, the only
file read from ``bench/``): ``analyze`` and the JSON report, and for the
oracle designs the uncapped totals, ``flatten_forest`` and the exact
leakage.  Before any timing, every design's JSON, text and CSV reports
(runtime zeroed) and exact leakage must be equal in both trees.  Whether
the trees' token streams (``repr(tokenize(...))`` of every file) and ASTs
(``repr(parse(...))``) are equal over the pool is printed, not required:
a change may alter the AST on purpose and keep the reports.

Pass i runs the whole pool once with each tree, A then B when i is even
and B then A when it is odd, so that a host that speeds up or slows down
during the run weighs on both trees alike.  Each stage function that
``pipeline`` and ``oracle`` call is wrapped, in that tree's namespace
only, to add its wall time to the pass.  So is the lexer's ``scan``, as
the parser binds it: its row is the part of ``parse`` spent scanning.
The ``gc`` row is the time the cyclic garbage collector ran during the
pass, from ``gc.callbacks``, charged to the tree whose pass was running:
a collection is started by whatever allocation crosses the threshold,
so it also shows inside the stage rows it interrupted.
The table gives, per stage and for the whole pass, each tree's median
with its quartiles in raw milliseconds, the ratio B/A of the medians, and
the number of passes in which B was faster.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

FAMILIES = Path(__file__).resolve().parent.parent / "bench" / "families.py"

# (module, function): every stage the operation calls, in pipeline order
STAGES = (
    ("pipeline", "parse"), ("parser", "scan"), ("pipeline", "extract_labels"),
    ("pipeline", "elaborate"), ("pipeline", "bit_blast"), ("pipeline", "merge"),
    ("pipeline", "compute_dependencies"), ("pipeline", "build_input_probs"),
    ("pipeline", "propagate"),
    ("pipeline", "output_contributions"), ("pipeline", "accumulate_totals"),
    ("pipeline", "classify"), ("pipeline", "render"),
    ("oracle", "flatten_forest"), ("oracle", "exact_multiplicative_leakage"),
)
GC = "gc"
TOTAL = "total"


def load_module(name, path, package_dir=None):
    """Import the file ``path`` as module ``name``, or the package in
    ``package_dir`` as package ``name`` when that is given."""
    if package_dir is None:
        spec = importlib.util.spec_from_file_location(name, path)
    else:
        spec = importlib.util.spec_from_file_location(
            name, Path(package_dir) / "__init__.py",
            submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class CollectorClock:
    """A ``gc.callbacks`` hook that adds each collection's wall time to the
    ``GC`` entry of ``times``, the pass under way; ``None`` between passes."""

    def __init__(self):
        self.times = None
        self.start = 0.0

    def __call__(self, phase, info):
        if self.times is None:
            return
        if phase == "start":
            self.start = time.perf_counter()
        else:
            self.times[GC] = self.times.get(GC, 0.0) + time.perf_counter() - self.start


class Tree:
    """One imported qflow, with its stage functions wrapped for timing."""

    def __init__(self, name, src):
        package = Path(src).resolve() / "qflow"
        if not (package / "__init__.py").is_file():
            sys.exit(f"ab_stages: no qflow package under {src}")
        load_module(name, None, package)
        self.pipeline = importlib.import_module(f"{name}.pipeline")
        self.oracle = importlib.import_module(f"{name}.oracle")
        self.frontend = importlib.import_module(f"{name}.frontend")
        self.parser = importlib.import_module(f"{name}.frontend.parser")
        self.lexer = importlib.import_module(f"{name}.frontend.lexer")
        self.times = {}  # stage -> seconds in the pass under way
        for module, fn in STAGES:  # an older tree may lack a stage
            namespace = getattr(self, module)
            if hasattr(namespace, fn):
                setattr(namespace, fn, self._timed(fn, getattr(namespace, fn)))

    def _timed(self, stage, fn):
        times, clock = self.times, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[stage] = times.get(stage, 0.0) + clock() - start

        return timed

    def op(self, design):
        """One verdict, as ``bench/run.py`` times it; returns the analysis and exact leakage."""
        pipeline, oracle = self.pipeline, self.oracle
        config = pipeline.Config(files=[p for p, _ in design.files], top=design.top,
                                 high_overrides=design.high_overrides,
                                 max_channel_inputs=design.max_channel_inputs)
        analysis = pipeline.analyze(config, file_texts=design.files)
        pipeline.render_report(analysis, "json")
        exact = None
        if design.kind in ("read_once", "reconvergent"):
            math.fsum(pipeline.accumulate_totals(
                analysis.annotated, analysis.design, cap=False).values())
            flat = oracle.flatten_forest(analysis.forest, analysis.design)
            exact = oracle.exact_multiplicative_leakage(flat)
        return analysis, exact

    def outputs(self, design):
        """The reports with the runtime zeroed, and the exact leakage, of one design."""
        analysis, exact = self.op(design)
        analysis.report.runtime_seconds = 0.0
        return ([self.pipeline.render_report(analysis, fmt) for fmt in ("json", "text", "csv")],
                exact)

    def frontend_outputs(self, design):
        """The repr of every file's tokens, and of the design's AST."""
        tokens = [repr(self.lexer.tokenize(path, text)) for path, text in design.files]
        return tokens, repr(self.frontend.parse(self.frontend.SourceUnit(design.files,
                                                                         design.top)))

    def run_pass(self, pool, clock):
        """Per-stage, collector and total seconds of one pass over the pool."""
        self.times.clear()
        clock.times = self.times
        start = time.perf_counter()
        try:
            for design in pool:
                self.op(design)
        finally:
            clock.times = None
        times = dict(self.times)
        times[TOTAL] = time.perf_counter() - start
        return times


def quartiles(values):
    """[q1, median, q3] of ``values``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def table(a_passes, b_passes):
    stages = [fn for _m, fn in STAGES if any(fn in p for p in a_passes + b_passes)]
    stages += [GC, TOTAL]
    lines = [f"{'stage':<30}{'A median [q1, q3] ms':>28}{'B median [q1, q3] ms':>28}"
             f"{'B/A':>7}{'B wins':>9}"]
    for stage in stages:
        a = [p.get(stage, 0.0) * 1e3 for p in a_passes]
        b = [p.get(stage, 0.0) * 1e3 for p in b_passes]
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        wins = sum(y < x for x, y in zip(a, b))
        ratio = f"{b2 / a2:.3f}" if a2 else "-"
        lines.append(f"{stage:<30}{f'{a2:.2f} [{a1:.2f}, {a3:.2f}]':>28}"
                     f"{f'{b2:.2f} [{b1:.2f}, {b3:.2f}]':>28}{ratio:>7}"
                     f"{f'{wins}/{len(a)}':>9}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", help="directory holding the A qflow package")
    parser.add_argument("new_src", help="directory holding the B qflow package")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("argument --passes: must be at least 1")
    families = load_module("ab_families", FAMILIES)
    if args.workload not in families.POOLS:
        parser.error(f"argument --workload: one of {', '.join(families.POOLS)}")
    pool = families.workload_pool(args.workload, args.seed)
    a, b = Tree("qflow_a", args.base_src), Tree("qflow_b", args.new_src)
    same_tokens = same_asts = True
    for design in pool:
        if a.outputs(design) != b.outputs(design):
            sys.exit(f"ab_stages: {design.name}: the two trees' outputs differ")
        (a_tokens, a_ast), (b_tokens, b_ast) = (a.frontend_outputs(design),
                                                b.frontend_outputs(design))
        same_tokens &= a_tokens == b_tokens
        same_asts &= a_ast == b_ast
    a_passes, b_passes = [], []
    gc.collect()
    clock = CollectorClock()
    gc.callbacks.append(clock)
    for i in range(args.passes):
        for tree, passes in ((a, a_passes), (b, b_passes))[::1 if i % 2 == 0 else -1]:
            passes.append(tree.run_pass(pool, clock))
    gc.callbacks.remove(clock)
    print(f"{args.workload} seed {args.seed}: {len(pool)} designs, {args.passes} passes "
          f"(A = {args.base_src}, B = {args.new_src}); outputs equal; token streams "
          f"{'equal' if same_tokens else 'differ'}; ASTs {'equal' if same_asts else 'differ'}")
    print(table(a_passes, b_passes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
