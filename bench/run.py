#!/usr/bin/env python3
"""qflow benchmark: verdict throughput on four seeded Verilog families.

One operation is what ``qflow analyze --format json`` does: one design
analysed with ``pipeline.analyze`` and rendered with
``render_report(..., "json")``.  In ``oracle_diff`` the operation goes on
through ``flatten_forest`` and ``exact_multiplicative_leakage``.  The loop
is closed: one caller in this single-threaded process, and the next
design starts only when the previous verdict is out.

Run one workload (the last line of stdout is the JSON result):

    python3 bench/run.py --workload trojan_pipeline --seed 1 --seconds 20 --trace 0

Times are reported in reference milliseconds: each one is scaled by
the time of a fixed reference loop timed next to it (``calibrate.py``),
so that the shared host's changing speed does not show in them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the workload's designs and reports
per-layer self times, size counters and the tracing overhead; the spans
are written to ``.bench_out/`` when the run ends.

Run every workload, one process at a time, print one row of end-to-end
metrics per workload, and exit non-zero if any output check fails:

    python3 bench/run.py --all --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import families
import tracing
from qflow_setup import BenchError, load_qflow

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"  # workload -> seed -> digest at a recorded commit
WORKLOADS = tuple(families.POOLS)
SETUP_RUNS = 9  # set-ups timed per run, each in a fresh interpreter
LEAK_TOL = 1e-9
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
DETAIL_PREFIX = "detail "


def setup_seconds(workload, seed):
    """The median of SETUP_RUNS set-ups, each timed in a fresh interpreter.

    Returns (scaled, raw): the median in reference seconds, each set-up
    scaled by the reference loop its interpreter timed right after it,
    and the median of the raw times.
    """
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "qflow_setup.py"), workload, str(seed)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        seconds, reference = map(float, proc.stdout.split())
        scaled.append(calibrate.scaled(seconds, reference))
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Runs and checks operations against one imported qflow."""

    def __init__(self, mods):
        self.pipeline = mods["pipeline"]
        self.oracle = mods["oracle"]
        self.tokenize = mods["frontend.lexer"].tokenize

    def op(self, design):
        """One verdict; returns (seconds, analysis, rendered, uncapped, flat, exact)."""
        pipeline, oracle = self.pipeline, self.oracle
        cfg = pipeline.Config(files=[p for p, _ in design.files], top=design.top,
                              high_overrides=design.high_overrides,
                              max_channel_inputs=design.max_channel_inputs)
        start = time.perf_counter()
        analysis = pipeline.analyze(cfg, file_texts=design.files)
        rendered = pipeline.render_report(analysis, "json")
        uncapped = flat = exact = None
        if design.kind in ("read_once", "reconvergent"):
            uncapped = math.fsum(pipeline.accumulate_totals(
                analysis.annotated, analysis.design, cap=False).values())
            flat = oracle.flatten_forest(analysis.forest, analysis.design)
            _ratio, exact = oracle.exact_multiplicative_leakage(flat)
        return (time.perf_counter() - start, analysis, rendered, uncapped, flat, exact)


def check(design, verdicts, uncapped, exact):
    """The first failed output check of one operation, or None."""
    if set(verdicts) != set(design.secret_bits):
        return (f"{design.name}: reported {len(verdicts)} secret bits, "
                f"expected {len(design.secret_bits)}")
    for key, (cls, value) in design.expected.items():
        got_cls, got = verdicts[key]
        if got_cls != cls or abs(got - value) > LEAK_TOL:
            return f"{design.name}: {key} is {got_cls} {got!r}, expected {cls} {value}"
    if design.kind == "exact":
        return None
    for key, (_cls, got) in verdicts.items():
        if not -LEAK_TOL <= got <= 1.0 + LEAK_TOL:  # source min-entropy at p=0.5
            return f"{design.name}: {key} total {got!r} outside [0, 1]"
    if design.kind == "read_once":
        for key in set(verdicts) - set(design.expected):
            if verdicts[key][1] <= 0.0:
                return f"{design.name}: {key} reaches an output but has estimate 0"
        if uncapped < exact - LEAK_TOL:
            return f"{design.name}: estimate {uncapped!r} below exact {exact!r}"
    return None


def verdicts_of(rendered):
    doc = json.loads(rendered)
    return {(s["net"], s["bit"]): (s["class"], s["leakage_bits"]) for s in doc["secrets"]}


class Tally:
    """Outcomes of the operations of one run."""

    def __init__(self, pool):
        self.pool = pool
        self.latencies = []  # seconds, one per operation that returned
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_pass = {}  # pool index -> verdicts, for the digest
        self.violations = {}  # pool index -> bool, reconvergent designs only
        # pool index -> bool, read-once designs analysed again at the default bound
        self.default_bound_violations = {}
        self.counters = {}  # pool index -> size counters (traced passes)

    def default_bound_violation(self, runner, design, exact):
        """Whether the estimate at qflow's default channel bound is below exact."""
        pipeline = runner.pipeline
        cfg = pipeline.Config(files=[p for p, _ in design.files], top=design.top)
        analysis = pipeline.analyze(cfg, file_texts=design.files)
        uncapped = math.fsum(pipeline.accumulate_totals(
            analysis.annotated, analysis.design, cap=False).values())
        return uncapped < exact - LEAK_TOL

    def run(self, runner, index, tracer=None):
        """Run and check pool[index]; returns its latency, or None if it raised."""
        design = self.pool[index]
        self.attempted += 1
        elapsed = None
        try:
            if tracer is not None:
                tracer.op = self.attempted
            elapsed, analysis, rendered, uncapped, flat, exact = runner.op(design)
            verdicts = verdicts_of(rendered)
            error = check(design, verdicts, uncapped, exact)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{design.name}: {type(exc).__name__}: {exc}"
        else:
            self.first_pass.setdefault(index, verdicts)
            if design.kind == "reconvergent":
                self.violations.setdefault(index, uncapped < exact - LEAK_TOL)
            if (design.kind == "read_once" and tracer is None
                    and index not in self.default_bound_violations):
                self.default_bound_violations[index] = self.default_bound_violation(
                    runner, design, exact)
            if tracer is not None and index not in self.counters:
                self.counters[index] = tracing.op_counters(
                    analysis, design.files, runner.tokenize, flat)
        if elapsed is not None:
            self.latencies.append(elapsed)
        if error is not None:
            self.failed += 1
            self.failures.append(error)
        return elapsed

    def digest(self):
        """sha256 over (design, secret, class, leakage to 1e-9) of one pass."""
        h = hashlib.sha256()
        for index in sorted(self.first_pass):
            name = self.pool[index].name
            for (net, bit), (cls, value) in sorted(self.first_pass[index].items()):
                h.update(f"{index}:{name}:{net}[{bit}]:{cls}:{value:.9f}\n".encode())
        return h.hexdigest()

    @staticmethod
    def share(flags):
        return sum(flags.values()) / len(flags) if flags else 0.0


def tail_percentile(samples):
    """(p, value): the highest integer percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)  # nearest-rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def ms(seconds):
    return [x * 1e3 for x in seconds] or [0.0]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner, pool, seconds):
    """Closed loop over the pool in whole passes, until ``seconds`` have passed.

    Ending only at the end of a pass keeps the mix of design sizes the
    same in every run, whatever the seed.  The reference loop is timed
    between operations; each operation's time is scaled by the mean of
    the references before and after it.  Returns the tally, the scaled
    latencies and the references, in seconds.
    """
    tally = Tally(pool)
    scaled, references = [], []
    before = calibrate.reference_seconds()
    start = time.perf_counter()
    while not tally.attempted or time.perf_counter() - start < seconds:
        for i in range(len(pool)):
            elapsed = tally.run(runner, i)
            after = calibrate.reference_seconds()
            if elapsed is not None:
                reference = (before + after) / 2
                scaled.append(calibrate.scaled(elapsed, reference))
                references.append(reference)
            before = after
    return tally, scaled, references


def measure_traced(runner, pool, seconds, mods, spans_path):
    """Untraced and traced passes in turn, until ``seconds`` have passed.

    Pass times and per-layer self times are scaled, like the operations
    of an untraced run, by the mean of the reference loops timed before
    and after the pass.
    """
    tally = Tally(pool)
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    before = calibrate.reference_seconds()
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        wall = sum(filter(None, (tally.run(runner, i) for i in range(len(pool)))))
        between = calibrate.reference_seconds()
        plain.append(calibrate.scaled(wall, (before + between) / 2))
        first = len(tracer.spans)
        tracer.install(mods["pipeline"], mods["oracle"])
        try:
            wall = sum(filter(None, (tally.run(runner, i, tracer) for i in range(len(pool)))))
        finally:
            tracer.uninstall()
        before = calibrate.reference_seconds()
        reference = (between + before) / 2
        traced.append(calibrate.scaled(wall, reference))
        layers.append({name: calibrate.scaled(value, reference)
                       for name, value in tracer.self_times_ms(first).items()})
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(spans_path)
    return tally, tracer, plain, traced, layers


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload, seed, seconds, traced):
    """Print the detail lines and the final JSON line of one workload run."""
    mods = load_qflow()
    pool = families.workload_pool(workload, seed)
    runner = Runner(mods)
    if traced:
        tally, tracer, plain, traced_walls, layers = measure_traced(
            runner, pool, seconds, mods, OUT_DIR / f"spans_{workload}_{seed}.jsonl")
        metrics = {name: metric(min(p[name] for p in layers), "ms")
                   for name in tracing.TIME_METRICS}
        counts = tracing.sum_counters(tally.counters.values())
        for name, value in counts.items():
            unit = "ratio" if name == "channelizer.channels_per_gate" else "count"
            metrics[name] = metric(value, unit)
        metrics["trace.overhead_ms"] = metric((min(traced_walls) - min(plain)) * 1e3, "ms")
        metrics["reconvergent_violation_share"] = metric(
            tally.share(tally.violations), "share")
        metrics["default_bound_violation_share"] = metric(
            tally.share(tally.default_bound_violations), "share")
        detail = {"passes": len(layers), "spans": len(tracer.spans),
                  "untraced_pass_ms": min(plain) * 1e3,
                  "traced_pass_ms": min(traced_walls) * 1e3,
                  "dominant_layer": dominant_layer(metrics)}
    else:
        setup_s, raw_setup_s = setup_seconds(workload, seed)
        tally, scaled, references = measure(runner, pool, seconds)
        samples = ms(scaled)
        total_ms = math.fsum(samples)
        tail_p, tail = tail_percentile(samples)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "verdicts_per_s": metric(len(samples) / total_ms * 1e3 if total_ms else 0.0,
                                     "1/s"),
            "latency_p50_ms": metric(statistics.median(samples), "ms"),
            "latency_tail_ms": metric(tail, "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        detail = {"samples": len(tally.latencies), "passes": tally.attempted // len(pool),
                  "tail_percentile": tail_p, "setup_runs": SETUP_RUNS,
                  "failed_share": tally.failed / tally.attempted,
                  "reference_ms": statistics.median(ms(references)),
                  "raw_setup_s": raw_setup_s,
                  "raw_latency_p50_ms": statistics.median(ms(tally.latencies)),
                  "reconvergent_violation_share": tally.share(tally.violations),
                  "default_bound_violation_share":
                      tally.share(tally.default_bound_violations)}
    digest = tally.digest()
    detail.update(workload=workload, seed=seed, trace=int(traced), designs=len(pool),
                  attempted=tally.attempted, failed=tally.failed, digest=digest,
                  digest_matches_recorded=recorded_digest_matches(workload, seed, digest),
                  failures=tally.failures[:5])
    print_detail(detail, metrics)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


def recorded_digest_matches(workload, seed, digest):
    """True or False against ``digests.json``; None if none is recorded."""
    if not DIGESTS.is_file():
        return None
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    return None if recorded is None else recorded == digest


def dominant_layer(metrics):
    by_layer = {}
    for name in tracing.TIME_METRICS:
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + metrics[name]["value"]
    return max(by_layer, key=by_layer.get)


def print_detail(detail, metrics):
    print(f"workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
          f"{detail['attempted']} operations on {detail['designs']} designs, "
          f"{detail['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True), flush=True)


def run_all(seed, seconds):
    """Each workload in its own process, one at a time; one row per workload."""
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith(DETAIL_PREFIX))
                            [len(DETAIL_PREFIX):])
        m = result["metrics"]
        cells = [f"setup_s={m['setup_s']['value']:.4f} s (n={detail['setup_runs']})"]
        cells += [f"{name}={m[name]['value']:.4g} {m[name]['unit']} (n={detail['samples']})"
                  for name in ("verdicts_per_s", "latency_p50_ms")]
        cells.append(f"latency_tail_ms={m['latency_tail_ms']['value']:.4g} ms "
                     f"(p{detail['tail_percentile']}, n={detail['samples']})")
        cells.append(f"peak_rss_mb={m['peak_rss_mb']['value']:.1f} MB (n=1)")
        cells.append(f"failed_share={detail['failed_share']:.4g} "
                     f"({result['failed']}/{result['attempted']})")
        if workload == "oracle_diff":
            for name in ("reconvergent_violation_share", "default_bound_violation_share"):
                cells.append(f"{name}={detail[name]:.4g}")
        match = {True: "matches recorded", False: "differs from recorded",
                 None: "none recorded"}[detail["digest_matches_recorded"]]
        cells.append(f"digest={detail['digest'][:16]} ({match})")
        print(f"{workload:<20} " + "  ".join(cells))
        for failure in detail["failures"]:
            print(f"{'':<20} FAILED {failure}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one row each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
