"""End-to-end analysis driver shared by the CLI, scripts, and tests: ``build``
reads a design into its bind forest, ``evaluate`` analyses the forest at one
channel bound and prior, and ``analyze`` is both; a sweep builds once."""

from __future__ import annotations

import gc
import re
import time

from ._record import Record
from .bitgraph import bit_blast
from .channelizer import DEFAULT_MAX_CHANNEL_INPUTS, MAX_TABLE_INPUTS, merge
from .errors import DesignTooDeep, ProbabilityOnNonInput, UnknownSignal
from .frontend import SourceUnit, elaborate, extract_labels, parse
from .qif_engine import (accumulate_totals, compute_dependencies, output_contributions,
                         propagate)
from .report import Report, Thresholds, classify, render

# the value is a number that ``float`` reads, so `1e` and `.` fail to match
_PROB_LINE = re.compile(
    r"^\s*([A-Za-z_][\w.$]*)\s*(?:\[\s*(\d+)\s*\])?\s*=\s*"
    r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*$")


class Config(Record):
    __slots__ = ("files", "top", "high_overrides", "prob_file", "p_high", "max_channel_inputs",
                 "thresholds", "cap")

    def __init__(self, files: list, top: str, high_overrides: tuple = (),
                 prob_file: str | None = None, p_high: float | None = None,
                 max_channel_inputs: int = DEFAULT_MAX_CHANNEL_INPUTS,
                 thresholds: Thresholds | None = None, cap: bool = True):
        if not 1 <= max_channel_inputs <= MAX_TABLE_INPUTS:
            raise ValueError(f"max_channel_inputs must be in [1, {MAX_TABLE_INPUTS}]")
        if p_high is not None:
            _check_probability(p_high)
        self.files = files  # paths
        self.top = top
        self.high_overrides = high_overrides  # net names marked High from the CLI
        self.prob_file = prob_file
        self.p_high = p_high  # single global secret-bit probability
        self.max_channel_inputs = max_channel_inputs
        self.thresholds = Thresholds() if thresholds is None else thresholds
        self.cap = cap


class Analysis(Record):
    __slots__ = ("design", "forest", "deps", "graph", "annotated", "totals", "report")

    def __init__(self, design, forest: list, deps, graph, annotated, totals: dict,
                 report: Report):
        self.design = design
        self.forest = forest
        self.deps = deps
        self.graph = graph
        self.annotated = annotated
        self.totals = totals
        self.report = report


def _check_probability(p):
    if not 0.0 <= p <= 1.0:
        raise ValueError("probabilities must be in [0, 1]")


def parse_probability_file(text: str):
    """Lines `net[bit] = p` or `net = p`; returns (per_bit, per_net) maps."""
    per_bit, per_net = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _PROB_LINE.match(stripped)
        if not m:
            raise ValueError(f"probability file line {lineno}: cannot parse {line!r}")
        name, bit, p = m.group(1), m.group(2), float(m.group(3))
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability file line {lineno}: {p} not in [0, 1]")
        if bit is None:
            per_net[name] = p
        else:
            per_bit[(name, int(bit))] = p
    return per_bit, per_net


def build_input_probs(design, config: Config):
    probs = {}
    if config.p_high is not None:  # a sweep sets it after ``Config`` checked it
        _check_probability(config.p_high)
        for net, bit, _sid in design.high_bits():
            probs[(net, bit)] = config.p_high
    if config.prob_file:
        with open(config.prob_file, encoding="utf-8") as fh:
            per_bit, per_net = parse_probability_file(fh.read())
        for name, p in per_net.items():
            for b in range(_input_width(design, name)):
                probs[(name, b)] = p
        for (name, b), p in per_bit.items():
            if b >= _input_width(design, name):
                raise UnknownSignal(f"{name}[{b}]")
            probs[(name, b)] = p
    return probs


def _input_width(design, name):
    """The width of input net ``name``: only an input bit takes a probability."""
    net = design.nets.get(name)
    if net is None:
        raise UnknownSignal(name)
    if net.kind != "input":
        raise ProbabilityOnNonInput(name)
    return net.width


def load_sources(paths):
    files = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            files.append((str(path), fh.read()))
    return files


def build(config: Config, file_texts=None):
    """Parse, labels, elaborate and ``bit_blast``; returns ``(design, forest)``.

    ``file_texts`` bypasses the filesystem.  Raises ``DesignTooDeep`` where a
    stage recurses deeper than the interpreter's stack allows (no later one
    recurses)."""
    files = file_texts if file_texts is not None else load_sources(config.files)
    try:
        ast = parse(SourceUnit(files, config.top))
        labels = extract_labels(ast, config.top, [(n, "high") for n in config.high_overrides])
        design = elaborate(ast, config.top, labels)
        return design, bit_blast(design)
    except RecursionError as e:
        raise DesignTooDeep() from e


def evaluate(design, forest, config: Config) -> Analysis:
    """``merge`` through ``classify`` of one ``build`` under ``config``.

    No stage changes ``design`` or ``forest``, so one build serves every
    point of a sweep.  The report's runtime is this call's."""
    start = time.monotonic()
    graph = merge(forest, config.max_channel_inputs)
    deps = compute_dependencies(graph)
    input_probs = build_input_probs(design, config)
    annotated = propagate(graph, design, input_probs, deps)
    contributions = output_contributions(annotated, design)
    totals = accumulate_totals(annotated, design, cap=config.cap, contributions=contributions)
    report = classify(
        totals, config.thresholds, annotated.secrets, contributions,
        design_meta={"top": config.top, "max_channel_inputs": config.max_channel_inputs,
                     "cap": config.cap},
        runtime_seconds=time.monotonic() - start)
    return Analysis(design, forest, deps, graph, annotated, totals, report)


def analyze(config: Config, file_texts=None) -> Analysis:
    """``evaluate(*build(config, file_texts), config)``, timed as a whole.

    The stages run with the cyclic garbage collector paused, and the
    caller's ``gc`` state comes back in a ``finally``, also when a stage
    raises.  An analysis allocates one object per AST expression, DAG
    node and channel and holds all of them until it ends, so every
    automatic collection would rescan a graph that cannot be garbage: the
    stages build no reference cycles (a node refers only to its children,
    a channel to its input bits and channel ids), so whatever an analysis
    drops is freed by reference counting at once.
    ``tests/test_pipeline.py`` checks that ``gc.collect()`` finds nothing
    after analyses and renders of the corpus.

    The pause alone would only defer the scans: the allocation count
    goes on while the collector is paused, so the first allocation after
    the pause would start a collection of every survivor, and later ones
    would scan them again on promotion.  So the ``finally`` also calls
    ``gc.freeze()`` then ``gc.unfreeze()``, which moves every tracked
    object into the oldest generation and zeroes the young count.  The
    caller's own young objects move with them: a reference cycle the
    caller dropped is reclaimed by the next full collection (or
    ``gc.collect()``), not by the next young one.  A caller that has
    frozen objects itself (``gc.get_freeze_count()`` is not zero, say a
    server about to fork) keeps them frozen: the promotion is skipped.
    So it is on CPython 3.12.1, which starts with the base and MRO tuples
    of its static types frozen.  Only ``analyze`` pauses the collector.
    """
    start = time.monotonic()
    enabled = gc.isenabled()
    gc.disable()
    try:
        analysis = evaluate(*build(config, file_texts), config)
        analysis.report.runtime_seconds = time.monotonic() - start
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()
    return analysis


def render_report(analysis: Analysis, fmt: str) -> bytes:
    return render(analysis.report, fmt)
