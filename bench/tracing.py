"""Spans and size counters taken from outside qflow.

``Tracer.install`` replaces the stage functions in the namespaces of
``qflow.pipeline`` and ``qflow.oracle`` with timing wrappers.  Both
modules look these names up at call time, so every call the pipeline
makes goes through a wrapper and qflow's source stays untouched.  Spans
stay in memory until the run ends.

Counters are computed from the analysis result after the operation, so
they never fall inside a timed span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module attribute, per-layer metric its self time adds to)
PIPELINE_SPANS = (
    ("analyze", "pipeline.glue_ms"),
    ("parse", "frontend.parse_ms"),
    ("extract_labels", "frontend.elaborate_ms"),
    ("elaborate", "frontend.elaborate_ms"),
    ("bit_blast", "bitgraph.bit_blast_ms"),
    ("compute_dependencies", "bitgraph.dependencies_ms"),
    ("merge", "channelizer.merge_ms"),
    ("propagate", "qif_engine.propagate_ms"),
    ("accumulate_totals", "qif_engine.totals_ms"),
    ("output_contributions", "qif_engine.totals_ms"),
    ("classify", "report.classify_ms"),
    ("render", "report.render_ms"),
)
ORACLE_SPANS = (
    ("flatten_forest", "oracle.flatten_ms"),
    ("exact_multiplicative_leakage", "oracle.exact_ms"),
)
SPAN_METRIC = dict(PIPELINE_SPANS + ORACLE_SPANS)
TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values()))

COUNTERS = (
    "frontend.tokens", "frontend.assigns",
    "bitgraph.dag_nodes", "bitgraph.roots", "bitgraph.register_edges",
    "channelizer.channels", "channelizer.max_arity", "channelizer.table_entries",
    "qif_engine.registers", "qif_engine.tainted_channels",
    "qif_engine.leak_vector_entries",
    "report.path_entries",
    "oracle.assignments",
)
GATE_COUNTER = "bitgraph.gate_nodes"  # base of channelizer.channels_per_gate


class Tracer:
    """Records (name, start, end, parent index, operation id) per call."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def install(self, pipeline, oracle):
        for module, names in ((pipeline, PIPELINE_SPANS), (oracle, ORACLE_SPANS)):
            for name, _metric in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(name, fn))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def self_times_ms(self, first=0):
        """Per-layer self time over spans[first:], in ms."""
        child = defaultdict(float)
        for name, start, end, parent, _op in self.spans[first:]:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans[first:], first):
            out[SPAN_METRIC[name]] += (end - start - child[i]) * 1e3
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _dag_counts(forest):
    """(distinct nodes, distinct gate nodes), by identity, each visited once."""
    seen = set()
    gates = 0
    stack = [t.node for t in forest]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op not in ("leaf", "const0", "const1"):
            gates += 1
        stack.extend(node.children)
    return len(seen), gates


def op_counters(analysis, files, tokenize, flat=None):
    """Size counters of one analysed design (``flat``: its oracle function)."""
    nodes, gates = _dag_counts(analysis.forest)
    channels = analysis.graph.channels
    annotated = analysis.annotated
    counts = {
        "frontend.tokens": sum(len(tokenize(p, t)[0]) for p, t in files),
        "frontend.assigns": len(analysis.design.assigns),
        "bitgraph.dag_nodes": nodes,
        GATE_COUNTER: gates,
        "bitgraph.roots": len(analysis.forest),
        "bitgraph.register_edges": len(analysis.deps.edges),
        "channelizer.channels": len(channels),
        "channelizer.max_arity": max((len(c.inputs) for c in channels), default=0),
        "channelizer.table_entries": sum(1 << len(c.inputs) for c in channels
                                         if c.table is not None),
        "qif_engine.registers": len(annotated.reg_prob),
        "qif_engine.tainted_channels": sum(map(bool, annotated.chan_tainted.values())),
        "qif_engine.leak_vector_entries": sum(map(len, annotated.chan_leak.values())),
        "report.path_entries": sum(len(s.paths) for s in analysis.report.secrets),
        "oracle.assignments": 0,
    }
    if flat is not None:
        counts["oracle.assignments"] = 1 << (len(flat.high_inputs) + len(flat.low_inputs))
    return counts


def sum_counters(per_op):
    """Workload totals; max_arity is a maximum and channels_per_gate a ratio."""
    total = dict.fromkeys(COUNTERS + (GATE_COUNTER,), 0)
    for counts in per_op:
        for key, value in counts.items():
            if key == "channelizer.max_arity":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    gates = total.pop(GATE_COUNTER)
    total["channelizer.channels_per_gate"] = (
        total["channelizer.channels"] / gates if gates else 0.0)
    return total
