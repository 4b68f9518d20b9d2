"""A fixed reference loop that tells how fast the host runs Python right now.

The benchmark's host is shared: the same design takes up to twice as
long in one minute as in the next, in CPU time as much as in wall time.
So every time the benchmark reports is scaled by how long this loop took
next to it, and is given in reference milliseconds: the milliseconds the
operation would take on a host where one loop takes ``REFERENCE_MS``.
The loop is part of the benchmark, not of qflow, so a change to qflow
moves the scaled times exactly as it moves the raw ones.

The loop has two parts, run with the cyclic garbage collector off so
that no collector setting of the program under test changes its time:
small objects linked into a graph with tuple-keyed dicts and a walk over
them (about 60% of the time), and plain integer arithmetic (about 40%).
When the host slows down, the first part slows more than qflow does and
the second part less; in this mix the scaled time of each workload's
operations moves least with the host's speed.
"""

from __future__ import annotations

import gc
import time

REFERENCE_MS = 3.0  # the time of one loop that scaled times are given against
REPEATS = 3  # timings per reference; the fastest counts
_NODES = 3000
_STEPS = 16000  # arithmetic steps after the object graph


class _Node:
    __slots__ = ("a", "b", "v")

    def __init__(self, a, b, v):
        self.a = a
        self.b = b
        self.v = v


def _loop():
    nodes = [_Node(None, None, i) for i in range(64)]
    table = {}
    for i in range(_NODES):
        n = _Node(nodes[i % len(nodes)], nodes[(i * 7) % len(nodes)], i)
        nodes.append(n)
        table[(i, i & 7)] = n.v ^ n.a.v ^ n.b.v
    total = 0
    for (i, _), v in table.items():
        total += (v + i) & 3
    for i in range(_STEPS):
        total += i * i % 7
    return total


def reference_seconds():
    """The fastest of REPEATS timings of the loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled(seconds, reference):
    """``seconds`` measured next to a loop of ``reference`` s, in reference seconds."""
    return seconds * (REFERENCE_MS * 1e-3) / reference
