"""QModel execution: probabilities, posterior Bayes vulnerability, leakage.

One kernel, ``channel_prob_pbv``, gives a channel's output probability
and its posterior Bayes vulnerability (PBV) with observable low inputs:
the sum over observable configurations of the best single guess of the
secret-carrying inputs, under the independence assumption.  A table
channel takes both from one pass over the assignments of its packed
truth table; no joint table is built.  Leakage cascades by summing
incoming per-secret-bit leakage over channel inputs and scaling by the
channel PBV.  Registers pass probabilities and leakage through unchanged.

Propagation walks the strongly connected components of the register
dependency graph in dependency order, so every input from outside a
component is final before the component is reached.  One routine handles
every component in two loops: sweeps that give each channel its taint,
output probability and PBV from one kernel call, until the component's
registers settle, then sweeps of the elementwise-max leakage cascade.
A component without a sequential cycle settles in one sweep of each, so
each of its channels costs one kernel call.  A cycle that does not
settle within ``MAX_FIXPOINT_ITERS`` sweeps raises
``NonConvergentFixpoint``.  Table channels with equal truth tables,
input probabilities and taints share one enumeration per ``propagate``
call.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

from .bitgraph import BitRef, DependencyGraph
from .channelizer import Channel, ChannelGraph
from .errors import ArityMismatch, NonConvergentFixpoint

PROB_TOL = 1e-12
LEAK_TOL = 1e-9
MAX_FIXPOINT_ITERS = 100


def ordered_sum(values):
    """``sum`` as Python 3.11 computes it: left to right, rounding each add.

    From 3.12 on the builtin compensates float rounding, which can move
    the last bit of a result, so a report would differ between versions.
    """
    return functools.reduce(operator.add, values, 0)


def source_leakage(p1: float) -> float:
    """Min-entropy of a bit: the leakage it injects at its source."""
    m = max(p1, 1.0 - p1)
    if m >= 1.0:
        return 0.0
    return -math.log2(m)


@dataclass
class ProbAnnotatedGraph:
    graph: ChannelGraph
    chan_prob: dict = field(default_factory=dict)  # cid -> p1
    chan_pbv: dict = field(default_factory=dict)  # cid -> V1
    chan_leak: dict = field(default_factory=dict)  # cid -> {sid: bits}
    chan_tainted: dict = field(default_factory=dict)  # cid -> bool
    reg_prob: dict = field(default_factory=dict)  # register BitRef -> p1
    reg_leak: dict = field(default_factory=dict)  # register BitRef -> {sid: bits}
    secrets: list = field(default_factory=list)  # (sid, net, bit, p_source)


# --------------------------------------------------------------------------
# Per-channel computations

def channel_prob_pbv(channel: Channel, probs, tainted=None):
    """(P(output = 1), PBV with observable lows) under input independence.

    ``tainted[i]`` says whether input i carries a secret (by default, when
    it is an ``input-high`` leaf).  The PBV sums over (o, l) the best guess
    of the tainted inputs h; an untainted channel's PBV is 1.  In a table
    channel each (l, h) is one assignment ``a``, so one pass over the 2^k
    assignments gives P(1) and, keyed by (o, a & low_mask), the best
    guesses.  Masses are added in assignment order.

    An ADDM/SUBM macro channel takes P(1) from the carry recursion, and
    its PBV is 1 at every prior: its channels together expose the whole
    sum, a bijection of either operand for a fixed other operand.
    """
    if tainted is None:
        tainted = [not isinstance(ci, int) and ci.role == "input-high"
                   for ci in channel.inputs]
    if channel.macro is not None:
        return _macro_prob(channel, probs), 1.0
    k = len(channel.inputs)
    if len(probs) != k:
        raise ArityMismatch(f"channel {channel.cid} takes {k} probabilities")
    masses = [1.0]  # masses[a]: product over inputs i, in order, of P(bit i of a)
    for p in probs:
        q = 1.0 - p
        masses = [m * q for m in masses] + [m * p for m in masses]
    secret = any(tainted)
    low_mask = sum(1 << i for i, t in enumerate(tainted) if not t)
    table, p1, best = channel.table, 0.0, {}
    for a, mass in enumerate(masses):
        o = (table >> a) & 1
        if o:
            p1 += mass
        if secret:
            key = (o << k) | (a & low_mask)
            if mass > best.get(key, 0.0):
                best[key] = mass
    return p1, ordered_sum(best.values()) if secret else 1.0


def _operands(channel: Channel, probs):
    """P(1) of the operand bits (a, b) of a macro channel, LSB first."""
    index = {ci: i for i, ci in enumerate(channel.inputs)}
    bits = [probs[index[c.ref]] if c.op == "leaf" else float(c.op == "const1")
            for c in channel.macro.children]
    w = channel.macro.meta[0]
    return bits[:w], bits[w:]


def _macro_prob(channel: Channel, probs) -> float:
    """P(1) of one sum bit of an ADDM/SUBM channel, by the carry recursion."""
    m = channel.macro
    pa, pb = _operands(channel, probs)
    if m.op == "SUBM":
        pb = [1.0 - y for y in pb]
        pc = 1.0
    else:
        pc = 0.0
    for k in range(m.meta[1] + 1):
        pxor = pa[k] * (1.0 - pb[k]) + (1.0 - pa[k]) * pb[k]
        psum = pxor * (1.0 - pc) + (1.0 - pxor) * pc
        pc = pa[k] * pb[k] + pxor * pc
    return psum


# --------------------------------------------------------------------------
# Design-level propagation

class _Propagator:
    def __init__(self, graph: ChannelGraph, design, input_probs):
        self.graph = graph
        self.input_probs = input_probs
        self.secrets = [(sid, net, bit, input_probs.get((net, bit), 0.5))
                        for net, bit, sid in design.high_bits()]
        self.minent = {sid: source_leakage(p) for sid, _n, _b, p in self.secrets}
        self.source = {(net, bit): {sid: self.minent[sid]} if self.minent[sid] > 0.0 else {}
                       for sid, net, bit, _p in self.secrets}
        self.blocks = {}  # tree root -> its channels, in id order
        for ch in graph.channels:
            self.blocks.setdefault(ch.root, []).append(ch)
        self.chan_prob, self.chan_pbv, self.chan_leak, self.chan_tainted = {}, {}, {}, {}
        # (table, probs, tainted) -> kernel result, for this propagation only;
        # len(probs) fixes the arity, so equal keys give equal results
        self.kernel_memo = {}

    def _kernel(self, ch, probs, tainted):
        """``channel_prob_pbv``, memoised for table channels (a macro
        channel's result depends on its macro node, which the key lacks)."""
        if ch.macro is not None:
            return channel_prob_pbv(ch, probs, tainted)
        key = (ch.table, tuple(probs), tuple(tainted))
        out = self.kernel_memo.get(key)
        if out is None:
            out = self.kernel_memo[key] = channel_prob_pbv(ch, probs, tainted)
        return out

    def run(self, deps: DependencyGraph):
        cyclic = {r for scc in deps.cycles for r in scc}
        regs = [r for scc in deps.order for r in scc if r.role == "register"]
        # what a cycle's first sweep reads
        self.reg_tainted = dict.fromkeys(regs, False)
        self.reg_prob = dict.fromkeys(regs, 0.5)
        self.reg_leak = {r: {} for r in regs}
        for scc in deps.order:
            self._component(scc, scc[0] in cyclic)
        if len(self.chan_prob) != len(self.graph.channels):
            raise ValueError("the dependency graph does not cover every channel's root")

    def _component(self, scc, cyclic):
        """Taint, P(1), PBV and leakage of one SCC's channels and registers.

        Each of the two loops sweeps the SCC's channels until its
        registers settle.  Without a cycle no channel reads the SCC's own
        registers, so one sweep of each is final.  In a cycle, the first
        loop stops at a sweep that moves no register and keeps the values
        that sweep read, so every stored channel value is the kernel of
        the stored register values.
        """
        chans = [ch for root in scc for ch in self.blocks.get(root, ())]
        regs = [r for r in scc if r.role == "register"]
        for _ in range(MAX_FIXPOINT_ITERS):
            for ch in chans:
                probs, tainted = self._inputs(ch)
                self.chan_tainted[ch.cid] = any(tainted)
                self.chan_prob[ch.cid], self.chan_pbv[ch.cid] = self._kernel(
                    ch, probs, tainted)
            if cyclic and self._settled(regs):
                break
            for reg in regs:
                cid = self.graph.root_channel[reg]
                self.reg_tainted[reg] = self.chan_tainted[cid]
                self.reg_prob[reg] = self.chan_prob[cid]
            if not cyclic:
                break
        else:
            raise NonConvergentFixpoint(sorted(regs, key=str))
        for _ in range(MAX_FIXPOINT_ITERS):
            for ch in chans:
                self.chan_leak[ch.cid] = self._leak(ch)
            if self._raise_leak(regs) < LEAK_TOL or not cyclic:
                return
        raise NonConvergentFixpoint(sorted(regs, key=str))

    def _settled(self, regs):
        """No register's root channel has a new taint or a P(1) ``PROB_TOL`` away."""
        for reg in regs:
            cid = self.graph.root_channel[reg]
            if (self.chan_tainted[cid] != self.reg_tainted[reg]
                    or abs(self.chan_prob[cid] - self.reg_prob[reg]) >= PROB_TOL):
                return False
        return True

    def _inputs(self, ch):
        """P(1) and taint of each of ``ch``'s inputs, in input order."""
        probs, tainted = [], []
        for ci in ch.inputs:
            if isinstance(ci, int):
                probs.append(self.chan_prob[ci])
                tainted.append(self.chan_tainted[ci])
            elif ci.role == "register":
                probs.append(self.reg_prob[ci])
                tainted.append(self.reg_tainted[ci])
            else:
                probs.append(self.input_probs.get((ci.net, ci.bit), 0.5))
                tainted.append(ci.role == "input-high")
        return probs, tainted

    def _leak(self, ch):
        incoming = {}
        for ci in ch.inputs:
            if isinstance(ci, int):
                vec = self.chan_leak[ci]
            elif ci.role == "register":
                vec = self.reg_leak[ci]
            elif ci.role == "input-high":
                vec = self.source.get((ci.net, ci.bit), {})
            else:
                continue
            for sid, val in vec.items():
                incoming[sid] = incoming.get(sid, 0.0) + val
        pbv = self.chan_pbv[ch.cid]
        return {sid: v * pbv for sid, v in incoming.items()}

    def _raise_leak(self, regs):
        """Raise each register's vector to its root channel's; return the largest rise."""
        delta = 0.0
        for reg in regs:
            cur = self.reg_leak[reg]
            for sid, val in self.chan_leak[self.graph.root_channel[reg]].items():
                val = min(val, self.minent[sid])  # bounded: guarantees convergence
                if val > cur.get(sid, 0.0):
                    delta = max(delta, val - cur.get(sid, 0.0))
                    cur[sid] = val
        return delta


def propagate(graph: ChannelGraph, design, input_probs,
              deps: DependencyGraph) -> ProbAnnotatedGraph:
    """Probabilities, PBVs and leakage vectors, one SCC of ``deps`` at a time."""
    prop = _Propagator(graph, design, input_probs or {})
    prop.run(deps)
    return ProbAnnotatedGraph(
        graph=graph, chan_prob=prop.chan_prob, chan_pbv=prop.chan_pbv,
        chan_leak=prop.chan_leak, chan_tainted=prop.chan_tainted,
        reg_prob=prop.reg_prob, reg_leak=prop.reg_leak, secrets=prop.secrets)


def output_contributions(annotated: ProbAnnotatedGraph, design):
    """Per top-output bit: its leakage vector. [(net, bit, {sid: bits})]"""
    out = []
    for name, bit in design.output_bits():
        vec = annotated.reg_leak.get(BitRef(name, bit, "register"))
        if vec is None:
            cid = annotated.graph.root_channel.get(BitRef(name, bit, "top-output"))
            vec = annotated.chan_leak.get(cid, {})
        out.append((name, bit, vec))
    return out


def accumulate_totals(annotated: ProbAnnotatedGraph, design, cap=True) -> dict:
    """Design totals per secret bit id, optionally capped at source min-entropy."""
    totals = {sid: 0.0 for sid, _n, _b, _p in annotated.secrets}
    for _net, _bit, vec in output_contributions(annotated, design):
        for sid, val in vec.items():
            totals[sid] = totals.get(sid, 0.0) + val
    if cap:
        minent = {sid: source_leakage(p) for sid, _n, _b, p in annotated.secrets}
        totals = {sid: min(v, minent.get(sid, v)) for sid, v in totals.items()}
    return totals
