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
component is final before the component is reached.  A component
without a cycle is one bind tree: each of its channels is visited once,
and one 2^k enumeration gives both its output probability and its PBV.
Table channels with equal truth tables, input probabilities and taints
share one enumeration per ``propagate`` call.
Only a sequential cycle iterates: its own channels run the taint and
probability fixpoints (the kernel with an all-False taint, so P(1) only),
one kernel call each for the PBV, and then the elementwise-max leakage
fixpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bitgraph import BitRef, DependencyGraph
from .channelizer import Channel, ChannelGraph
from .errors import ArityMismatch, NonConvergentFixpoint

PROB_TOL = 1e-12
LEAK_TOL = 1e-9
MAX_FIXPOINT_ITERS = 100


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
    guesses.  Masses are added in assignment order.  Macros use closed forms.
    """
    if tainted is None:
        tainted = [not isinstance(ci, int) and ci.role == "input-high"
                   for ci in channel.inputs]
    if channel.macro is not None:
        return _macro_prob(channel, probs), _macro_pbv(channel, probs, tainted)
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
    return p1, sum(best.values()) if secret else 1.0


def _operands(channel: Channel, per_input, const):
    """Operands (a, b) of a macro channel, LSB first: ``per_input[i]`` for
    a bit read from input i, ``const(v)`` for a constant bit v."""
    index = {ci: i for i, ci in enumerate(channel.inputs)}
    bits = [per_input[index[c.ref]] if c.op == "leaf"
            else const(int(c.op == "const1")) for c in channel.macro.children]
    w = channel.macro.meta[0]
    return bits[:w], bits[w:]


def _macro_prob(channel: Channel, probs) -> float:
    m = channel.macro
    width, out_bit = m.meta
    pa, pb = _operands(channel, probs, float)
    if m.op == "EQM":
        p = 1.0
        for x, y in zip(pa, pb):
            p *= x * y + (1.0 - x) * (1.0 - y)
        return p
    if m.op == "LTM":
        # MSB first: P(a<b) = sum_i P(equal above i) * P(a_i=0, b_i=1)
        p = 0.0
        eq_above = 1.0
        for i in range(width - 1, -1, -1):
            p += eq_above * (1.0 - pa[i]) * pb[i]
            eq_above *= pa[i] * pb[i] + (1.0 - pa[i]) * (1.0 - pb[i])
        return p
    # ADDM / SUBM: marginal of one sum bit via carry recursion
    if m.op == "SUBM":
        pb = [1.0 - y for y in pb]
        pc = 1.0
    else:
        pc = 0.0
    for k in range(out_bit + 1):
        pxor = pa[k] * (1.0 - pb[k]) + (1.0 - pa[k]) * pb[k]
        psum = pxor * (1.0 - pc) + (1.0 - pxor) * pc
        pc = pa[k] * pb[k] + pxor * pc
    return psum


def _macro_pbv(channel: Channel, probs, tainted) -> float:
    """Closed forms under uniformly distributed secret operands.

    ADD/SUB channels expose the whole sum vector, which is a bijection of
    the secret operand for every fixed observable value, hence PBV 1.
    """
    m = channel.macro
    w = m.meta[0]
    a_taint, b_taint = _operands(channel, tainted, lambda _v: False)
    a_t, b_t = any(a_taint), any(b_taint)
    if not (a_t or b_t):
        return 1.0
    if m.op in ("ADDM", "SUBM"):
        return 1.0
    if m.op == "EQM":
        return 2.0 ** (1 - w)
    # LTM, a < b: one outcome class is empty at the observable boundary
    pa, pb = _operands(channel, probs, float)
    if a_t and not b_t:
        p_empty = 1.0
        for y in pb:
            p_empty *= 1.0 - y  # b == 0: the a<b class vanishes
        return 2.0 ** (1 - w) - 2.0 ** (-w) * p_empty
    if b_t and not a_t:
        p_empty = 1.0
        for x in pa:
            p_empty *= x  # a == all-ones: the a<b class vanishes
        return 2.0 ** (1 - w) - 2.0 ** (-w) * p_empty
    return 2.0 ** (1 - w)


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
        self.reg_prob, self.reg_leak, self.reg_tainted = {}, {}, {}
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
        for scc in deps.order:
            chans = [ch for root in scc for ch in self.blocks.get(root, ())]
            regs = [r for r in scc if r.role == "register"]
            if scc[0] in cyclic:
                self._fixpoints(chans, regs)
                continue
            for ch in chans:
                probs, tainted = self._probs(ch), self._taints(ch)
                self.chan_tainted[ch.cid] = any(tainted)
                self.chan_prob[ch.cid], self.chan_pbv[ch.cid] = self._kernel(
                    ch, probs, tainted)
                self.chan_leak[ch.cid] = self._leak(ch)
            for reg in regs:
                cid = self.graph.root_channel[reg]
                self.reg_tainted[reg] = self.chan_tainted[cid]
                self.reg_prob[reg] = self.chan_prob[cid]
                self.reg_leak[reg] = {}
            self._raise_leak(regs)
        if len(self.chan_prob) != len(self.graph.channels):
            raise ValueError("the dependency graph does not cover every channel's root")

    def _probs(self, ch):
        return [self.chan_prob[ci] if isinstance(ci, int)
                else self.reg_prob.get(ci, 0.5) if ci.role == "register"
                else self.input_probs.get((ci.net, ci.bit), 0.5)
                for ci in ch.inputs]

    def _taints(self, ch):
        return [self.chan_tainted[ci] if isinstance(ci, int)
                else self.reg_tainted.get(ci, False) if ci.role == "register"
                else ci.role == "input-high"
                for ci in ch.inputs]

    def _leak(self, ch):
        incoming = {}
        for ci in ch.inputs:
            if isinstance(ci, int):
                vec = self.chan_leak[ci]
            elif ci.role == "register":
                vec = self.reg_leak.get(ci, {})
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

    def _fixpoints(self, chans, regs):
        """Taint, probability and leakage fixpoints over one sequential cycle."""
        roots = [self.graph.root_channel[r] for r in regs]
        for reg in regs:
            self.reg_tainted[reg], self.reg_prob[reg], self.reg_leak[reg] = False, 0.5, {}
        for _ in range(len(regs) + 1):
            for ch in chans:
                self.chan_tainted[ch.cid] = any(self._taints(ch))
            rising = [r for r, cid in zip(regs, roots)
                      if self.chan_tainted[cid] and not self.reg_tainted[r]]
            if not rising:
                break
            self.reg_tainted.update(dict.fromkeys(rising, True))
        for _ in range(MAX_FIXPOINT_ITERS):
            for ch in chans:
                self.chan_prob[ch.cid] = self._kernel(
                    ch, self._probs(ch), [False] * len(ch.inputs))[0]
            delta = 0.0
            for reg, cid in zip(regs, roots):
                delta = max(delta, abs(self.chan_prob[cid] - self.reg_prob[reg]))
                self.reg_prob[reg] = self.chan_prob[cid]
            if delta < PROB_TOL:
                break
        for ch in chans:
            self.chan_pbv[ch.cid] = self._kernel(ch, self._probs(ch), self._taints(ch))[1]
        for _ in range(MAX_FIXPOINT_ITERS):
            for ch in chans:
                self.chan_leak[ch.cid] = self._leak(ch)
            if self._raise_leak(regs) < LEAK_TOL:
                return
        raise NonConvergentFixpoint(sorted(regs, key=str))


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
    graph = annotated.graph
    out = []
    seq = {(r.net, r.bit) for r in annotated.reg_prob}
    for name, fn in sorted(design.nets.items()):
        if fn.kind != "output":
            continue
        for bit in range(fn.width):
            if (name, bit) in seq:
                vec = annotated.reg_leak.get(BitRef(name, bit, "register"), {})
            else:
                cid = graph.root_channel.get(BitRef(name, bit, "top-output"))
                vec = annotated.chan_leak.get(cid, {}) if cid is not None else {}
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
