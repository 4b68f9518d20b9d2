"""QModel execution: probabilities, posterior Bayes vulnerability, leakage.

One kernel, ``channel_prob_pbv``, gives a channel's output probability
and its posterior Bayes vulnerability (PBV) with observable low inputs:
the sum over observable configurations of the best single guess of the
secret-carrying inputs, under the independence assumption.  A table
channel takes both from one pass over the assignments of its packed
truth table; no joint table is built.  Leakage cascades by summing
incoming per-secret-bit leakage over channel inputs and scaling by the
channel PBV.  Registers pass probabilities and leakage through unchanged.

Propagation, ``propagate``, is one pass over the strongly connected
components of the channel graph, dependencies first: a channel reads its
derived inputs, and a register input is an edge to that register's root
channel.  ``propagate`` creates the ``ProbAnnotatedGraph`` it returns and
fills its dicts as it goes.  One step, a local function, computes a
channel: one loop over its inputs reads each one's (P(1), taint, leakage
vector) by one lookup, ``_kernel`` gives its P(1) and PBV, the summed
leakage is scaled by the PBV, and every register whose root channel it
is takes the same values, its leakage capped at each secret's source
min-entropy.  A channel with one leaking input keeps that vector itself
unless its PBV is not 1, and a register its channel's unless a value is
over its cap: stored vectors are shared, so none is changed once stored.
A single channel that does not read itself through a register is one
step.  A sequential cycle covers the oracle's horizon,
``DEFAULT_UNROLL_CYCLES`` cycles from reset: the registers it reads back
start at P(1) = 0, tainted iff a tainted input enters the cycle, with
every entering secret at its cap, and the step sweeps the cycle's
channels that many times; before each sweep after the first, those
registers take their root channel's P(1).  Table channels with equal
truth tables, input probabilities and taints share one enumeration per
``propagate`` call, through the memo that ``propagate`` hands ``_kernel``.
"""

from __future__ import annotations

import functools
import math
import operator

from ._record import Record
from .bitgraph import _bitref
from .channelizer import Channel, ChannelGraph
from .errors import ArityMismatch

# cycles from reset that a register cycle and the oracle's unroll both cover
DEFAULT_UNROLL_CYCLES = 8


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


class ProbAnnotatedGraph(Record):
    __slots__ = ("graph", "chan_prob", "chan_pbv", "chan_leak", "chan_tainted", "reg_prob",
                 "reg_leak", "secrets")

    def __init__(self, graph: ChannelGraph, secrets: list):
        self.graph = graph
        self.chan_prob = {}  # cid -> p1
        self.chan_pbv = {}  # cid -> V1
        self.chan_leak = {}  # cid -> {sid: bits}
        self.chan_tainted = {}  # cid -> bool
        self.reg_prob = {}  # register BitRef -> p1
        self.reg_leak = {}  # register BitRef -> {sid: bits}
        self.secrets = secrets  # (sid, net, bit, p_source)


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
# The channel dependency graph

class DependencyGraph(Record):
    __slots__ = ("edges", "cycles", "order")

    def __init__(self):
        self.edges = set()  # (channel id, register it reads)
        self.cycles = []  # id sets: SCCs of size>1 and self-loops
        self.order = []  # every SCC as a list of ids, dependencies first


def compute_dependencies(graph: ChannelGraph) -> DependencyGraph:
    """Each channel's reads, in input order: its derived inputs, and for a
    register input, that register's root channel.  A plain walk gives the
    order unless it meets a cycle; then Tarjan's does, and flags the
    sequential cycles for the 8-cycle sweeps."""
    deps, adj = DependencyGraph(), []
    root_channel, edges = graph.root_channel, deps.edges
    for ch in graph.channels:
        reads = []
        for ci in ch.inputs:
            if type(ci) is int:
                reads.append(ci)
            elif ci.role == "register":
                reads.append(root_channel[ci])
                edges.add((ch.cid, ci))
        adj.append(reads)
    deps.order = _finish_order(adj)
    if deps.order is None:  # a cycle
        deps.order = _sccs(adj)
        deps.cycles = [set(scc) for scc in deps.order
                       if len(scc) > 1 or scc[0] in adj[scc[0]]]
    return deps


def _finish_order(adj):
    """``_sccs(adj)`` for a graph without cycles, from the same walk without
    low links or a stack; None as soon as the walk meets a cycle."""
    num, out = [-1] * len(adj), []  # -1 unmet, 0 on the walk's path, 1 finished
    for start in range(len(adj)):
        if num[start] >= 0:
            continue
        if not adj[start]:
            num[start] = 1
            out.append([start])
            continue
        num[start] = 0
        work = [(start, iter(adj[start]))]
        while work:
            v, it = work[-1]
            for w in it:
                if num[w] < 0:  # descend into w
                    num[w] = 0
                    work.append((w, iter(adj[w])))
                    break
                if not num[w]:
                    return None
            else:  # v is finished
                work.pop()
                num[v] = 1
                out.append([v])
    return out


def _sccs(adj):
    """Tarjan, iterative, from vertex 0 up, following each vertex's
    successors in list order; each SCC comes after every SCC it reaches.
    A vertex without successors is its own SCC as soon as it is met."""
    n = len(adj)
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    count, stack, out = 0, [], []
    for start in range(n):
        if index[start] >= 0:
            continue
        index[start] = low[start] = count
        count += 1
        if not adj[start]:
            out.append([start])
            continue
        stack.append(start)
        on_stack[start] = True
        work = [(start, iter(adj[start]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:  # descend into w
                    index[w] = low[w] = count
                    count += 1
                    if not adj[w]:  # w is finished, and low[v] <= index[w]
                        out.append([w])
                        continue
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:  # v is finished
                work.pop()
                lv = low[v]
                if work:
                    pv = work[-1][0]
                    if lv < low[pv]:
                        low[pv] = lv
                if lv == index[v]:  # v roots an SCC: the stack down to v
                    w = stack.pop()
                    on_stack[w] = False
                    scc = [w]
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = False
                        scc.append(w)
                    out.append(scc)
    return out


# --------------------------------------------------------------------------
# Design-level propagation

def _kernel(memo, ch, probs, tainted):
    """``channel_prob_pbv``, memoised in ``memo`` for table channels (a
    macro channel's result depends on its macro node, which the key lacks).
    ``len(key)`` fixes the arity, so equal keys give equal results."""
    if ch.macro is not None:
        return channel_prob_pbv(ch, probs, tainted)
    key = (ch.table, *probs, *tainted)
    out = memo.get(key)
    if out is None:
        out = memo[key] = channel_prob_pbv(ch, probs, tainted)
    return out


def propagate(graph: ChannelGraph, design, input_probs,
              deps: DependencyGraph) -> ProbAnnotatedGraph:
    """Probabilities, PBVs and leakage vectors, one SCC of ``deps`` at a time;
    ``deps`` is ``compute_dependencies(graph)``."""
    input_probs = input_probs or {}
    secrets = [(sid, net, bit, input_probs.get((net, bit), 0.5))
               for net, bit, sid in design.high_bits()]
    out = ProbAnnotatedGraph(graph=graph, secrets=secrets)
    minent = {sid: source_leakage(p) for sid, _n, _b, p in secrets}
    # channel id or bit -> (P(1), taint, leakage vector): a secret bit's from
    # the start, a channel's and a register's once computed; a low bit has none
    val = {_bitref((net, bit, "input-high")):
           (p, True, {sid: minent[sid]} if minent[sid] > 0.0 else {})
           for sid, net, bit, p in secrets}
    channels, root_channel = graph.channels, graph.root_channel
    chan_prob, chan_pbv, chan_leak, chan_tainted = (
        out.chan_prob, out.chan_pbv, out.chan_leak, out.chan_tainted)
    reg_prob, reg_leak = out.reg_prob, out.reg_leak
    memo = {}  # (table, *probs, *tainted) -> kernel result, for this propagation only
    # cid -> its cycle's channels in id order, and the registers the cycle reads back
    loops, looped = {}, set()
    for cycle in deps.cycles:
        chans = [channels[cid] for cid in sorted(cycle)]
        regs = list(dict.fromkeys(
            ci for ch in chans for ci in ch.inputs
            if type(ci) is not int and ci.role == "register"
            and root_channel[ci] in cycle))
        loops.update(dict.fromkeys(cycle, (cycle, chans, regs)))
        looped.update(regs)
    held = {}  # cid -> the registers whose root channel it is and no cycle reads back
    for root, cid in root_channel.items():
        if root.role == "register" and root not in looped:
            held.setdefault(cid, []).append(root)

    def step(ch):
        """Channel ``ch``'s taint, P(1), PBV and leakage from its inputs'
        values, and the same values for the registers it holds, its
        leakage capped at each secret's source min-entropy."""
        cid = ch.cid
        probs, tainted, vecs = [], [], []
        for ci in ch.inputs:
            v = val.get(ci)
            if v is not None:
                p, t, vec = v
            elif ci.role == "input-low":
                p, t, vec = input_probs.get(ci[:2], 0.5), False, None
            else:
                raise KeyError(ci)  # a register read before its root channel
            probs.append(p)
            tainted.append(t)
            if vec:
                vecs.append(vec)
        p1, pbv = _kernel(memo, ch, probs, tainted)
        taint = True in tainted
        if len(vecs) == 1:  # the one leaking input's vector, as it is
            leak = vecs[0]
        else:  # summed in input order
            leak = {}
            for vec in vecs:
                for sid, v in vec.items():
                    leak[sid] = leak.get(sid, 0.0) + v
        if pbv != 1.0:  # v * 1.0 is v
            leak = {sid: v * pbv for sid, v in leak.items()}
        chan_tainted[cid], chan_prob[cid], chan_pbv[cid], chan_leak[cid] = taint, p1, pbv, leak
        val[cid] = p1, taint, leak
        regs = held.get(cid)
        if regs:
            capped = leak  # as it is, unless a value is over its cap or not positive
            for sid, v in leak.items():
                if not 0.0 < v <= minent[sid]:
                    capped = {s: c for s, v in leak.items() if (c := min(v, minent[s])) > 0.0}
                    break
            for reg in regs:
                reg_prob[reg], reg_leak[reg], val[reg] = p1, capped, (p1, taint, capped)

    def sweep_cycle(scc, cycle, chans, regs):
        """Taint, P(1), PBV and leakage of a cycle's channels and of the
        registers they read back (``regs``), over the oracle's horizon.
        Those registers start from reset, P(1) = 0; each is tainted iff a
        tainted input enters the cycle from outside, and its leakage is
        each entering secret's source min-entropy, the cap.  Then
        ``DEFAULT_UNROLL_CYCLES`` sweeps run ``step`` over ``chans``, the
        channels in id order; before each sweep after the first, the
        registers take their root channel's P(1).  Every stored channel
        value is the kernel of the stored register values."""
        tainted, sids = False, set()
        for ch in chans:
            for ci in ch.inputs:
                v = val.get(ci)  # none for a low bit
                if v and (ci if type(ci) is int else root_channel.get(ci)) not in cycle:
                    tainted = tainted or v[1]
                    sids.update(v[2])
        top = {sid: minent[sid] for sid in sorted(sids)}
        for reg in regs:  # what the first sweep reads
            reg_prob[reg], reg_leak[reg], val[reg] = 0.0, top, (0.0, tainted, top)
        for cid in scc:  # the other registers it holds come next, in component order
            for reg in held.get(cid, ()):
                reg_prob[reg] = reg_leak[reg] = None
        for sweep in range(DEFAULT_UNROLL_CYCLES):
            if sweep:
                for reg in regs:
                    reg_prob[reg] = p = chan_prob[root_channel[reg]]
                    val[reg] = p, tainted, top
            for ch in chans:
                step(ch)

    for scc in deps.order:
        if scc[0] in loops:
            sweep_cycle(scc, *loops[scc[0]])
        else:
            step(channels[scc[0]])
    if len(chan_prob) != len(channels):
        raise ValueError("the dependency order does not reach every channel")
    return out


def output_contributions(annotated: ProbAnnotatedGraph, design):
    """Per top-output bit: its leakage vector. [(net, bit, {sid: bits})]"""
    reg_leak, chan_leak = annotated.reg_leak, annotated.chan_leak
    root_channel = annotated.graph.root_channel
    out = []
    for name, bit in design.output_bits():
        vec = reg_leak.get(_bitref((name, bit, "register")))
        if vec is None:
            vec = chan_leak.get(root_channel.get(_bitref((name, bit, "top-output"))), {})
        out.append((name, bit, vec))
    return out


def accumulate_totals(annotated: ProbAnnotatedGraph, design, cap=True,
                      contributions=None) -> dict:
    """Design totals per secret bit id, optionally capped at source min-entropy.

    ``contributions`` is ``output_contributions(annotated, design)``, built
    here when the caller has not built it already.
    """
    if contributions is None:
        contributions = output_contributions(annotated, design)
    totals = {sid: 0.0 for sid, _n, _b, _p in annotated.secrets}
    for _net, _bit, vec in contributions:
        for sid, val in vec.items():
            totals[sid] = totals.get(sid, 0.0) + val
    if cap:
        minent = {sid: source_leakage(p) for sid, _n, _b, p in annotated.secrets}
        totals = {sid: min(v, minent.get(sid, v)) for sid, v in totals.items()}
    return totals
