"""Exact exhaustive QIF computation for small designs.

Ground truth for validating the approximate cascade: prior/posterior Bayes
vulnerability and multiplicative leakage by full enumeration, plus a
seeded random-circuit differential harness that tallies how often the
exact leakage exceeds the approximate per-secret-bit total.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bitgraph import BindTree, BitRef, Node, compute_dependencies, eval_node
from .channelizer import merge
from .errors import TooLarge
from .frontend.elaborate import ElaboratedDesign, FlatNet
from .qif_engine import accumulate_totals, propagate

ENUMERATION_LIMIT = 24
DEFAULT_UNROLL_CYCLES = 8


@dataclass
class FlatFunction:
    high_inputs: list  # BitRef
    low_inputs: list  # BitRef
    outputs: list  # (net, bit)
    fn: object  # (h_bits tuple, l_bits tuple) -> tuple of output bits

    def eval(self, h_bits, l_bits):
        return self.fn(tuple(h_bits), tuple(l_bits))


def _leaf_refs(forest):
    highs, lows, regs = {}, {}, {}
    for tree in forest:
        for leaf in tree.leaves():
            key = (leaf.net, leaf.bit)
            if leaf.role == "input-high":
                highs[key] = leaf
            elif leaf.role == "input-low":
                lows[key] = leaf
            elif leaf.role == "register":
                regs[key] = leaf
    return (sorted(highs.values(), key=lambda r: (r.net, r.bit)),
            sorted(lows.values(), key=lambda r: (r.net, r.bit)),
            sorted(regs.values(), key=lambda r: (r.net, r.bit)))


def flatten_forest(forest, design: ElaboratedDesign | None = None,
                   cycles=DEFAULT_UNROLL_CYCLES) -> FlatFunction:
    """Exact multi-cycle semantics of a bind forest.

    Sequential designs are unrolled ``cycles`` steps from the all-zero
    register state with inputs held constant; the observation is the
    concatenation of every output bit over every cycle, which
    upper-bounds a single random-moment observation.
    """
    highs, lows, regs = _leaf_refs(forest)
    reg_roots = {(t.root.net, t.root.bit): t for t in forest
                 if t.root.role == "register"}
    for key in {(r.net, r.bit) for r in regs}:
        reg_roots.setdefault(key, None)

    if design is not None:
        output_bits = []
        for name, fn in sorted(design.nets.items()):
            if fn.kind == "output":
                output_bits.extend((name, b) for b in range(fn.width))
    else:
        output_bits = sorted((t.root.net, t.root.bit) for t in forest
                             if t.root.role == "top-output")
    comb_roots = {(t.root.net, t.root.bit): t for t in forest
                  if t.root.role == "top-output"}
    sequential = bool(reg_roots)
    n_cycles = cycles if sequential else 1

    def fn(h_bits, l_bits):
        values = {}
        for ref, v in zip(highs, h_bits):
            values[ref] = v
        for ref, v in zip(lows, l_bits):
            values[ref] = v
        state = {key: 0 for key in reg_roots}
        obs = []
        for _ in range(n_cycles):
            for ref in regs:
                values[ref] = state[(ref.net, ref.bit)]
            nxt = {}
            for key, tree in reg_roots.items():
                nxt[key] = eval_node(tree.node, values) if tree is not None else state[key]
            state = nxt
            for ref in regs:
                values[ref] = state[(ref.net, ref.bit)]
            for key in output_bits:
                if key in reg_roots:
                    obs.append(state[key])
                else:
                    obs.append(eval_node(comb_roots[key].node, values))
        return tuple(obs)

    return FlatFunction(highs, lows, output_bits, fn)


def _bit_probs(refs, probs):
    probs = probs or {}
    return [probs.get((r.net, r.bit), 0.5) for r in refs]


def exact_prior_vulnerability(high_probs) -> float:
    """Best single guess before observation, independent bit product."""
    if len(high_probs) > ENUMERATION_LIMIT:
        raise TooLarge(len(high_probs), ENUMERATION_LIMIT)
    v = 1.0
    for p in high_probs:
        v *= max(p, 1.0 - p)
    return v


def exact_posterior_vulnerability(f: FlatFunction, probs=None) -> float:
    """Sum over (outputs, lows) of the best secret guess, full enumeration."""
    nh, nl = len(f.high_inputs), len(f.low_inputs)
    if nh + nl > ENUMERATION_LIMIT:
        raise TooLarge(nh + nl, ENUMERATION_LIMIT)
    hp = _bit_probs(f.high_inputs, probs)
    lp = _bit_probs(f.low_inputs, probs)
    best = {}
    for la in range(1 << nl):
        l_bits = tuple((la >> i) & 1 for i in range(nl))
        lmass = 1.0
        for i, b in enumerate(l_bits):
            lmass *= lp[i] if b else 1.0 - lp[i]
        if lmass == 0.0:
            continue
        for ha in range(1 << nh):
            h_bits = tuple((ha >> i) & 1 for i in range(nh))
            mass = lmass
            for i, b in enumerate(h_bits):
                mass *= hp[i] if b else 1.0 - hp[i]
            if mass == 0.0:
                continue
            key = (f.eval(h_bits, l_bits), l_bits)
            if mass > best.get(key, 0.0):
                best[key] = mass
    return sum(best.values())


def exact_multiplicative_leakage(f: FlatFunction, probs=None):
    """(posterior/prior ratio, its log2 in bits)."""
    prior = exact_prior_vulnerability(_bit_probs(f.high_inputs, probs))
    posterior = exact_posterior_vulnerability(f, probs)
    ratio = posterior / prior
    return ratio, math.log2(ratio)


# --------------------------------------------------------------------------
# Differential harness

_GATE_OPS = ("AND", "OR", "XOR")


def synthetic_design(n_high, n_low, n_outputs) -> ElaboratedDesign:
    design = ElaboratedDesign(top="synthetic")
    design.nets["h"] = FlatNet("h", n_high, "input")
    design.labels["h"] = "high"
    if n_low:
        design.nets["l"] = FlatNet("l", n_low, "input")
        design.labels["l"] = "low"
    for k in range(n_outputs):
        design.nets[f"o{k}"] = FlatNet(f"o{k}", 1, "output")
    return design


def _random_tree(rng: random.Random, high_refs, low_refs):
    """Random read-once gate tree; low bits mix in through XOR only."""
    nodes = [(Node("leaf", ref=r), True) for r in high_refs]
    nodes += [(Node("leaf", ref=r), False) for r in low_refs]
    while len(nodes) > 1:
        a, ta = nodes.pop(rng.randrange(len(nodes)))
        b, tb = nodes.pop(rng.randrange(len(nodes)))
        op = rng.choice(_GATE_OPS) if ta and tb else "XOR"
        node = Node(op, (a, b))
        if rng.random() < 0.2:
            node = Node("NOT", (node,))
        nodes.append((node, ta or tb))
    node, _tainted = nodes[0]
    return node


def random_forest(rng: random.Random, max_bits=12):
    """A random combinational circuit over <= max_bits labeled input bits.

    Each output is a read-once tree (an input bit feeds any one tree at
    most once) and low inputs enter a tree only through XOR gates, so
    sealed sub-channels have disjoint supports and no attenuating gate
    sits on a low-mixing path.  Outputs still share input bits freely.
    Reconvergent fanout and low-mixing AND/OR gates break the cascade's
    over-approximation and are excluded here on purpose; the harness
    measures the claim on the structures the model is built for.
    """
    n_high = rng.randint(1, min(4, max_bits - 1))
    n_low = rng.randint(0, min(4, max_bits - n_high))
    highs = [BitRef("h", i, "input-high", i) for i in range(n_high)]
    lows = [BitRef("l", i, "input-low") for i in range(n_low)]
    forest = []
    for k in range(rng.randint(1, 4)):
        th = rng.sample(highs, rng.randint(1, n_high))
        tl = rng.sample(lows, rng.randint(0, n_low)) if lows else []
        forest.append(BindTree(BitRef(f"o{k}", 0, "top-output"),
                               _random_tree(rng, th, tl)))
    design = synthetic_design(n_high, n_low, len(forest))
    return forest, design


@dataclass
class DiffRecord:
    index: int
    exact_bits: float
    qmodel_bits: float

    @property
    def dominated(self):
        return self.exact_bits <= self.qmodel_bits + 1e-9


def differential_run(seed, count, max_bits=12, max_channel_inputs=2, cap=False):
    """Compare exact leakage with the approximate total on random circuits.

    The cap is off by default: the comparison is against the design's
    joint exact leakage, which a per-secret-bit cap would understate.
    """
    rng = random.Random(seed)
    records = []
    for i in range(count):
        forest, design = random_forest(rng, max_bits)
        deps = compute_dependencies(forest)
        graph = merge(forest, deps, max_channel_inputs)
        annotated = propagate(graph, design, {}, deps)
        totals = accumulate_totals(annotated, design, cap=cap)
        qmodel = sum(totals.values())
        f = flatten_forest(forest, design)
        _ratio, exact = exact_multiplicative_leakage(f)
        records.append(DiffRecord(i, exact, qmodel))
    return records
