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

from .bitgraph import BindTree, BitRef, Node, compute_dependencies, eval_node, lane_masks
from .channelizer import merge
from .errors import TooLarge
from .frontend.elaborate import ElaboratedDesign, FlatNet
from .qif_engine import accumulate_totals, propagate

ENUMERATION_LIMIT = 24
DEFAULT_UNROLL_CYCLES = 8
LANE_BITS = 16  # input bits per lane block: one unroll evaluates 2^16 assignments


@dataclass
class FlatFunction:
    high_inputs: list  # BitRef
    low_inputs: list  # BitRef
    outputs: list  # (net, bit)
    registers: list  # register BitRefs the forest reads
    next_state: dict  # (net, bit) of a register -> its driving Node, or None
    comb: dict  # (net, bit) of a top output -> its Node
    cycles: int

    def eval(self, h_bits, l_bits):
        values = dict(zip(self.high_inputs, h_bits))
        values.update(zip(self.low_inputs, l_bits))
        return tuple(self.unroll(values))

    def unroll(self, values, ones=1, memo=None):
        """Every output bit of every cycle, with the inputs bound in ``values``.

        Registers start at 0 and inputs are held constant.  With lane masks
        in ``values`` and ``ones`` the all-lanes mask, each output is a mask
        over every lane at once.  ``memo`` goes to ``eval_node`` and is
        emptied whenever the registers change.
        """
        def load(state):
            for ref in self.registers:
                values[ref] = state[(ref.net, ref.bit)]
            if memo is not None:
                memo.clear()

        state = dict.fromkeys(self.next_state, 0)
        load(state)
        obs = []
        for _ in range(self.cycles):
            state = {key: state[key] if node is None
                     else eval_node(node, values, ones, memo)
                     for key, node in self.next_state.items()}
            load(state)
            obs += [state[key] if key in state
                    else eval_node(self.comb[key], values, ones, memo)
                    for key in self.outputs]
        return obs


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


def flatten_forest(forest, design: ElaboratedDesign,
                   cycles=DEFAULT_UNROLL_CYCLES) -> FlatFunction:
    """Exact multi-cycle semantics of a bind forest.

    Sequential designs are unrolled ``cycles`` steps from the all-zero
    register state with inputs held constant; the observation is the
    concatenation of every output bit over every cycle, which
    upper-bounds a single random-moment observation.
    """
    highs, lows, regs = _leaf_refs(forest)
    next_state = {(t.root.net, t.root.bit): t.node for t in forest
                  if t.root.role == "register"}
    for r in regs:
        next_state.setdefault((r.net, r.bit), None)

    comb = {(t.root.net, t.root.bit): t.node for t in forest
            if t.root.role == "top-output"}
    return FlatFunction(highs, lows, design.output_bits(), regs, next_state, comb,
                        cycles if next_state else 1)


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


_INT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # memoryview formats by item size


def _lane_keys(columns, lanes):
    """One key per lane, lane 0 first; two lanes share a key iff every column agrees.

    The binary digits of eight columns at a time become one byte per lane,
    and up to eight such bytes are packed into one int per lane.
    """
    digits = f"0{lanes}b"
    low_bit = int.from_bytes(b"\x01" * lanes, "little")
    packed = []
    for g in range(0, len(columns) or 1, 8):
        acc = 0
        for k, col in enumerate(columns[g:g + 8]):
            acc |= (int.from_bytes(format(col, digits).encode(), "big") & low_bit) << k
        packed.append(acc.to_bytes(lanes, "little"))
    if len(packed) > 8:
        return list(zip(*packed))
    width = 1 << (len(packed) - 1).bit_length()
    buf = bytearray(lanes * width)
    for k, part in enumerate(packed):
        buf[k::width] = part
    return memoryview(buf).cast(_INT_CODES[width]).tolist()


def exact_posterior_vulnerability(f: FlatFunction, probs=None) -> float:
    """Sum over (outputs, lows) of the best secret guess, full enumeration.

    Assignments are evaluated bit-parallel.  Of the input bits, highs
    first, the first ``LANE_BITS`` are bound to lane masks, so one
    ``unroll`` gives every output over a block of lanes, and the rest are
    bound to constants in an outer loop over blocks.  Lanes thus run in
    the order of the assignment-at-a-time enumeration, and the blocks of
    one assignment of the outer low bits are adjacent.  A bit of prior 0
    or 1 has one assignment of nonzero mass; it is bound to that constant
    instead of enumerated.
    """
    nh, nl = len(f.high_inputs), len(f.low_inputs)
    if nh + nl > ENUMERATION_LIMIT:
        raise TooLarge(nh + nl, ENUMERATION_LIMIT)
    refs = f.high_inputs + f.low_inputs
    priors = list(zip(refs, _bit_probs(refs, probs)))
    free = [(ref, p) for ref, p in priors if p not in (0.0, 1.0)]
    lane, outer = free[:LANE_BITS], free[LANE_BITS:]
    lanes = 1 << len(lane)
    ones = (1 << lanes) - 1
    values = {ref: ones if p else 0 for ref, p in priors if p in (0.0, 1.0)}
    values.update(zip((ref for ref, _ in lane), lane_masks(len(lane))))
    lane_lows = [values[ref] for ref, _ in lane if ref.role == "input-low"]
    # blocks per assignment of the outer low bits
    span = 1 << sum(ref.role == "input-high" for ref, _ in outer)
    uniform = all(p == 0.5 for _, p in free)
    if not uniform:
        lane_mass = [1.0]
        for _, p in lane:
            lane_mass = [m * (1.0 - p) for m in lane_mass] + [m * p for m in lane_mass]
    posterior = 0.0
    for group in range(0, 1 << len(outer), span):
        best = {}  # lane key -> best mass among the group's lanes
        for a in range(group, group + span):
            start = 1.0
            for i, (ref, p) in enumerate(outer):
                bit = (a >> i) & 1
                values[ref] = ones if bit else 0
                start *= p if bit else 1.0 - p
            keys = _lane_keys(f.unroll(values, ones, {}) + lane_lows, lanes)
            if uniform:  # one lane mass, so it is every key's best
                best.update(dict.fromkeys(keys, 0.5 ** len(free)))
                continue
            for key, m in zip(keys, lane_mass):
                mass = start * m
                if mass > best.get(key, 0.0):
                    best[key] = mass
        posterior += sum(best.values())
    return posterior


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
    highs = [BitRef("h", i, "input-high") for i in range(n_high)]
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


# Bound 2 is where the estimate's read-once domination claim holds.  The
# cap is off: the comparison is against the design's joint exact leakage,
# which a per-secret-bit cap would understate.
DIFF_MAX_CHANNEL_INPUTS = 2
DIFF_CAP = False


def differential_run(seed, count, max_bits=12):
    """Compare exact leakage with the approximate total on random circuits."""
    rng = random.Random(seed)
    records = []
    for i in range(count):
        forest, design = random_forest(rng, max_bits)
        deps = compute_dependencies(forest)
        graph = merge(forest, DIFF_MAX_CHANNEL_INPUTS)
        annotated = propagate(graph, design, {}, deps)
        totals = accumulate_totals(annotated, design, cap=DIFF_CAP)
        qmodel = sum(totals.values())
        f = flatten_forest(forest, design)
        _ratio, exact = exact_multiplicative_leakage(f)
        records.append(DiffRecord(i, exact, qmodel))
    return records
