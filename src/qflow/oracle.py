"""Exact exhaustive QIF computation for small designs.

Ground truth for validating the approximate cascade: prior/posterior Bayes
vulnerability and multiplicative leakage by full enumeration, plus a
seeded random-circuit differential harness that tallies how often the
exact leakage exceeds the approximate per-secret-bit total.

Enumeration is bit-parallel over lanes.  At uniform priors the posterior
is the number of distinct (observation, low) pairs times one lane's mass;
with at most ``CLASS_BITS`` observed bits the pairs are counted from one
lane mask per observation class, which needs no more than 2^CLASS_BITS
masks and so no cap.  Otherwise each lane gets a packed key, and a group
of blocks holds at most ``KEY_CAP`` distinct keys.
"""

from __future__ import annotations

import math
import random
from ._record import Record
from .bitgraph import CONST0, BindTree, BitRef, Node, eval_order, lane_masks, postorder
from .errors import TooLarge, TooManyObservations
from .frontend.elaborate import ElaboratedDesign, FlatNet
from .pipeline import Config, evaluate
from .qif_engine import DEFAULT_UNROLL_CYCLES, ordered_sum

ENUMERATION_LIMIT = 24
LANE_BITS = 16  # input bits per lane block: one unroll evaluates 2^16 assignments
# distinct (observation, low) keys one group of blocks may hold: an injective
# 20-bit design fits, and the keys held stay below KEY_CAP + 2^LANE_BITS
KEY_CAP = 1 << 20
# observed bits up to which uniform priors count observation classes as lane
# masks, at most 2^CLASS_BITS of them, instead of one key per lane
CLASS_BITS = 6


class FlatFunction(Record):
    __slots__ = ("high_inputs", "low_inputs", "observations", "order")

    def __init__(self, high_inputs: list, low_inputs: list, observations: list, order: list):
        self.high_inputs = high_inputs  # BitRef
        self.low_inputs = low_inputs  # BitRef
        self.observations = observations  # Node per observed bit: every output bit of every cycle
        self.order = order  # postorder of the observations

    def eval(self, h_bits, l_bits):
        values = dict(zip(self.high_inputs, h_bits))
        values.update(zip(self.low_inputs, l_bits))
        return tuple(self.unroll(values))

    def unroll(self, values, ones=1):
        """Every observed bit, with the inputs bound in ``values``.

        With lane masks in ``values`` and ``ones`` the all-lanes mask, each
        observation is a mask over every lane at once.
        """
        val = eval_order(self.order, values, ones)
        return [val[n] for n in self.observations]


def _substitute(order, leaves):
    """Each node of a ``postorder`` list with the leaves whose refs key
    ``leaves`` replaced by their nodes; a node that reads none is itself."""
    new = {}
    for node in order:
        kids = tuple(new[c] for c in node.children)  # == compares nodes by identity
        new[node] = (leaves.get(node.ref, node) if node.op == "leaf" else node
                     if kids == node.children else Node(node.op, kids, node.ref, node.meta))
    return new


def flatten_forest(forest, design: ElaboratedDesign,
                   cycles=DEFAULT_UNROLL_CYCLES) -> FlatFunction:
    """Exact multi-cycle semantics of a bind forest, as one DAG over its inputs.

    Sequential designs are unrolled ``cycles`` steps from the all-zero
    register state with inputs held constant: each cycle substitutes the
    previous cycle's register nodes (``CONST0`` at the start) into the
    next-state roots, then the new register nodes into the output roots.
    A node that reads no register stays itself, shared by every cycle.
    The observation is every output bit of every cycle, in
    ``design.output_bits()`` order, which upper-bounds a single
    random-moment observation.  A combinational design observes its
    output roots once.
    """
    leaves = sorted({n.ref for n in postorder(t.node for t in forest) if n.op == "leaf"})
    highs, lows = ([r for r in leaves if r.role == role] for role in ("input-high", "input-low"))
    roots = {(t.root.net, t.root.bit): t for t in forest}
    outputs = [roots[key] for key in design.output_bits()]
    steps = [t for t in forest if t.root.role == "register"]
    if not steps:
        observations = [t.node for t in outputs]
        return FlatFunction(highs, lows, observations, postorder(observations))
    # an output register is observed as its value, a leaf the cycles substitute
    reads = [t.node if t.root.role == "top-output" else Node("leaf", ref=t.root)
             for t in outputs]
    step_order, read_order = postorder(t.node for t in steps), postorder(reads)
    state = dict.fromkeys((t.root for t in steps), CONST0)
    observations = []
    for _ in range(cycles):
        new = _substitute(step_order, state)
        state = {t.root: new[t.node] for t in steps}
        new = _substitute(read_order, state)
        observations += [new[n] for n in reads]
    return FlatFunction(highs, lows, observations, postorder(observations))


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


def _pack(columns, lanes, planes, first=0):
    """OR lane columns into byte planes, one byte per lane, lane 0 lowest.

    Column ``first + i`` becomes bit ``(first + i) % 8`` of each lane's
    byte in plane ``(first + i) // 8``; ``planes`` is changed in place and
    returned.
    """
    digits = f"0{lanes}b"
    low_bit = int.from_bytes(b"\x01" * lanes, "little")
    for i, col in enumerate(columns, first):
        planes[i >> 3] |= (int.from_bytes(format(col, digits).encode(), "big")
                           & low_bit) << (i & 7)
    return planes


def _lane_keys(planes, lanes):
    """One key per lane, lane 0 first: its byte of every plane, interleaved.

    Two lanes share a key iff every packed column agrees.  One plane gives
    byte keys, up to eight give ints of 2, 4 or 8 bytes, and more give
    tuples of bytes.
    """
    packed = [p.to_bytes(lanes, "little") for p in planes]
    if len(packed) == 1:
        return packed[0]
    if len(packed) > 8:
        return list(zip(*packed))
    width = 1 << (len(packed) - 1).bit_length()
    buf = bytearray(lanes * width)
    for k, part in enumerate(packed):
        buf[k::width] = part
    return memoryview(buf).cast(_INT_CODES[width])


def _classes(columns, ones):
    """The lanes of each observation: ``{value: lane mask}``, no mask empty.

    Bit ``i`` of a value is the lane's bit in ``columns[i]``; starting from
    every lane in value 0, each column splits each class in two.
    """
    classes = {0: ones}
    for i, col in enumerate(columns):
        split = {}
        for value, lanes in classes.items():
            hit = lanes & col
            if hit:
                split[value | 1 << i] = hit
            if hit != lanes:
                split[value] = lanes ^ hit
        classes = split
    return classes


def _class_count(blocks, width, ones):
    """Distinct (observation, low) pairs of one group, by lane masks.

    The lanes fall into blocks of ``width`` that share their lane-bound
    lows, so a class holds one pair per block it touches.  Folding each
    block onto its first lane (``log2(width)`` shift-ORs) and counting the
    set first lanes counts them; when one block spans every lane there is
    no fold, and each class is one pair.  A group of several unrolls has
    outer highs, so every lane-bound bit is a high and one block spans
    every lane: only the values of its unrolls' classes count, not their
    masks.
    """
    classes = {}
    for _start, columns in blocks:
        classes.update(_classes(columns, ones))
    if width == ones.bit_length():
        return len(classes)
    firsts = ones // ((1 << width) - 1)  # the first lane of every block
    count = 0
    for lanes in classes.values():
        shift = 1
        while shift < width:
            lanes |= lanes >> shift
            shift <<= 1
        count += (lanes & firsts).bit_count()
    return count


def exact_posterior_vulnerability(f: FlatFunction, probs=None) -> float:
    """Sum over (outputs, lows) of the best secret guess, full enumeration.

    Assignments are evaluated bit-parallel.  Of the input bits, highs
    first, the first ``LANE_BITS`` are bound to lane masks, so one
    ``unroll`` gives every output over a block of lanes, and the rest are
    bound to constants in an outer loop over blocks.  Lanes thus run in
    the order of the assignment-at-a-time enumeration, and the blocks of
    one assignment of the outer low bits are adjacent and form a group.
    A bit of prior 0 or 1 has one assignment of nonzero mass; it is bound
    to that constant instead of enumerated.

    When every free bit has prior 0.5 each lane has the mass
    ``m = 0.5 ** len(free)``, so a group adds ``k * m`` for its ``k``
    distinct (observation, low) pairs.  That is bit-identical to adding
    each pair's mass in order: ``m`` is a power of two, so each partial
    sum is exact.  With at most ``CLASS_BITS`` observed bits the pairs are
    counted from one lane mask per observation value (``_class_count``),
    split out of the all-lanes mask by each observed column.  Highs take
    the low lane-index bits, so a pair is a block of
    ``2 ** (lane-bound highs)`` lanes that a value's mask touches.  At
    most ``2 ** CLASS_BITS`` masks of one block are live, and a group
    holds at most ``2 ** LANE_BITS`` pairs (with outer highs a block spans
    every lane and each value is one pair), so this count needs no cap.

    Otherwise a lane's key packs its outputs and its lane-bound lows, so a
    group's keys are its (observation, low) pairs.  The low columns are
    the same lane masks in every block: they are packed once per call, the
    outputs once per block.  At uniform priors a group keeps a set of keys
    and adds ``len(keys) * m``; under other priors it keeps each key's
    best mass, met in lane order, and adds them with ``ordered_sum``.
    Raises ``TooManyObservations`` when a group holds more than
    ``KEY_CAP`` keys after a block, which bounds the memory at
    ``KEY_CAP`` plus one block of keys.
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
    # blocks per assignment of the outer low bits
    span = 1 << sum(ref.role == "input-high" for ref, _ in outer)

    def blocks(group):
        """Each block of a group, in lane order: (the mass of its outer
        bits, its observed columns)."""
        for a in range(group, group + span):
            start = 1.0
            for i, (ref, p) in enumerate(outer):
                bit = (a >> i) & 1
                values[ref] = ones if bit else 0
                start *= p if bit else 1.0 - p
            yield start, f.unroll(values, ones)

    groups = (blocks(group) for group in range(0, 1 << len(outer), span))
    uniform = all(p == 0.5 for _, p in free)
    if uniform and len(f.observations) <= CLASS_BITS:
        width = 1 << sum(ref.role == "input-high" for ref, _ in lane)
        posterior = 0.0
        for group in groups:
            posterior += _class_count(group, width, ones) * 0.5 ** len(free)
        return posterior
    lane_lows = [values[ref] for ref, _ in lane if ref.role == "input-low"]
    columns = len(f.observations) + len(lane_lows)
    low_planes = _pack(lane_lows, lanes, [0] * ((columns + 7) // 8 or 1),
                       first=columns - len(lane_lows))
    if not uniform:
        lane_mass = [1.0]
        for _, p in lane:
            lane_mass = [m * (1.0 - p) for m in lane_mass] + [m * p for m in lane_mass]
    posterior = 0.0
    for group in groups:
        best = set() if uniform else {}  # lane keys, or lane key -> best mass
        for start, observed in group:
            keys = _lane_keys(_pack(observed, lanes, list(low_planes)), lanes)
            if uniform:
                best.update(keys)
            else:
                for key, m in zip(keys, lane_mass):
                    mass = start * m
                    if mass > best.get(key, 0.0):
                        best[key] = mass
            if len(best) > KEY_CAP:
                raise TooManyObservations(len(best), KEY_CAP)
        posterior += len(best) * 0.5 ** len(free) if uniform else ordered_sum(best.values())
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


class DiffRecord(Record):
    __slots__ = ("index", "exact_bits", "qmodel_bits")

    def __init__(self, index: int, exact_bits: float, qmodel_bits: float):
        self.index = index
        self.exact_bits = exact_bits
        self.qmodel_bits = qmodel_bits

    @property
    def dominated(self):
        return self.exact_bits <= self.qmodel_bits + 1e-9


# Bound 2 is where the estimate's read-once domination claim holds.  The
# cap is off: the comparison is against the design's joint exact leakage,
# which a per-secret-bit cap would understate.
DIFF_CONFIG = Config([], "synthetic", max_channel_inputs=2, cap=False)


def differential_run(seed, count, max_bits=12):
    """Compare exact leakage with the approximate total on random circuits."""
    rng = random.Random(seed)
    records = []
    for i in range(count):
        forest, design = random_forest(rng, max_bits)
        qmodel = ordered_sum(evaluate(design, forest, DIFF_CONFIG).totals.values())
        f = flatten_forest(forest, design)
        _ratio, exact = exact_multiplicative_leakage(f)
        records.append(DiffRecord(i, exact, qmodel))
    return records
