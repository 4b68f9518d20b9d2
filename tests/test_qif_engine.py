"""Probability propagation, posterior vulnerability, leakage cascade."""

import itertools
import math
import random

import pytest

from qflow import corpus, qif_engine
from qflow.bitgraph import EXPAND_LIMIT, BindTree, BitRef, Node, bit_blast, dump_forest
from qflow.channelizer import Channel, merge
from qflow.frontend import SourceUnit, elaborate, extract_labels, parse
from qflow.oracle import exact_multiplicative_leakage, flatten_forest
from qflow.pipeline import Config, analyze
from qflow.qif_engine import (
    DependencyGraph,
    accumulate_totals,
    channel_prob_pbv,
    ordered_sum,
    propagate,
    source_leakage,
)

from conftest import analyze_corpus, analyze_source


def random_table_channel(rng, k):
    table = sum(rng.randint(0, 1) << a for a in range(1 << k))
    inputs = tuple(
        BitRef("x", i, "input-high" if rng.random() < 0.5 else "input-low")
        for i in range(k))
    return Channel(cid=0, inputs=inputs, table=table, macro=None, root=None)


def enum_prob(ch, probs):
    total = 0.0
    k = len(ch.inputs)
    for a in range(1 << k):
        if not (ch.table >> a) & 1:
            continue
        mass = 1.0
        for i in range(k):
            bit = (a >> i) & 1
            mass *= probs[i] if bit else 1.0 - probs[i]
        total += mass
    return total


def enum_pbv(ch, probs):
    if not any(ci.role == "input-high" for ci in ch.inputs):
        return 1.0
    k = len(ch.inputs)
    best = {}
    for a in range(1 << k):
        mass = 1.0
        l_part, h_part = [], []
        for i in range(k):
            bit = (a >> i) & 1
            mass *= probs[i] if bit else 1.0 - probs[i]
            (h_part if ch.inputs[i].role == "input-high" else l_part).append(bit)
        key = ((ch.table >> a) & 1, tuple(l_part))
        cur = best.setdefault(key, {})
        hk = tuple(h_part)
        cur[hk] = cur.get(hk, 0.0) + mass
    return sum(max(d.values()) for d in best.values())


# -- source leakage --------------------------------------------------------

def test_source_leakage_values():
    assert source_leakage(0.5) == 1.0
    assert source_leakage(0.0) == 0.0
    assert source_leakage(1.0) == 0.0
    assert abs(source_leakage(0.75) - 0.4150374992788438) < 1e-12
    assert abs(source_leakage(0.25) - 0.4150374992788438) < 1e-12


# -- worked example --------------------------------------------------------

def test_example_annotations():
    a = analyze_corpus("example.v", "example", max_channel_inputs=3)
    ann = a.annotated
    by_out = {str(root): a.graph.channels[cid]
              for root, cid in a.graph.root_channel.items()}
    o0, o1 = by_out["o[0]"], by_out["o[1]"]
    assert abs(ann.chan_prob[o0.cid] - 0.625) < 1e-12
    assert abs(ann.chan_pbv[o0.cid] - 0.375) < 1e-12
    assert ann.chan_prob[o1.cid] == 1.0
    assert abs(ann.chan_pbv[o1.cid] - 0.25) < 1e-12
    assert all(abs(v - 0.625) < 1e-9 for v in a.totals.values())


def test_sums_round_each_add_on_every_python():
    # the builtin sum compensates float rounding from Python 3.12 on
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum(iter([0.1] * 10)) == 0.9999999999999999
    assert ordered_sum([]) == 0
    # o[0]'s PBV is a sum whose last bit the builtin moves on 3.12
    a = analyze_corpus("example.v", "example", max_channel_inputs=3, p_high=0.9)
    assert [repr(s.paths[0][2]) for s in a.report.secrets] == ["0.1299626448955177"] * 2


def test_xor_of_two_secrets():
    a = analyze_source("""module m(High input [1:0] h, output y);
assign y = h[0] ^ h[1];
endmodule
""", "m")
    ann = a.annotated
    root = a.graph.channels[-1]
    assert abs(ann.chan_pbv[root.cid] - 0.5) < 1e-12
    assert a.totals == {0: 0.5, 1: 0.5}


def test_identity_neutrality():
    a = analyze_source("""module m(High input h, output y);
assign y = h;
endmodule
""", "m")
    root = a.graph.channels[-1]
    assert a.annotated.chan_pbv[root.cid] == 1.0
    assert a.totals == {0: 1.0}


def test_untainted_channel_pbv_is_one():
    a = analyze_source("""module m(High input h, input [1:0] l, output y, output z);
assign y = l[0] & l[1];
assign z = h;
endmodule
""", "m")
    for ch in a.graph.channels:
        if not a.annotated.chan_tainted[ch.cid]:
            assert a.annotated.chan_pbv[ch.cid] == 1.0


# -- per-channel exactness -------------------------------------------------

def test_channel_exactness_small_sample():
    rng = random.Random(5)
    for _ in range(100):
        ch = random_table_channel(rng, rng.randint(1, 5))
        probs = [rng.random() for _ in ch.inputs]
        p1, pbv = channel_prob_pbv(ch, probs)
        assert abs(p1 - enum_prob(ch, probs)) < 1e-12
        assert abs(pbv - enum_pbv(ch, probs)) < 1e-12


def test_pbv_bounds():
    rng = random.Random(6)
    for _ in range(100):
        ch = random_table_channel(rng, rng.randint(1, 5))
        probs = [rng.random() for _ in ch.inputs]
        prior = 1.0
        for p, ci in zip(probs, ch.inputs):
            if ci.role == "input-high":
                prior *= max(p, 1.0 - p)
        _p1, pbv = channel_prob_pbv(ch, probs)
        assert prior - 1e-12 <= pbv <= 1.0 + 1e-12


# -- add/sub macro closed forms -------------------------------------------

def macro_design(expr, w):
    """The forest and channels of ``o = expr`` over a secret ``a`` and a
    public ``b`` of w bits, with each sum bit one ADDM or SUBM node, as
    ``bit_blast`` lowers an adder or subtractor wider than
    ``EXPAND_LIMIT``; built here, so narrower widths are covered too."""
    op = {"a + b": "ADDM", "a - b": "SUBM"}[expr]
    kids = tuple(Node("leaf", ref=BitRef(net, i, role))
                 for net, role in (("a", "input-high"), ("b", "input-low"))
                 for i in range(w))
    forest = [BindTree(BitRef("o", k, "top-output"), Node(op, kids, meta=(w, k)))
              for k in range(w)]
    return forest, merge(forest, 5)


def enum_macro(ch, probs):
    """Reference P(1) by direct enumeration of the macro function."""
    from qflow.channelizer import channel_function_eval
    p1 = 0.0
    for a in range(1 << len(ch.inputs)):
        bits = [(a >> i) & 1 for i in range(len(ch.inputs))]
        if channel_function_eval(ch, bits):
            mass = 1.0
            for p, bit in zip(probs, bits):
                mass *= p if bit else 1.0 - p
            p1 += mass
    return p1


@pytest.mark.parametrize("w", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("expr", ["a + b", "a - b"])
def test_arith_macro_probability(w, expr):
    rng = random.Random(w + 10)
    forest, graph = macro_design(expr, w)
    if w > EXPAND_LIMIT:  # the nodes bit_blast makes of the same source
        src = (f"module m(\nHigh input [{w-1}:0] a,\ninput [{w-1}:0] b,\n"
               f"output [{w-1}:0] o);\nassign o = {expr};\nendmodule\n")
        ast = parse(SourceUnit([("<t>", src)], "m"))
        design = elaborate(ast, "m", extract_labels(ast, "m"))
        assert dump_forest(bit_blast(design)) == dump_forest(forest)
    macros = [c for c in graph.channels if c.macro is not None]
    assert len(macros) == w
    for ch in macros:
        for probs in ([0.5] * len(ch.inputs),
                      [rng.random() for _ in ch.inputs]):
            assert abs(channel_prob_pbv(ch, probs)[0] - enum_macro(ch, probs)) < 1e-12
        assert channel_prob_pbv(ch, [0.5] * len(ch.inputs))[1] == 1.0


# -- registers and totals --------------------------------------------------

def test_register_pipeline_identity():
    a = analyze_corpus("aes_t2100.v", "TSC", high_overrides=("key",))
    ones = [v for v in a.totals.values() if v == 1.0]
    zeros = [v for v in a.totals.values() if v == 0.0]
    assert len(ones) == 64 and len(zeros) == 64


def test_cap_behavior():
    src = """module m(High input h, output [2:0] y);
assign y = {h, h, h};
endmodule
"""
    capped = analyze_source(src, "m")
    assert capped.totals == {0: 1.0}
    uncapped = analyze_source(src, "m", cap=False)
    assert uncapped.totals == {0: 3.0}


def test_data_processing_along_chain():
    # each AND stage multiplies by PBV <= 1; leakage never grows downstream
    a = analyze_source("""module m(High input h, input [2:0] l, output y);
wire s0, s1;
assign s0 = h & l[0];
assign s1 = s0 & l[1];
assign y = s1 & l[2];
endmodule
""", "m", max_channel_inputs=2)
    ann = a.annotated
    leaks = [ann.chan_leak[ch.cid].get(0, 0.0) for ch in a.graph.channels
             if ann.chan_tainted[ch.cid]]
    assert all(b <= a + 1e-12 for a, b in zip(leaks, leaks[1:]))
    assert leaks[-1] == a.totals[0]


def test_deep_acyclic_pipeline():
    # each stage is one acyclic SCC, visited once: depth is not bounded
    # by the fixpoint's sweep limit
    depth = 130
    stages = "\n".join(f"s{i} <= {'~' if i % 2 else ''}s{i - 1} ^ a;"
                        for i in range(1, depth))
    regs = ", ".join(f"s{i}" for i in range(depth))
    a = analyze_source(f"""module m(input clk, High input [3:0] key, input [1:0] a,
output [1:0] y);
reg [1:0] {regs};
always @(posedge clk) begin
s0 <= {{key[2], key[0]}};
{stages}
end
assign y = s{depth - 1};
endmodule
""", "m")
    verdicts = {(s.net, s.bit): (s.cls, s.leakage_bits) for s in a.report.secrets}
    assert verdicts == {("key", 0): ("leak", 1.0), ("key", 1): ("ok", 0.0),
                        ("key", 2): ("leak", 1.0), ("key", 3): ("ok", 0.0)}


# g's channel is the root channel of both r and o; r takes its values once
# it is final, and q's root channel reads r one stage later.  At bound 1 the
# second design's root channel carries 1.125 bits at p = 0.5, so r's leakage
# is capped at 1 bit.
HANDOFF = """module m(input clk, High input k, input a, input b, output o, output reg q);
wire g = {};
reg r;
always @(posedge clk) begin
r <= g;
q <= r;
end
assign o = g;
endmodule
"""
R, Q = BitRef("r", 0, "register"), BitRef("q", 0, "register")
P9 = 0.15200309344504995  # source min-entropy at p = 0.9

# (expression, bound, p_high) -> (chan_prob, reg_leak, capped, uncapped totals)
HANDOFF_VALUES = {
    ("k ^ a", 5, None): ({0: 0.5, 1: 0.5}, {R: {0: 1.0}, Q: {0: 1.0}}, 1.0, 2.0),
    ("k ^ a", 5, 0.9): ({0: 0.5, 1: 0.5}, {R: {0: P9}, Q: {0: P9}}, P9, 0.3040061868900999),
    ("(k & a) ^ (k | b)", 1, None): ({0: 0.25, 1: 0.75, 2: 0.625, 3: 0.625},
                                     {R: {0: 1.0}, Q: {0: 1.0}}, 1.0, 2.125),
    ("(k & a) ^ (k | b)", 1, 0.9): ({0: 0.45, 1: 0.95, 2: 0.5449999999999999,
                                     3: 0.5449999999999999},
                                    {R: {0: P9}, Q: {0: P9}}, P9, 0.4263686771133651),
}


@pytest.mark.parametrize("expr,bound,p_high", sorted(HANDOFF_VALUES, key=str))
def test_register_handoff_in_acyclic_pass(expr, bound, p_high):
    chan_prob, reg_leak, capped, uncapped = HANDOFF_VALUES[(expr, bound, p_high)]
    a = analyze_source(HANDOFF.format(expr), "m", p_high=p_high, max_channel_inputs=bound)
    root_channel = a.graph.root_channel
    assert not a.deps.cycles
    assert a.deps.order == [[cid] for cid in range(len(a.graph.channels))]
    assert a.deps.edges == {(root_channel[Q], R)}
    assert root_channel[R] == root_channel[BitRef("o", 0, "top-output")]
    assert a.annotated.chan_prob == chan_prob
    assert a.annotated.reg_leak == reg_leak
    assert a.annotated.reg_prob == {reg: chan_prob[a.graph.root_channel[reg]]
                                    for reg in (R, Q)}
    assert a.totals == {0: capped}
    assert accumulate_totals(a.annotated, a.design, cap=False) == {0: uncapped}


def test_totals_from_given_contributions():
    a = analyze_corpus("toy_spn.v", "toy_spn", p_high=0.7)
    contributions = qif_engine.output_contributions(a.annotated, a.design)
    for cap in (True, False):
        assert (accumulate_totals(a.annotated, a.design, cap=cap, contributions=contributions)
                == accumulate_totals(a.annotated, a.design, cap=cap))


def test_propagate_needs_every_root_scheduled():
    a = analyze_corpus("example.v", "example")
    with pytest.raises(ValueError):
        propagate(a.graph, a.design, {}, DependencyGraph())


# g is cut in the walk of a[0], which sorts first, and both root channels
# read it; z[0]'s comes first in the dependency order, since a[0]'s reads z[0]
SHARED_ACROSS_SCCS = """module m(input clk, High input [1:0] k, input l, output a);
reg z;
wire g;
assign g = (k[0] ^ l) & k[1];
assign a = g ^ z;
always @(posedge clk) z <= g | l;
endmodule
"""


@pytest.mark.parametrize("bound", [1, 2])
def test_channel_scheduled_by_the_first_scc_that_reads_it(bound):
    a = analyze_source(SHARED_ACROSS_SCCS, "m", max_channel_inputs=bound, cap=False)
    out, reg = BitRef("a", 0, "top-output"), BitRef("z", 0, "register")
    root_channel = a.graph.root_channel
    assert a.deps.order == [[0], [1], [root_channel[reg]], [root_channel[out]]]
    assert a.deps.edges == {(root_channel[out], reg)}
    g = a.graph.channels[1]
    assert g.root == out
    assert g.cid in a.graph.channels[root_channel[reg]].inputs
    assert g.cid in a.graph.channels[root_channel[out]].inputs
    assert len(a.graph.channels) == 4
    assert a.totals == {0: 0.703125, 1: 0.703125}


# g is the root channel of r1 and r2, and only r1 is read back: r1's cycle
# loops r1 alone, and keeps the P(1) its eighth sweep read.  r2 takes g's
# P(1) from that sweep, one cycle later.
LOOP_REG = """module m(input clk, High input k, input a, output o, output p);
wire [1:0] g = (r1 & a) | (k & ~r1);
reg [1:0] r1, r2;
always @(posedge clk) begin
r1 <= g;
r2 <= g;
end
assign o = r1;
assign p = r2 ^ a;
endmodule
"""
P3 = 0.5145731728297583  # source min-entropy at p = 0.3

# (p_high, bound) -> (P(r1[0]), P(r2[0]), leakage of each, uncapped total)
LOOP_REG_VALUES = {
    (None, 1): (0.4384471872175181, 0.4384471871903588, 1.0, 2.0),
    (None, 2): (0.4384471872175181, 0.4384471871903588, 1.0, 2.0),
    (None, 5): (0.5, 0.5, 1.0, 2.0),
    (0.9, 1): (0.564129980497132, 0.5636987022805003, P9, 0.3040061868900999),
    (0.9, 2): (0.564129980497132, 0.5636987022805003, P9, 0.3040061868900999),
    (0.9, 5): (0.6439104, 0.6424358400000001, P9, 0.3040061868900999),
    (0.3, 1): (0.33333296838587956, 0.3333332785912353, P3, 1.0291463456595167),
    (0.3, 2): (0.33333296838587956, 0.3333332785912353, P3, 1.0291463456595167),
    (0.3, 5): (0.3749952, 0.37499904, P3, 1.0291463456595167),
}


@pytest.mark.parametrize("p_high,bound", sorted(LOOP_REG_VALUES, key=str))
def test_cycle_loops_only_the_registers_it_reads(p_high, bound):
    p1, p2, leak, uncapped = LOOP_REG_VALUES[(p_high, bound)]
    a = analyze_source(LOOP_REG, "m", p_high=p_high, max_channel_inputs=bound)
    r1, r2 = BitRef("r1", 0, "register"), BitRef("r2", 0, "register")
    r1_hi, r2_hi = BitRef("r1", 1, "register"), BitRef("r2", 1, "register")
    g = a.graph.root_channel[r1]
    assert a.graph.root_channel[r2] == g
    assert any(g in cycle for cycle in a.deps.cycles)
    assert (repr(sorted(a.annotated.reg_prob.items()))
            == repr(sorted({r1: p1, r2: p2, r1_hi: 0.0, r2_hi: 0.0}.items())))
    assert (repr(sorted(a.annotated.reg_leak.items()))
            == repr(sorted({r1: {0: leak}, r2: {0: leak}, r1_hi: {}, r2_hi: {}}.items())))
    assert repr(accumulate_totals(a.annotated, a.design, cap=False)) == repr({0: uncapped})


CYCLE_DESIGNS = {
    "accumulator": """module m(input clk, High input [3:0] key, input [3:0] a,
output [3:0] y);
reg [3:0] acc;
always @(posedge clk) begin
acc <= acc ^ key ^ a;
end
assign y = acc;
endmodule
""",
    "ring": """module m(input clk, High input [1:0] key, input [1:0] a,
output [1:0] y);
reg [1:0] r0, r1;
always @(posedge clk) begin
r0 <= r1 ^ key;
r1 <= r0 & a;
end
assign y = r1;
endmodule
""",
    "lfsr": """module m(input clk, High input [7:0] key, input [7:0] a,
output [7:0] y);
reg [7:0] s;
always @(posedge clk) begin
s <= {s[6:0], s[7] ^ s[5] ^ s[4] ^ s[3]} ^ key;
end
assign y = s & a;
endmodule
""",
    "downstream": """module m(input clk, High input [3:0] key, input [3:0] a,
output [3:0] y);
reg [3:0] acc, stage;
always @(posedge clk) begin
acc <= acc ^ key;
stage <= acc & a;
end
assign y = stage;
endmodule
""",
}

# Capped totals per (design, p_high, bound).  Each register a cycle reads
# back enters it with every entering secret at its cap, so a secret that
# reaches an output through a cycle is capped there; the 8-cycle exact
# leakage of each design is checked in test_oracle.
CYCLE_TOTALS = {
    ("accumulator", None, 2): [1.0] * 4,
    ("accumulator", None, 5): [1.0] * 4,
    ("accumulator", 0.9, 2): [P9] * 4,
    ("accumulator", 0.9, 5): [P9] * 4,
    ("ring", None, 2): [1.0] * 2,
    ("ring", None, 5): [1.0] * 2,
    ("ring", 0.9, 2): [P9] * 2,
    ("ring", 0.9, 5): [P9] * 2,
    ("lfsr", None, 2): [1.0] * 8,
    ("lfsr", None, 5): [1.0] * 8,
    ("lfsr", 0.9, 2): [P9] * 8,
    ("lfsr", 0.9, 5): [P9] * 8,
    ("downstream", None, 2): [0.75] * 4,
    ("downstream", None, 5): [0.75] * 4,
    ("downstream", 0.9, 2): [0.12197165986939928] * 4,
    ("downstream", 0.9, 5): [0.12197165986939928] * 4,
}


@pytest.mark.parametrize("design,p_high,bound", sorted(CYCLE_TOTALS, key=str))
def test_sequential_cycle_totals(design, p_high, bound):
    a = analyze_source(CYCLE_DESIGNS[design], "m", p_high=p_high, max_channel_inputs=bound)
    got = [a.totals[sid] for sid in sorted(a.totals)]
    assert got == CYCLE_TOTALS[(design, p_high, bound)]


# at a = 0.01, P(r) rises toward 1 by 1% of the gap per cycle: far from any
# fixpoint after 8 cycles
STICKY = """module m(input clk, High input k, input a, output y);
reg r;
always @(posedge clk) begin
r <= r | a;
end
assign y = r & k;
endmodule
"""


def test_slow_probability_cycle_at_or_above_exact(tmp_path):
    probs = tmp_path / "p.txt"
    probs.write_text("a = 0.01\n")
    a = analyze_source(STICKY, "m", prob_file=str(probs), cap=False)
    _, exact = exact_multiplicative_leakage(flatten_forest(a.forest, a.design), {("a", 0): 0.01})
    assert exact > 0.0
    assert a.totals[0] >= exact - 1e-9


def feedback_design(rng):
    """A small seeded feedback design: 1-3 key bits, 0-3 lows and 1-4
    one-bit registers, each register's next state a random AND/OR/XOR/NOT/?:
    expression over keys, lows and registers, and 1-3 outputs over
    registers and lows."""
    keys = [f"k[{i}]" for i in range(rng.randint(1, 3))]
    lows = [f"l[{i}]" for i in range(rng.randint(0, 3))]
    regs = [f"r{i}" for i in range(rng.randint(1, 4))]

    def expr(leaves, depth):
        op = rng.choice(("&", "|", "^", "~", "?")) if depth and rng.random() < 0.7 else None
        if op is None:
            return rng.choice(leaves)
        if op == "~":
            return f"~{expr(leaves, depth - 1)}"
        a, b = expr(leaves, depth - 1), expr(leaves, depth - 1)
        return f"({expr(leaves, depth - 1)} ? {a} : {b})" if op == "?" else f"({a} {op} {b})"

    outputs = [expr(regs + lows, 2) for _ in range(rng.randint(1, 3))]
    low_port = f"input [{len(lows) - 1}:0] l, " if lows else ""
    return (f"module m(input clk, High input [{len(keys) - 1}:0] k, {low_port}"
            f"output [{len(outputs) - 1}:0] y);\nreg {', '.join(regs)};\n"
            "always @(posedge clk) begin\n"
            + "".join(f"{r} <= {expr(keys + lows + regs, 3)};\n" for r in regs)
            + "end\n" + "".join(f"assign y[{i}] = {o};\n" for i, o in enumerate(outputs))
            + "endmodule\n")


@pytest.mark.parametrize("seed", range(4))
def test_feedback_designs_get_a_report(seed):
    rng = random.Random(seed)
    for _ in range(10):
        src = feedback_design(rng)
        for p_high in (None, 0.9, 0.3):
            for bound in (2, 5):
                a = analyze_source(src, "m", p_high=p_high, max_channel_inputs=bound)
                assert a.report.secrets, src


def test_probability_overrides():
    a = analyze_source("""module m(High input h, output y);
assign y = h;
endmodule
""", "m", p_high=0.9)
    assert abs(a.totals[0] - source_leakage(0.9)) < 1e-12
    a = analyze_source("""module m(High input h, output y);
assign y = h;
endmodule
""", "m", p_high=1.0)
    assert a.totals[0] == 0.0


# -- the per-propagation kernel memo ----------------------------------------

def assert_kernel_memo_transparent(a, p_high):
    """Each channel's P(1) and PBV equal, by repr, a fresh kernel call on
    the annotated values of its inputs: a cycle's stored state is a
    fixpoint of the kernel."""
    an, graph = a.annotated, a.graph
    input_probs = ({(n, b): p_high for n, b, _ in a.design.high_bits()}
                   if p_high is not None else {})
    for ch in graph.channels:
        probs = [an.chan_prob[ci] if isinstance(ci, int)
                 else an.reg_prob.get(ci, 0.5) if ci.role == "register"
                 else input_probs.get((ci.net, ci.bit), 0.5) for ci in ch.inputs]
        tainted = [an.chan_tainted[ci] if isinstance(ci, int)
                   else an.chan_tainted[graph.root_channel[ci]] if ci.role == "register"
                   else ci.role == "input-high" for ci in ch.inputs]
        p1, pbv = channel_prob_pbv(ch, probs, tainted)
        assert repr(pbv) == repr(an.chan_pbv[ch.cid]), ch
        assert repr(p1) == repr(an.chan_prob[ch.cid]), ch


CORPUS_DESIGNS = (
    (("example.v",), "example", ()),
    (("toy_spn.v",), "toy_spn", ()),
    (("aes_t2100.v",), "TSC", ("key",)),
    (("aes_t2200.v",), "TSC", ("key",)),
    (("aes_t2300.v", "aes_t2300_top.v"), "top", ()),
)


@pytest.mark.parametrize("bound", range(1, 7))
def test_kernel_memo_transparent_on_corpus(bound):
    for files, top, highs in CORPUS_DESIGNS:
        for p_high in (None, 0.9):
            a = analyze(Config(files=[corpus.path(f) for f in files], top=top,
                               high_overrides=highs, max_channel_inputs=bound,
                               p_high=p_high))
            assert_kernel_memo_transparent(a, p_high)


@pytest.mark.parametrize("design,p_high,bound", sorted(CYCLE_TOTALS, key=str))
def test_kernel_memo_transparent_on_cycles(design, p_high, bound, monkeypatch):
    a = analyze_source(CYCLE_DESIGNS[design], "m", p_high=p_high, max_channel_inputs=bound)
    assert_kernel_memo_transparent(a, p_high)
    # without the memo, every float is the same, cycles included
    monkeypatch.setattr(qif_engine, "_kernel",
                        lambda _memo, ch, probs, tainted: channel_prob_pbv(ch, probs, tainted))
    b = analyze_source(CYCLE_DESIGNS[design], "m", p_high=p_high, max_channel_inputs=bound)
    for field_name in ("chan_prob", "chan_pbv", "chan_leak", "reg_prob", "reg_leak"):
        assert repr(getattr(b.annotated, field_name)) == repr(getattr(a.annotated, field_name))
