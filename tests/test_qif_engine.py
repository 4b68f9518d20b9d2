"""Probability propagation, posterior vulnerability, leakage cascade."""

import itertools
import math
import random

import pytest

from qflow import corpus, qif_engine
from qflow.bitgraph import BitRef, DependencyGraph, bit_blast
from qflow.channelizer import Channel, merge
from qflow.errors import NonConvergentFixpoint
from qflow.frontend import SourceUnit, elaborate, extract_labels, parse
from qflow.pipeline import Config, analyze
from qflow.qif_engine import (
    LEAK_TOL,
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
    return Channel(cid=0, inputs=inputs, table=table, macro=None,
                   output=None, root=None)


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
    by_out = {str(ch.output): ch for ch in a.graph.channels if ch.output}
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

def macro_design(expr, w, outw=1):
    src = (f"module m(\nHigh input [{w-1}:0] a,\ninput [{w-1}:0] b,\n"
           f"output [{outw-1}:0] o);\nassign o = {expr};\nendmodule\n")
    ast = parse(SourceUnit([("<t>", src)], "m"))
    design = elaborate(ast, "m", extract_labels(ast, "m"))
    # force macro lowering at every width under test
    forest = bit_blast(design, expand_limit=1)
    graph = merge(forest, 5)
    return design, forest, graph


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
    _design, _forest, graph = macro_design(expr, w, outw=w)
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


def test_propagate_needs_every_root_scheduled():
    a = analyze_corpus("example.v", "example")
    with pytest.raises(ValueError):
        propagate(a.graph, a.design, {}, DependencyGraph())


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

# Totals of the whole-graph fixpoint that the SCC schedule replaced, per
# (design, p_high, bound).  A cycle still stops once a sweep raises no
# register by LEAK_TOL, but the old sweep read the channels downstream of
# a cycle one sweep behind; each of up to 8 outputs may now be higher by
# less than LEAK_TOL.
CYCLE_TOTALS = {
    ("accumulator", None, 2): [0.9999999981373549] * 4,
    ("accumulator", None, 5): [0.9999999981373549] * 4,
    ("accumulator", 0.9, 2): [0.15200309344504995] * 4,
    ("accumulator", 0.9, 5): [0.15200309344504995] * 4,
    ("ring", None, 2): [0.75] * 2,
    ("ring", None, 5): [0.75] * 2,
    ("ring", 0.9, 2): [0.12485968390132231] * 2,
    ("ring", 0.9, 5): [0.12485968390132231] * 2,
    ("lfsr", None, 2): [0.7794192472406394, 0.8088385035193824, 0.8676770160489014,
                        0.9853540410168762, 0.8309984672590076, 0.7171421271626173,
                        0.5868568506472798, 0.4237137024018125],
    ("lfsr", None, 5): [0.09472511082771007, 0.7656017786418374, 0.7812035622125109,
                        0.8124071287448942, 0.7800891505730192, 0.7154531930674466,
                        0.5861812770931465, 0.4223625550138763],
    ("lfsr", 0.9, 2): NonConvergentFixpoint,
    ("lfsr", 0.9, 5): [0.10089826006137202] + [0.15200309344504995] * 7,
    ("downstream", None, 2): [0.7499999986030161] * 4,
    ("downstream", None, 5): [0.7499999986030161] * 4,
    ("downstream", 0.9, 2): [0.11400232008378747] * 4,
    ("downstream", 0.9, 5): [0.11400232008378747] * 4,
}


@pytest.mark.parametrize("design,p_high,bound", sorted(CYCLE_TOTALS, key=str))
def test_sequential_cycle_totals(design, p_high, bound):
    want = CYCLE_TOTALS[(design, p_high, bound)]
    src = CYCLE_DESIGNS[design]
    if want is NonConvergentFixpoint:
        with pytest.raises(NonConvergentFixpoint):
            analyze_source(src, "m", p_high=p_high, max_channel_inputs=bound)
        return
    a = analyze_source(src, "m", p_high=p_high, max_channel_inputs=bound)
    got = [a.totals[sid] for sid in sorted(a.totals)]
    assert len(got) == len(want)
    assert all(abs(g - w) < 8 * LEAK_TOL for g, w in zip(got, want)), got


def test_unsettled_probability_fixpoint_raises(tmp_path):
    # P(r) rises toward its fixpoint 1 by a factor 0.99 of the gap per
    # sweep, which needs far more than MAX_FIXPOINT_ITERS sweeps
    probs = tmp_path / "p.txt"
    probs.write_text("a = 0.01\n")
    with pytest.raises(NonConvergentFixpoint):
        analyze_source("""module m(input clk, High input k, input a, output y);
reg r;
always @(posedge clk) begin
r <= r | a;
end
assign y = r & k;
endmodule
""", "m", prob_file=str(probs))


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


@pytest.mark.parametrize("design,p_high,bound", [
    key for key in sorted(CYCLE_TOTALS, key=str)
    if CYCLE_TOTALS[key] is not NonConvergentFixpoint])
def test_kernel_memo_transparent_on_cycles(design, p_high, bound, monkeypatch):
    a = analyze_source(CYCLE_DESIGNS[design], "m", p_high=p_high, max_channel_inputs=bound)
    assert_kernel_memo_transparent(a, p_high)
    # without the memo, every float is the same, cycles included
    monkeypatch.setattr(qif_engine._Propagator, "_kernel",
                        lambda _self, ch, probs, tainted: channel_prob_pbv(ch, probs, tainted))
    b = analyze_source(CYCLE_DESIGNS[design], "m", p_high=p_high, max_channel_inputs=bound)
    for field_name in ("chan_prob", "chan_pbv", "chan_leak", "reg_prob", "reg_leak"):
        assert repr(getattr(b.annotated, field_name)) == repr(getattr(a.annotated, field_name))
