"""Bounded greedy merging of bind DAGs into channels."""

import itertools
import math
import random
import time

import pytest

from qflow import corpus
from qflow.bitgraph import BindTree, BitRef, Node, bit_blast, eval_node, postorder
from qflow.channelizer import channel_function_eval, dump_channels, merge
from qflow.errors import ArityMismatch
from qflow.frontend import SourceUnit, elaborate, extract_labels, parse
from qflow.oracle import exact_multiplicative_leakage, flatten_forest
from qflow.qif_engine import channel_prob_pbv

from conftest import analyze_source
from test_bitgraph import random_dag


def pipeline_to_graph(src, top, bound):
    ast = parse(SourceUnit([("<t>", src)], top))
    design = elaborate(ast, top, extract_labels(ast, top))
    forest = bit_blast(design)
    return forest, merge(forest, bound)


def channel_values(graph, leaf_values):
    """Every channel's value, composed through its derived inputs.

    Channel ids are topologically ordered, so one pass in id order
    evaluates each channel once.
    """
    out = []
    for ch in graph.channels:
        bits = [out[ci] if isinstance(ci, int) else leaf_values[ci]
                for ci in ch.inputs]
        out.append(channel_function_eval(ch, bits))
    return out


EXAMPLE = corpus.read("example.v")


def test_example_merge_bound_3():
    _forest, graph = pipeline_to_graph(EXAMPLE, "example", 3)
    by_out = {str(root): graph.channels[cid]
              for root, cid in graph.root_channel.items()}
    o0 = by_out["o[0]"]
    assert sorted(str(ci) for ci in o0.inputs) == ["i[0]", "i[1]", "low[0]"]
    o1 = by_out["o[1]"]
    assert sorted(str(ci) for ci in o1.inputs) == ["i[0]", "i[1]"]
    assert len(graph.channels) == 2


def test_channels_are_slotted():
    _forest, graph = pipeline_to_graph(EXAMPLE, "example", 3)
    assert all(not hasattr(ch, "__dict__") for ch in graph.channels)


def test_bound_one_splits_every_gate():
    _forest, graph = pipeline_to_graph(EXAMPLE, "example", 1)
    # every multi-input channel is a lone gate at its arity floor
    for ch in graph.channels:
        assert len(ch.inputs) <= 2


@pytest.mark.parametrize("bound", [0, 17])
def test_merge_rejects_bound_out_of_range(bound):
    forest, _graph = pipeline_to_graph(EXAMPLE, "example", 1)
    with pytest.raises(ValueError, match=r"must be in \[1, 16\]"):
        merge(forest, bound)


def test_zero_table_is_a_table_channel():
    # a table is a packed int and may be 0; only ``table is None`` marks a macro
    src = """module m(High input k, output y, output z);
assign y = k & ~k;
assign z = 1'b0;
endmodule
"""
    _forest, graph = pipeline_to_graph(src, "m", 5)
    assert dump_channels(graph) == (
        "c0 root=y[0] out=y[0] inputs=[H k[0]] table=0x0/1\n"
        "c1 root=z[0] out=z[0] inputs=[] table=0x0/0\n")
    assert [channel_prob_pbv(ch, [0.5] * len(ch.inputs))
            for ch in graph.channels] == [(0.0, 0.5), (0.0, 1.0)]


def test_t2200_register_cut_channels():
    src = corpus.read("aes_t2200.v")
    _forest, graph = pipeline_to_graph(src, "TSC", 5)
    # registers are sequential cuts: each stage is its own channel
    tmp0 = next(ch for ch in graph.channels
                if ch.root == BitRef("tmp0", 0, "register"))
    assert [str(ci) for ci in tmp0.inputs] == ["key[0]"]
    assert channel_function_eval(tmp0, [0]) == 0  # key & key = identity
    assert channel_function_eval(tmp0, [1]) == 1
    load0 = next(ch for ch in graph.channels
                 if ch.root == BitRef("load", 0, "register"))
    assert sorted(str(ci) for ci in load0.inputs) == ["tmp4[0]", "tmp5[0]"]
    assert all(ci.role == "register" for ci in load0.inputs)


def test_bound_respected_with_arity_floor():
    src = """module m(input [7:0] a, output y);
assign y = (a[0] & a[1]) | (a[2] & a[3]) | (a[4] ^ a[5]) | (a[6] & a[7]);
endmodule
"""
    for bound in (1, 2, 3, 4, 5):
        _forest, graph = pipeline_to_graph(src, "m", bound)
        for ch in graph.channels:
            if ch.table is not None:
                assert len(ch.inputs) <= max(bound, 2)


def test_functional_preservation():
    src = """module m(input [3:0] a, input [2:0] b, output [1:0] y);
assign y[0] = (a[0] ^ a[1]) & (b[0] | ~a[2]) ^ (a[3] & b[1]);
assign y[1] = b[2] ? a[0] : (a[1] | b[0]);
endmodule
"""
    for bound in (1, 2, 3, 5):
        forest, graph = pipeline_to_graph(src, "m", bound)
        leaves = sorted({leaf for t in forest for leaf in t.leaves()},
                        key=str)
        for combo in itertools.product((0, 1), repeat=len(leaves)):
            values = dict(zip(leaves, combo))
            got = channel_values(graph, values)
            for tree in forest:
                want = eval_node(tree.node, values)
                assert got[graph.root_channel[tree.root]] == want


@pytest.mark.parametrize("rhs", ["k[0] ^ k[0]", "a & a", "s ? a : s"])
def test_gate_over_repeated_leaves_gets_its_own_table(rhs):
    """A gate whose children repeat a leaf has fewer inputs than children,
    so it does not take the table of its kind over distinct leaves, which
    ``u`` seals first; every channel agrees with its tree on every assignment."""
    src = f"""module m(input [1:0] k, input a, input s, output u, output w, output y);
assign u = k[1] ^ a;
assign w = (a & s) | (s ? k[1] : a);
assign y = {rhs};
endmodule
"""
    for bound in (1, 2, 3, 5):
        forest, graph = pipeline_to_graph(src, "m", bound)
        leaves = sorted({leaf for t in forest for leaf in t.leaves()}, key=str)
        for combo in itertools.product((0, 1), repeat=len(leaves)):
            values = dict(zip(leaves, combo))
            got = channel_values(graph, values)
            for tree in forest:
                assert got[graph.root_channel[tree.root]] == eval_node(tree.node, values)
        (tree,) = [t for t in forest if t.root.net == "y"]
        ch = graph.channels[graph.root_channel[tree.root]]
        assert len(ch.inputs) < len(tree.node.children)


def test_channel_eval_arity_mismatch():
    _forest, graph = pipeline_to_graph(EXAMPLE, "example", 3)
    ch = graph.channels[0]
    with pytest.raises(ArityMismatch):
        channel_function_eval(ch, [0] * (len(ch.inputs) + 1))


def test_macro_channel_has_override():
    src = """module m(input [5:0] a, input [5:0] b, output y);
assign y = a + b;
endmodule
"""
    _forest, graph = pipeline_to_graph(src, "m", 5)
    macros = [ch for ch in graph.channels if ch.macro is not None]
    assert len(macros) == 1
    assert macros[0].macro.op == "ADDM"
    assert macros[0].table is None


def test_dump_channels_stable():
    _forest, g1 = pipeline_to_graph(EXAMPLE, "example", 3)
    _forest, g2 = pipeline_to_graph(EXAMPLE, "example", 3)
    assert dump_channels(g1) == dump_channels(g2)
    assert dump_channels(g1) == (
        "c0 root=o[0] out=o[0] inputs=[H i[0], H i[1], L low[0]] table=0x8f/3\n"
        "c1 root=o[1] out=o[1] inputs=[H i[0], H i[1]] table=0xf/2\n")


# -- shared (reconvergent) nodes: built and sealed once per forest -----------

def chain_source(stages, fresh_bits=True):
    """``w{i+1} = (w{i} op k[i]) op (w{i} op l[i])``: each stage reads w{i} twice.

    Without ``fresh_bits`` every stage reads k[0] and l[0], so the whole
    chain fits one channel and its table comes from one walk of the DAG.
    """
    ops = itertools.cycle([("&", "^", "|"), ("^", "|", "&"), ("|", "&", "^")])
    lines = [f"module chain(High input [{stages}:0] k, input [{stages}:0] l, output y);",
             "wire " + ", ".join(f"w{i}" for i in range(stages + 1)) + ";",
             "assign w0 = k[0] ^ l[0];"]
    for i in range(stages):
        a, b, c = next(ops)
        bit = i + 1 if fresh_bits else 0
        lines.append(f"assign w{i + 1} = (w{i} {a} k[{bit}]) {b} (w{i} {c} l[{bit}]);")
    lines += [f"assign y = w{stages};", "endmodule", ""]
    return "\n".join(lines)


@pytest.mark.parametrize("stages,fresh_bits", [(40, True), (20, False)])
def test_reconvergent_chain_merges_in_linear_time(stages, fresh_bits):
    start = time.perf_counter()
    _forest, graph = pipeline_to_graph(chain_source(stages, fresh_bits), "chain", 5)
    assert time.perf_counter() - start < 1.0
    assert len(graph.channels) <= 2 * stages


# t reads six key bits; y reads t twice, so t's channels come once at bound 5
SHARED_T = """module m(High input [5:0] k, input [5:0] l, output y);
wire t;
assign t = ^(k & l);
assign y = t ^ t;
endmodule
"""


def test_shared_wire_sealed_once():
    _forest, graph = pipeline_to_graph(SHARED_T, "m", 5)
    # t's two channels, each listed once, and y's
    assert dump_channels(graph) == (
        "c0 root=y[0] inputs=[H k[0], L l[0], H k[1], L l[1]] table=0x7888/4\n"
        "c1 root=y[0] inputs=[D 0, H k[2], L l[2], H k[3], L l[3]] table=0x956a6a6a/5\n"
        "c2 root=y[0] out=y[0] inputs=[D 1, H k[4], L l[4], H k[5], L l[5]] table=0x0/5\n")
    a = analyze_source(SHARED_T, "m", cap=False)
    estimate = math.fsum(a.totals.values())
    _ratio, exact = exact_multiplicative_leakage(flatten_forest(a.forest, a.design))
    assert exact == 0.0  # y is constant
    assert estimate == 0.3789825439453125


def test_shared_wire_cut_once_per_forest():
    src = """module m(High input [2:0] k, input [2:0] l, output y, output z);
wire t;
assign t = k[0] ^ k[1] ^ k[2];
assign y = (t & l[0]) ^ (t | l[1]);
assign z = t & l[2];
endmodule
"""
    _forest, graph = pipeline_to_graph(src, "m", 3)
    # t is cut in the walk of y, which sorts first, and z reads that channel
    assert dump_channels(graph) == (
        "c0 root=y[0] inputs=[H k[0], H k[1], H k[2]] table=0x96/3\n"
        "c1 root=y[0] out=y[0] inputs=[D 0, L l[0], L l[1]] table=0x72/3\n"
        "c2 root=z[0] out=z[0] inputs=[D 0, L l[2]] table=0x8/2\n")
    for out in ("y", "z"):
        root = BitRef(out, 0, "top-output")
        assert 0 in graph.channels[graph.root_channel[root]].inputs


# a, b and r are the node of g; c and d are the leaf k[1]
ONE_NODE_ROOTS = """module m(input clk, High input [1:0] k, input l, output a, output b,
output c, output d);
reg r;
wire g;
assign g = k[0] ^ l;
assign a = g;
assign b = g;
assign c = k[1];
assign d = k[1];
always @(posedge clk) r <= g;
endmodule
"""


def test_roots_that_are_one_node_share_a_channel():
    _forest, graph = pipeline_to_graph(ONE_NODE_ROOTS, "m", 5)
    assert dump_channels(graph) == (
        "c0 root=a[0] out=a[0],b[0],r[0] inputs=[H k[0], L l[0]] table=0x6/2\n"
        "c1 root=c[0] out=c[0],d[0] inputs=[H k[1]] table=0x2/1\n")
    assert {str(root): cid for root, cid in graph.root_channel.items()} == {
        "a[0]": 0, "b[0]": 0, "c[0]": 1, "d[0]": 1, "r[0]": 0}
    a = analyze_source(ONE_NODE_ROOTS, "m")
    assert [(s.net, s.bit, s.cls, s.leakage_bits) for s in a.report.secrets] == [
        ("k", 0, "leak", 1.0), ("k", 1, "leak", 1.0)]


def unshare(forest):
    """Each tree over its own copy of its DAG: no node is reached from two roots."""
    out = []
    for tree in forest:
        copy = {}
        for node in postorder((tree.node,)):
            copy[node] = Node(node.op, tuple(copy[c] for c in node.children),
                              node.ref, node.meta)
        out.append(BindTree(tree.root, copy[tree.node]))
    return out


def test_sharing_across_roots_keeps_functions_and_never_adds_channels():
    rng = random.Random(16)
    refs = ([BitRef("h", i, "input-high") for i in range(2)]
            + [BitRef("l", i, "input-low") for i in range(2)])
    for _ in range(120):
        nodes = random_dag(rng, refs, rng.randint(1, 40))
        # recent gates share the most; a root may repeat another's node
        roots = [rng.choice(nodes[-8:] if rng.random() < 0.7 else nodes)
                 for _ in range(rng.randint(1, 6))]
        forest = [BindTree(BitRef("y", i, "top-output"), n) for i, n in enumerate(roots)]
        rng.shuffle(forest)
        for bound in range(1, 6):
            graph = merge(forest, bound)
            assert len(graph.channels) <= len(merge(unshare(forest), bound).channels)
            for combo in itertools.product((0, 1), repeat=len(refs)):
                values = dict(zip(refs, combo))
                got = channel_values(graph, values)
                for tree in forest:
                    assert got[graph.root_channel[tree.root]] == eval_node(tree.node, values)


def xor_prefix_chain(n):
    """``w[i+1] = w[i] ^ k[i]``, every ``w`` bit an output: each root reads the last."""
    return (f"module m(High input [{n - 1}:0] k, output [{n}:0] w);\n"
            "assign w[0] = 1'b0;\ngenvar i;\ngenerate\n"
            f"for (i = 0; i < {n}; i = i + 1) begin\n"
            "assign w[i+1] = w[i] ^ k[i];\nend\nendgenerate\nendmodule\n")


@pytest.mark.parametrize("bound,uncapped", [(2, 64.0), (5, 31.466666666666665)])
def test_xor_prefix_chain_cuts_one_channel_per_root(bound, uncapped):
    a = analyze_source(xor_prefix_chain(64), "m", max_channel_inputs=bound, cap=False)
    assert len(a.graph.channels) == 65
    assert math.fsum(a.totals.values()) == uncapped
    _forest, graph = pipeline_to_graph(xor_prefix_chain(512), "m", bound)
    assert len(graph.channels) == 513


def test_toy_spn_cuts_shared_gates_once():
    src = corpus.read("toy_spn.v")
    counts = [len(pipeline_to_graph(src, "toy_spn", bound)[1].channels)
              for bound in (1, 2, 3)]
    assert counts == [54, 54, 50]
