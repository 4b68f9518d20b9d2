"""Bounded greedy merging of bind DAGs into channels."""

import itertools
import math
import time

import pytest

from qflow import corpus
from qflow.bitgraph import BitRef, bit_blast, eval_node
from qflow.channelizer import channel_function_eval, dump_channels, merge
from qflow.errors import ArityMismatch
from qflow.frontend import SourceUnit, elaborate, extract_labels, parse
from qflow.oracle import exact_multiplicative_leakage, flatten_forest
from qflow.qif_engine import channel_prob_pbv

from conftest import analyze_source


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
    by_out = {str(ch.output): ch for ch in graph.channels if ch.output}
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


# -- shared (reconvergent) nodes: built and sealed once per tree -------------

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


def test_shared_wire_cut_once_per_output_tree():
    src = """module m(High input [2:0] k, input [2:0] l, output y, output z);
wire t;
assign t = k[0] ^ k[1] ^ k[2];
assign y = (t & l[0]) ^ (t | l[1]);
assign z = t & l[2];
endmodule
"""
    _forest, graph = pipeline_to_graph(src, "m", 3)
    t_bits = ["k[0]", "k[1]", "k[2]"]
    t_channels = [ch for ch in graph.channels
                  if [str(ci) for ci in ch.inputs] == t_bits]
    assert sorted(str(ch.root) for ch in t_channels) == ["y[0]", "z[0]"]
    for out in ("y", "z"):
        root = BitRef(out, 0, "top-output")
        stack, tree = [graph.root_channel[root]], set()
        while stack:
            cid = stack.pop()
            tree.add(cid)
            stack += [ci for ci in graph.channels[cid].inputs if isinstance(ci, int)]
        assert {graph.channels[cid].root for cid in tree} == {root}
        assert len([cid for cid in tree if graph.channels[cid] in t_channels]) == 1
