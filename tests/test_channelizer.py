"""Bounded greedy merging of bind trees into channels."""

import itertools

import pytest

from qflow import corpus
from qflow.bitgraph import BitRef, bit_blast, compute_dependencies, eval_node
from qflow.channelizer import channel_function_eval, dump_channels, merge
from qflow.errors import ArityMismatch
from qflow.frontend import SourceUnit, elaborate, extract_labels, parse


def pipeline_to_graph(src, top, bound):
    ast = parse(SourceUnit([("<t>", src)], top))
    design = elaborate(ast, top, extract_labels(ast, top))
    forest = bit_blast(design)
    deps = compute_dependencies(forest)
    return forest, merge(forest, deps, bound)


def compose_eval(graph, channel, leaf_values):
    """Evaluate a channel recursively through its derived inputs."""
    bits = []
    for ci in channel.inputs:
        if isinstance(ci, int):
            bits.append(compose_eval(graph, graph.by_id(ci), leaf_values))
        else:
            bits.append(leaf_values[ci])
    return channel_function_eval(channel, bits)


EXAMPLE = corpus.read("example.v")


def test_example_merge_bound_3():
    _forest, graph = pipeline_to_graph(EXAMPLE, "example", 3)
    by_out = {str(ch.output): ch for ch in graph.channels if ch.output}
    o0 = by_out["o[0]"]
    assert sorted(str(ci) for ci in o0.inputs) == ["i[0]", "i[1]", "low[0]"]
    o1 = by_out["o[1]"]
    assert sorted(str(ci) for ci in o1.inputs) == ["i[0]", "i[1]"]
    assert len(graph.channels) == 2


def test_bound_one_splits_every_gate():
    _forest, graph = pipeline_to_graph(EXAMPLE, "example", 1)
    # every multi-input channel is a lone gate at its arity floor
    for ch in graph.channels:
        assert len(ch.inputs) <= 2


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
            for tree in forest:
                want = eval_node(tree.node, values)
                ch = graph.by_id(graph.root_channel[tree.root])
                assert compose_eval(graph, ch, values) == want


def test_channel_eval_arity_mismatch():
    _forest, graph = pipeline_to_graph(EXAMPLE, "example", 3)
    ch = graph.channels[0]
    with pytest.raises(ArityMismatch):
        channel_function_eval(ch, [0] * (len(ch.inputs) + 1))


def test_macro_channel_has_override():
    src = """module m(input [5:0] a, input [5:0] b, output y);
assign y = a < b;
endmodule
"""
    _forest, graph = pipeline_to_graph(src, "m", 5)
    macros = [ch for ch in graph.channels if ch.macro is not None]
    assert len(macros) == 1
    assert macros[0].macro.op == "LTM"
    assert macros[0].table is None


def test_dump_channels_stable():
    _forest, g1 = pipeline_to_graph(EXAMPLE, "example", 3)
    _forest, g2 = pipeline_to_graph(EXAMPLE, "example", 3)
    assert dump_channels(g1) == dump_channels(g2)
    assert dump_channels(g1) == (
        "c0 root=o[0] out=o[0] inputs=[H i[0], H i[1], L low[0]] table=0x8f/3\n"
        "c1 root=o[1] out=o[1] inputs=[H i[0], H i[1]] table=0xf/2\n")
