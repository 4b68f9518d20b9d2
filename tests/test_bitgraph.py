"""Bit-blasting, bind trees, and the dependency graph."""

import hashlib
import itertools
import operator
import random

import pytest

from qflow import corpus
from qflow.bitgraph import (
    CONST0,
    CONST1,
    BindTree,
    BitRef,
    Node,
    bit_blast,
    compute_dependencies,
    dump_forest,
    eval_node,
    lane_masks,
)
from qflow.channelizer import merge
from qflow.errors import CombinationalLoop
from qflow.frontend import SourceUnit, elaborate, extract_labels, parse
from qflow.pipeline import Config, analyze


def design_of(src, top):
    ast = parse(SourceUnit([("<t>", src)], top))
    return elaborate(ast, top, extract_labels(ast, top))


def forest_of(src, top, **kw):
    return bit_blast(design_of(src, top), **kw)


def tree_fn(tree):
    """Python callable over the tree's leaf assignment dict."""
    def fn(values):
        return eval_node(tree.node, values)
    return fn


def exhaustive_equal(src, top, py_fn, in_nets):
    """Compare every output bit of the forest against a reference function.

    ``py_fn(values_by_net) -> {net: int}`` computes expected output words.
    """
    design = design_of(src, top)
    forest = bit_blast(design)
    widths = {n: design.nets[n].width for n in in_nets}
    for combo in itertools.product(*[range(1 << widths[n]) for n in in_nets]):
        words = dict(zip(in_nets, combo))
        values = {}
        for tree in forest:
            for leaf in tree.leaves():
                if leaf.net in words:
                    values[leaf] = (words[leaf.net] >> leaf.bit) & 1
        expect = py_fn(words)
        for tree in forest:
            got = eval_node(tree.node, values)
            want = (expect[tree.root.net] >> tree.root.bit) & 1
            assert got == want, (tree.root, words)


EXAMPLE = corpus.read("example.v")


def test_example_forest_roots():
    forest = forest_of(EXAMPLE, "example")
    roots = sorted(str(t.root) for t in forest)
    assert roots == ["o[0]", "o[1]"]


def test_example_forest_semantics():
    def ref(w):
        i, low = w["i"], w["low"]
        k = (i >> 1) & low
        t = 1 - low
        s = (i & 1) & k
        u = (i & 1) & ((i >> 1) & 1)
        o0 = s ^ t
        o1 = u | 1
        return {"o": o0 | (o1 << 1)}
    exhaustive_equal(EXAMPLE, "example", ref, ["i", "low"])


def test_identity_wire_is_leaf():
    forest = forest_of(
        "module m(input h, output y);\nassign y = h;\nendmodule\n", "m")
    assert len(forest) == 1
    assert forest[0].node.op == "leaf"
    assert forest[0].node.ref == BitRef("h", 0, "input-low")


def test_operator_semantics_exhaustive():
    src = """module m(input [2:0] a, input [2:0] b, output [2:0] add,
output [2:0] sub, output eq, output lt, output ge, output red,
output [2:0] mux, output [2:0] sh);
assign add = a + b;
assign sub = a - b;
assign eq = a == b;
assign lt = a < b;
assign ge = a >= b;
assign red = ^a | &b | ~|a;
assign mux = a[0] ? a : b;
assign sh = a << b[0];
endmodule
"""
    def ref(w):
        a, b = w["a"], w["b"]
        return {
            "add": (a + b) & 7,
            "sub": (a - b) & 7,
            "eq": int(a == b),
            "lt": int(a < b),
            "ge": int(a >= b),
            "red": ((a ^ (a >> 1) ^ (a >> 2)) & 1) | int(b == 7) | int(a == 0),
            "mux": a if a & 1 else b,
            "sh": (a << (b & 1)) & 7,
        }
    exhaustive_equal(src, "m", ref, ["a", "b"])


def test_concat_repl_partselect():
    src = """module m(input [3:0] a, output [3:0] y, output [3:0] z, output [1:0] n);
assign y = {a[1:0], a[3:2]};
assign z = {2{a[1:0]}};
assign n = a[0:-1];
endmodule
"""
    def ref(w):
        a = w["a"]
        lo, hi = a & 3, (a >> 2) & 3
        # a bit below 0 reads as 0, like one above the MSB
        return {"y": (lo << 2) | hi, "z": (a & 3) | ((a & 3) << 2),
                "n": (a & 1) << 1}
    exhaustive_equal(src, "m", ref, ["a"])


@pytest.mark.parametrize("step", ["c[i+1] = c[i] ^ k[i]",
                                  "c[i+1:i+1] = c[i:i] ^ k[i]"],
                         ids=["bit_select", "part_select"])
def test_generate_carry_chain(step):
    src = f"""module m(input [3:0] k, input c0, output [4:0] c);
assign c[0] = c0;
genvar i;
generate
for (i = 0; i < 4; i = i + 1) begin
assign {step};
end
endgenerate
endmodule
"""
    def ref(w):
        c = w["c0"]
        for i in range(4):
            c |= (((c >> i) ^ (w["k"] >> i)) & 1) << (i + 1)
        return {"c": c}
    exhaustive_equal(src, "m", ref, ["k", "c0"])


def test_ripple_carry_adder():
    src = """module m(input [3:0] a, input [3:0] b, input cin,
output [3:0] s, output cout);
wire [4:0] c;
assign c[0] = cin;
genvar i;
generate
for (i = 0; i < 4; i = i + 1) begin
assign s[i] = a[i] ^ b[i] ^ c[i];
assign c[i+1] = (a[i] & b[i]) | (c[i] & (a[i] ^ b[i]));
end
endgenerate
assign cout = c[4];
endmodule
"""
    def ref(w):
        total = w["a"] + w["b"] + w["cin"]
        return {"s": total & 15, "cout": total >> 4}
    exhaustive_equal(src, "m", ref, ["a", "b", "cin"])


def test_wide_compare_stays_gates():
    ops = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}
    for (op, cmp), w in itertools.product(ops.items(), range(5, 9)):
        src = (f"module m(input [{w-1}:0] a, input [{w-1}:0] b, output y);\n"
               f"assign y = a {op} b;\nendmodule\n")
        forest = forest_of(src, "m")
        assert all(ch.macro is None for ch in merge(forest).channels)
        refs = [BitRef(n, i, "input-low") for n in "ab" for i in range(w)]
        lanes = eval_node(forest[0].node, dict(zip(refs, lane_masks(2 * w))),
                          (1 << (1 << 2 * w)) - 1)
        for lane in range(1 << 2 * w):
            a, b = lane & ((1 << w) - 1), lane >> w
            assert (lanes >> lane) & 1 == cmp(a, b), (w, a, b)


def test_macro_eval_matches_arith():
    src = """module m(input [4:0] a, input [4:0] b, output [4:0] s, output lt,
output [4:0] t, output eq);
assign s = a - b;
assign lt = a < b;
assign t = a + b;
assign eq = a == b;
endmodule
"""
    def ref(w):
        a, b = w["a"], w["b"]
        return {"s": (a - b) & 31, "lt": int(a < b), "t": (a + b) & 31,
                "eq": int(a == b)}
    exhaustive_equal(src, "m", ref, ["a", "b"])


def random_node(rng, refs, depth):
    """A random tree over ``refs`` with gates, MUX, NOT, constants and macros."""
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        return (CONST0 if r < 0.1 else CONST1 if r < 0.2
                else Node("leaf", ref=rng.choice(refs)))
    op = rng.choice(["AND", "OR", "XOR", "NOT", "MUX", "ADDM", "SUBM"])
    if op in ("ADDM", "SUBM"):
        w = rng.randint(1, 3)
        kids = tuple(random_node(rng, refs, depth - 2) for _ in range(2 * w))
        return Node(op, kids, meta=(w, rng.randrange(w)))
    arity = {"NOT": 1, "MUX": 3}.get(op, 2)
    return Node(op, tuple(random_node(rng, refs, depth - 1) for _ in range(arity)))


def test_eval_node_lanes_match_scalar():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 5)
        refs = [BitRef("x", i, "input-low") for i in range(n)]
        node = random_node(rng, refs, 5)
        ones = (1 << (1 << n)) - 1
        values = dict(zip(refs, lane_masks(n)))
        packed = eval_node(node, values, ones)
        assert 0 <= packed <= ones
        memo = {}
        assert eval_node(node, values, ones, memo) == packed
        # ``node`` is shared by both children, so the memo serves the second
        assert eval_node(Node("XOR", (node, Node("NOT", (node,)))), values, ones, memo) == ones
        for lane in range(1 << n):
            scalar = eval_node(node, {r: (lane >> i) & 1 for i, r in enumerate(refs)})
            assert scalar in (0, 1)
            assert (packed >> lane) & 1 == scalar, (node, lane)


def test_bitref_value_semantics():
    ref = BitRef("k", 3, "input-high")
    assert repr(ref) == "BitRef(net='k', bit=3, role='input-high')"
    assert repr(BitRef("q", 0, "register")) == "BitRef(net='q', bit=0, role='register')"
    assert str(ref) == "k[3]"
    twin = BitRef("k", 3, "input-high")
    assert twin == ref and hash(twin) == hash(ref)
    assert {ref: 1}[twin] == 1
    for other in (BitRef("k", 3, "input-low"), BitRef("k", 2, "input-high"),
                  BitRef("kk", 3, "input-high")):
        assert other != ref
    # channel inputs mix BitRefs and int channel ids in one dict
    for cid in (0, 3, 7, hash(ref)):
        assert ref != cid and cid != ref
    assert len({ref: "bit", hash(ref): "channel"}) == 2


def test_node_identity_and_slots():
    leaf = Node("leaf", ref=BitRef("k", 0, "input-high"))
    a, b = Node("NOT", (leaf,)), Node("NOT", (leaf,))
    assert a != b and a == a
    assert len({a: 1, b: 2}) == 2
    tree = BindTree(BitRef("y", 0, "top-output"), a)
    for obj in (leaf, a, CONST0, CONST1, tree):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_lane_masks_formula_and_cache():
    for n in range(17):
        masks = lane_masks(n)
        assert isinstance(masks, tuple) and len(masks) == n
        assert lane_masks(n) is masks
        for i, mask in enumerate(masks):
            # bit j is set iff bit i of j is
            digits = "".join("1" if (j >> i) & 1 else "0" for j in reversed(range(1 << n)))
            assert mask == int(digits, 2), (n, i)


def test_leaves_visit_shared_nodes_once():
    ref = BitRef("q", 0, "register")
    node = Node("leaf", ref=ref)
    for _ in range(20):
        node = Node("XOR", (node, node))  # 2^20 root-to-leaf paths
    tree = BindTree(ref, node)
    assert tree.leaves() == [ref]
    deps = compute_dependencies([tree])
    assert deps.edges == {(ref, ref)}
    assert deps.cycles == [{ref}]


def test_combinational_loop_detected():
    src = """module m(input b, output y);
wire a;
assign a = a ^ b;
assign y = a;
endmodule
"""
    with pytest.raises(CombinationalLoop):
        forest_of(src, "m")


def test_sequential_self_loop_allowed():
    src = """module m(input clk, input d, output reg q);
always @(posedge clk) begin
q <= q ^ d;
end
endmodule
"""
    forest = forest_of(src, "m")
    regs = [t for t in forest if t.root.role == "register"]
    assert len(regs) == 1
    deps = compute_dependencies(forest)
    assert deps.cycles  # self-loop across the sequential cut


def test_dependency_order_in_a_cycle():
    src = """module m(input clk, High input k, input a, output y);
reg [2:0] s;
reg t;
always @(posedge clk) begin
s <= {s[1] ^ t, s[0] ^ s[2], s[2] ^ k};
t <= s[0] & s[1] & a;
end
assign y = t;
endmodule
"""
    # s[1], s[2] and t[0] each read two registers: successors go in str order
    deps = compute_dependencies(forest_of(src, "m"))
    assert [[str(v) for v in scc] for scc in deps.order] == [
        ["t[0]", "s[1]", "s[2]", "s[0]"], ["y[0]"]]


@pytest.mark.parametrize("files,top,digest", [
    (("toy_spn.v",), "toy_spn",
     "a4d2467b63b966e070682a0d566151aaf57ce75f0d31f2603fff3e7059e89241"),
    (("aes_t2300.v", "aes_t2300_top.v"), "top",
     "308c55a8595562014ba1e58fcb4c5b69b9e8425d93197e82cc970663f483a7a8"),
], ids=["toy_spn", "aes_t2300"])
def test_dependency_order_pinned(files, top, digest):
    a = analyze(Config(files=[corpus.path(f) for f in files], top=top))
    assert hashlib.sha256(repr(a.deps.order).encode()).hexdigest() == digest


def test_t2100_register_chain_dependencies():
    d = design_of(corpus.read("aes_t2100.v"), "TSC")
    forest = bit_blast(d)
    regs = [t for t in forest if t.root.role == "register"]
    assert len(regs) == 320
    deps = compute_dependencies(forest)
    # load[i] depends on tmp3[i], which depends on tmp2[i], and so on
    edges = {(str(a), str(b)) for a, b in deps.edges}
    assert ("load[0]", "tmp3[0]") in edges
    assert ("tmp3[0]", "tmp2[0]") in edges
    assert not deps.cycles


def test_dump_forest_stable():
    forest = forest_of(EXAMPLE, "example")
    text = dump_forest(forest)
    assert text == dump_forest(forest_of(EXAMPLE, "example"))
    assert text == ("o[0] = (XOR (AND i[0] (AND i[1] low[0])) (NOT low[0]))\n"
                    "o[1] = (OR (AND i[0] i[1]) 1)\n")


def test_dump_forest_names_shared_gates():
    src = """module m(input [3:0] a, output y, output z);
wire t, u;
assign t = a[0] & a[1];
assign u = (t ^ a[2]) | (t ^ a[3]);
assign y = u ^ u;
assign z = t | a[2];
endmodule
"""
    # a gate reached twice within a root is bound once; z reaches t once
    assert dump_forest(forest_of(src, "m")) == (
        "y[0] = (XOR %1 %1)\n"
        "  %1 = (OR (XOR %0 a[2]) (XOR %0 a[3]))\n"
        "  %0 = (AND a[0] a[1])\n"
        "z[0] = (OR (AND a[0] a[1]) a[2])\n")


def test_dump_forest_linear_on_reconvergent_chain():
    def dump_size(stages):
        lines = ["module m(input [%d:0] a, output y);" % stages,
                 "wire " + ", ".join(f"w{i}" for i in range(stages + 1)) + ";",
                 "assign w0 = a[0];"]
        lines += [f"assign w{i + 1} = (w{i} & a[{i + 1}]) ^ (w{i} | a[{i + 1}]);"
                  for i in range(stages)]
        lines += [f"assign y = w{stages};", "endmodule"]
        return len(dump_forest(forest_of("\n".join(lines), "m")))

    # a tree rendering doubles per stage; bindings add one line per stage
    assert dump_size(16) < 2.2 * dump_size(8)
