"""Bit-blasting, bind trees, and the channel dependency graph built on them."""

import hashlib
import itertools
import operator
import random
from pathlib import Path

import pytest

from qflow import corpus
from qflow.bitgraph import (
    CONST0,
    CONST1,
    BindTree,
    BitRef,
    Node,
    ShiftedTree,
    bit_blast,
    dump_forest,
    eval_node,
    lane_masks,
    postorder,
)
from qflow.channelizer import dump_channels, merge
from qflow.errors import CombinationalLoop, UnassignedNet
from qflow.frontend import SourceUnit, elaborate, extract_labels, parse
from qflow.frontend import ast_nodes as A
from qflow.oracle import exact_multiplicative_leakage, flatten_forest, synthetic_design
from qflow.pipeline import Config, analyze
from qflow.qif_engine import (accumulate_totals, channel_prob_pbv, compute_dependencies,
                               propagate)

from conftest import analysis_outputs, analyze_source


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
output [2:0] mux, output [2:0] sh, output [2:0] pos, output [2:0] neg,
output lnot, output [2:0] xnor, output [2:0] shl1, output [2:0] shr2,
output [2:0] shl4, output land, output lor, output ne, output le, output gt,
output nand, output rxnor, output dsel);
assign add = a + b;
assign sub = a - b;
assign eq = a == b;
assign lt = a < b;
assign ge = a >= b;
assign red = ^a | &b | ~|a;
assign mux = a[0] ? a : b;
assign sh = a << b[0];
assign pos = +a;
assign neg = -a;
assign lnot = !a;
assign xnor = a ~^ b;
assign shl1 = a << 1;
assign shr2 = a >> 2;
assign shl4 = a << 4;
assign land = a && b;
assign lor = a || b;
assign ne = a != b;
assign le = a <= b;
assign gt = a > b;
assign nand = ~&a;
assign rxnor = ~^a;
assign dsel = a[b[1:0]];
endmodule
"""
    def ref(w):
        a, b = w["a"], w["b"]
        parity = (a ^ (a >> 1) ^ (a >> 2)) & 1
        return {
            "add": (a + b) & 7,
            "sub": (a - b) & 7,
            "eq": int(a == b),
            "lt": int(a < b),
            "ge": int(a >= b),
            "red": parity | int(b == 7) | int(a == 0),
            "mux": a if a & 1 else b,
            "sh": (a << (b & 1)) & 7,
            "pos": a,
            "neg": -a & 7,
            "lnot": int(a == 0),
            "xnor": ~(a ^ b) & 7,
            "shl1": (a << 1) & 7,
            "shr2": a >> 2,
            "shl4": 0,
            "land": int(bool(a) and bool(b)),
            "lor": int(bool(a) or bool(b)),
            "ne": int(a != b),
            "le": int(a <= b),
            "gt": int(a > b),
            "nand": int(a != 7),
            "rxnor": 1 - parity,
            "dsel": (a >> (b & 3)) & 1,  # a[3] is past the MSB: 0
        }
    exhaustive_equal(src, "m", ref, ["a", "b"])


@pytest.mark.parametrize("op", ["+", "-"])
@pytest.mark.parametrize("width", [5, 6])
def test_macro_channels_take_the_closed_form_in_propagate(op, width):
    # past EXPAND_LIMIT each sum bit is one ADDM/SUBM channel, which
    # ``propagate`` hands to the closed form of ``channel_prob_pbv``
    hi = width - 1
    a = analyze(Config(files=["m.v"], top="m", p_high=0.3), file_texts=[("m.v", (
        f"module m(input [{hi}:0] a, // qflow: high\ninput [{hi}:0] b,\n"
        f"output [{hi}:0] y);\nassign y = a {op} b;\nendmodule\n"))])
    macros = [ch for ch in a.graph.channels if ch.macro is not None]
    assert [ch.macro.op for ch in macros] == ["ADDM" if op == "+" else "SUBM"] * width
    for ch in macros:
        probs = [a.annotated.chan_prob[ci] if isinstance(ci, int)
                 else 0.3 if ci.role == "input-high" else 0.5 for ci in ch.inputs]
        assert a.annotated.chan_prob[ch.cid] == channel_prob_pbv(ch, probs)[0]
        assert a.annotated.chan_pbv[ch.cid] == 1.0


def test_constant_select_outside_its_net_reads_zero():
    # a net's bit by a number is read straight from the net: past its top
    # bit, or below bit 0 where a genvar runs from -1, it reads 0
    src = ("module m(input [3:0] k, input [3:0] a, output [3:0] y);\n"
           "assign y[0] = k[9] ^ a[0];\ngenvar i;\ngenerate\n"
           "for (i = -1; i < 2; i = i + 1) begin\nassign y[i + 2] = a[i] ^ k[i + 1];\nend\n"
           "endgenerate\nendmodule\n")
    reads = [a.expr.left for a in design_of(src, "m").assigns]
    assert A.Select("k", A.Num(9)) in reads and A.Select("a", A.Num(-1)) in reads

    def py(w):
        k, a = w["k"], w["a"]
        return {"y": (a & 1) | (k & 1) << 1 | ((a ^ k >> 1) & 3) << 2}

    exhaustive_equal(src, "m", py, ["k", "a"])


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
        # ``node`` is shared by both children: one walk lists it once
        shared = Node("XOR", (node, Node("NOT", (node,))))
        assert len(postorder((shared,))) == len(postorder((node,))) + 2
        assert eval_node(shared, values, ones) == ones
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
    graph = merge([tree])
    assert graph.root_channel == {ref: 0}
    deps = compute_dependencies(graph)
    assert deps.edges == {(0, ref)}  # q's channel reads q
    assert deps.cycles == [{0}]


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
    graph = merge(forest)
    deps = compute_dependencies(graph)
    # self-loop across the sequential cut
    assert deps.cycles == [{graph.root_channel[regs[0].root]}]


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
    # one channel per root; s[1], s[2] and t[0] each read two registers,
    # and a channel's successors go in input order
    graph = merge(forest_of(src, "m"))
    deps = compute_dependencies(graph)
    assert [[str(graph.channels[cid].root) for cid in scc] for scc in deps.order] == [
        ["t[0]", "s[1]", "s[2]", "s[0]"], ["y[0]"]]
    assert deps.cycles == [set(deps.order[0])]


@pytest.mark.parametrize("files,top,digest", [
    (("toy_spn.v",), "toy_spn",
     "3d23b1efaae6f5a8aee98bd78ecbdab549524e7a06517bd02e1f76d46e4aa461"),
    (("aes_t2300.v", "aes_t2300_top.v"), "top",
     "3ca17ce29e05483d0e61e302cd04f4a384fdf3355e3f31b5e937b9b6d60f26e7"),
], ids=["toy_spn", "aes_t2300"])
def test_dependency_order_pinned(files, top, digest):
    runs = [analyze(Config(files=[corpus.path(f) for f in files], top=top))
            for _ in range(2)]
    assert runs[0].deps.order == runs[1].deps.order  # the same order every run
    assert hashlib.sha256(repr(runs[0].deps.order).encode()).hexdigest() == digest


def test_t2100_register_chain_dependencies():
    d = design_of(corpus.read("aes_t2100.v"), "TSC")
    forest = bit_blast(d)
    regs = [t for t in forest if t.root.role == "register"]
    assert len(regs) == 320
    graph = merge(forest)
    deps = compute_dependencies(graph)
    # load[i]'s root channel reads tmp3[i], whose root channel reads tmp2[i], and so on
    load, tmp3, tmp2 = (BitRef(n, 0, "register") for n in ("load", "tmp3", "tmp2"))
    assert (graph.root_channel[load], tmp3) in deps.edges
    assert (graph.root_channel[tmp3], tmp2) in deps.edges
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


def recursive_postorder(roots):
    """The reference for ``postorder``: a recursive walk that skips met nodes."""
    order, seen = [], set()

    def visit(node):
        if node in seen:
            return
        seen.add(node)
        for child in node.children:
            visit(child)
        order.append(node)

    for root in roots:
        visit(root)
    return order


def random_dag(rng, refs, size):
    """``size`` gates, each over earlier nodes, so later gates share earlier ones."""
    nodes = [CONST0, CONST1] + [Node("leaf", ref=r) for r in refs]
    for _ in range(size):
        op = rng.choice(["AND", "OR", "XOR", "NOT", "MUX", "ADDM"])
        arity = {"NOT": 1, "MUX": 3, "ADDM": 4}.get(op, 2)
        # mostly recent nodes, for depth; any node, for sharing across levels
        kids = tuple(rng.choice(nodes[-6:] if rng.random() < 0.7 else nodes)
                     for _ in range(arity))
        nodes.append(Node(op, kids, meta=(2, 1) if op == "ADDM" else None))
    return nodes


def test_postorder_matches_recursive_walk():
    rng = random.Random(15)
    refs = [BitRef("x", i, "input-low") for i in range(4)]
    for _ in range(200):
        nodes = random_dag(rng, refs, rng.randint(1, 40))
        roots = rng.sample(nodes, rng.randint(1, 4)) + [nodes[-1]]
        order = postorder(roots)
        assert order == recursive_postorder(roots)
        assert len(set(order)) == len(order)
        ones = (1 << 16) - 1
        values = dict(zip(refs, lane_masks(4)))
        leaves = [n for n in nodes if n.op == "leaf"]
        for root in roots:
            assert eval_node(root, values, ones) == scalar_lanes(root, leaves)


def scalar_lanes(node, refs):
    """``node``'s lane mask, from one recursive scalar evaluation per lane."""
    def value(n, env):
        if n not in env:
            kids = [value(c, env) for c in n.children]
            if n.op == "ADDM":  # bit 1 of a 2-bit sum
                env[n] = ((kids[0] + 2 * kids[1] + kids[2] + 2 * kids[3]) >> 1) & 1
            elif n.op == "MUX":
                env[n] = kids[1] if kids[0] else kids[2]
            elif n.op == "NOT":
                env[n] = 1 - kids[0]
            elif n.children:
                env[n] = {"AND": operator.and_, "OR": operator.or_,
                          "XOR": operator.xor}[n.op](*kids)
            else:
                env[n] = int(n.op == "const1")
        return env[n]

    lanes = 0
    for lane in range(1 << len(refs)):
        env = {leaf: (lane >> i) & 1 for i, leaf in enumerate(refs)}
        lanes |= value(node, env) << lane
    return lanes


def test_deep_dag_takes_any_depth():
    """5,000 levels, two DAG levels each, far past the default recursion limit."""
    highs = [BitRef("h", i, "input-high") for i in range(4)]
    lows = [BitRef("l", i, "input-low") for i in range(4)]
    refs = highs + lows
    leaves = [Node("leaf", ref=r) for r in refs]
    masks = dict(zip(refs, lane_masks(8)))
    ones = (1 << 256) - 1
    node, want = leaves[0], masks[refs[0]]
    for i in range(1, 5001):
        # each level reads the last one twice: (w & x) ^ ~w
        x = leaves[i % 8]
        node = Node("XOR", (Node("AND", (node, x)), Node("NOT", (node,))))
        want = (want & masks[x.ref]) ^ (ones ^ want)
    root = BitRef("o0", 0, "top-output")
    forest = [BindTree(root, node)]
    design = synthetic_design(4, 4, 1)

    assert eval_node(node, masks, ones) == want
    assert sorted(forest[0].leaves()) == sorted(refs)
    graph = merge(forest)
    assert graph.root_channel == {root: len(graph.channels) - 1}
    deps = compute_dependencies(graph)
    # no register: each channel is its own SCC, in id order
    assert deps.order == [[cid] for cid in range(len(graph.channels))]
    assert not deps.cycles and not deps.edges
    assert len(graph.channels) > 1000  # one cut per few levels
    dump = dump_forest(forest)
    assert dump.count("\n") == 5000  # the root's line, a binding per inner level
    assert dump_channels(graph).count("\n") == len(graph.channels)
    annotated = propagate(graph, design, {}, deps)
    totals = accumulate_totals(annotated, design, cap=False)
    assert sorted(totals) == list(range(4))
    _ratio, exact = exact_multiplicative_leakage(flatten_forest(forest, design))
    assert 0.0 <= exact <= 1.0  # one output bit


# -- bit-parallel register statements ------------------------------------------

def bit_parallel_twins(seed):
    """A seeded design of 1-4 bit-parallel register statements, each 2-9
    bits wide, and its hand-unrolled twin, which writes every bit as a
    1-bit statement of its own: ``r0[0] <= h[2] ^ r1[0];``.

    An operand is a high or low input, another register, the statement's
    own register or a whole-net alias wire, read whole or as a part-select
    at an offset inside a wider net; now and then it is narrower than the
    statement or reaches past its net, which the rule declines.  A
    statement may be a bare operand, and two may buffer one register.
    """
    rng = random.Random(seed)
    widths = [rng.randint(2, 9) for _ in range(rng.randint(1, 4))]
    nets = {"h": rng.randint(9, 12), "l": rng.randint(9, 12),
            **{f"r{i}": w for i, w in enumerate(widths)}}
    aliases = {f"v{i}": rng.choice(sorted(nets)) for i in range(rng.randint(0, 2))}
    nets.update({v: nets[x] for v, x in aliases.items()})

    def operand(width):
        net = rng.choice(sorted(nets))
        read = width if rng.random() < 0.9 else rng.randint(1, width)  # narrower
        top = max(nets[net] - read, 0) if rng.random() < 0.9 else nets[net]  # past the net
        return net, rng.randint(0, top), read

    def expr(width, depth):
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            return operand(width)
        if roll < 0.5:
            return ("~", expr(width, depth - 1))
        return (rng.choice(["&", "|", "^", "~^"]), expr(width, depth - 1),
                expr(width, depth - 1))

    def vector(e):
        if len(e) == 2:
            return f"~({vector(e[1])})"
        if type(e[0]) is str and e[0] in ("&", "|", "^", "~^"):
            return f"({vector(e[1])} {e[0]} {vector(e[2])})"
        net, off, read = e
        if off == 0 and read == nets[net] and rng.random() < 0.5:
            return net
        return f"{net}[{off + read - 1}:{off}]"

    def bit(e, j):
        if len(e) == 2:
            return f"~({bit(e[1], j)})"
        if type(e[0]) is str and e[0] in ("&", "|", "^", "~^"):
            return f"({bit(e[1], j)} {e[0]} {bit(e[2], j)})"
        net, off, read = e
        return f"{net}[{off + j}]" if j < read else "1'b0"  # zero-extended

    stmts = []
    buffered = operand(2)[0]
    for i, w in enumerate(widths):
        if i > 0 and rng.random() < 0.2 and nets[buffered] >= w:  # a second buffer of one net
            e = (buffered, 0, w)
        else:
            e = expr(w, rng.randint(0, 3))
        stmts.append((f"r{i}", w, e))
    head = ("module m(input clk, High input [{}:0] h, input [{}:0] l, output [{}:0] y);\n"
            .format(nets["h"] - 1, nets["l"] - 1, sum(widths) - 1)
            + "".join(f"reg [{w - 1}:0] r{i};\n" for i, w in enumerate(widths))
            + "".join(f"wire [{nets[v] - 1}:0] {v};\nassign {v} = {x};\n"
                      for v, x in aliases.items()))
    tail = "assign y = {" + ", ".join(f"r{i}" for i in range(len(widths))) + "};\nendmodule\n"
    clocked = "always @(posedge clk) begin\n{}end\n"
    vec = head + clocked.format("".join(f"{r} <= {vector(e)};\n" for r, _w, e in stmts)) + tail
    twin = head + clocked.format("".join(f"{r}[{j}] <= {bit(e, j)};\n"
                                         for r, w, e in stmts for j in range(w))) + tail
    return vec, twin


@pytest.mark.parametrize("seed", range(24))
def test_bit_parallel_statements_match_their_unrolled_twin(seed):
    vec, twin = bit_parallel_twins(seed)
    for bound in range(1, 6):
        for p_high in (None, 0.9):
            assert analysis_outputs(vec, bound, p_high) == analysis_outputs(
                twin, bound, p_high), (bound, p_high)


def test_bit_parallel_twins_take_both_paths():
    """Over the seeds of the twin test, most statements are shifted, and
    the twins themselves never are."""
    shifted = registers = 0
    for seed in range(24):
        vec, twin = bit_parallel_twins(seed)
        forest = forest_of(vec, "m")
        shifted += sum(type(t) is ShiftedTree for t in forest)
        registers += sum(t.root.role == "register" for t in forest)
        assert not any(type(t) is ShiftedTree for t in forest_of(twin, "m"))
    assert shifted > registers / 2, (shifted, registers)


PARALLEL = """module m(input clk, High input [3:0] a, input [3:0] b, input [3:0] c,
input [1:0] n, output [3:0] y);
reg [3:0] r;
{decl}always @(posedge clk) begin
{body}
end
assign y = r;
endmodule
"""


def tree_kinds(body, decl="", net=None):
    """The class of each register tree, or each of ``net``, of the design
    with ``body`` in its clocked block."""
    forest = forest_of(PARALLEL.format(decl=decl, body=body), "m")
    return [type(t).__name__ for t in forest
            if t.root.role == "register" and net in (None, t.root.net)]


def test_bit_parallel_statement_shifts_all_but_its_first_bit():
    assert tree_kinds("r <= a ^ b;") == ["BindTree"] + ["ShiftedTree"] * 3
    assert tree_kinds("r <= ~(a & c) ~^ r;") == ["BindTree"] + ["ShiftedTree"] * 3
    # a part-select inside a wider register, and a whole-net alias of an input
    assert tree_kinds("r <= q[5:2] | v;", "reg [7:0] q;\nwire [3:0] v;\nassign v = c;\n"
                      "always @(posedge clk) q <= {a, b};\n") == (
        ["BindTree"] * 9 + ["ShiftedTree"] * 3)


# each statement the rule declines, by what declines it
DECLINED = {
    "width 1": ("r[0] <= a[0] ^ b[0];\nr[1] <= a[1];\nr[2] <= b[2];\nr[3] <= c[3];", ""),
    "blocking temporary read twice": ("t = a ^ b;\nr <= t & t;", "reg [3:0] t;\n"),
    "narrower operand": ("r <= a ^ n;", ""),
    "part-select past its net": ("r <= a ^ b[4:1];", ""),
    "wire that is no alias": ("r <= w[5:2] | b;", "wire [7:0] w;\nassign w = {a, b};\n"),
    "alias of an alias": ("r <= w ^ b;", "wire [3:0] w, v;\nassign w = v;\nassign v = a;\n"),
    "mixed register and wire bits": (
        "r <= x ^ b;", "reg [3:0] x;\nalways @(posedge clk) x[1:0] <= a[1:0];\n"
        "always @* x[3:2] = b[3:2];\n"),
    "+": ("r <= a + b;", ""),
    "?:": ("r <= n[0] ? a : b;", ""),
    "constant": ("r <= a ^ 4'b0110;", ""),
    "shift": ("r <= a << 1;", ""),
    "reduction": ("r <= a ^ {4{^b}};", ""),
}


@pytest.mark.parametrize("case", DECLINED)
def test_bit_parallel_rule_declines(case):
    body, decl = DECLINED[case]
    assert tree_kinds(body, decl, "r") == ["BindTree"] * 4


def test_combinational_vector_is_not_shifted():
    src = PARALLEL.format(decl="wire [3:0] w;\nassign w = a ^ b;\n", body="r <= w;")
    src = src.replace("assign y = r;", "assign y = w;")
    assert all(type(t) is BindTree for t in forest_of(src, "m"))


def test_shared_blocking_temporary_keeps_the_eager_path():
    """``t``'s object is in both statements: the eager blaster shares its
    gates, so ``r2``'s cut at bound 2 reuses ``r1``'s channel."""
    src = """module m(input clk, High input [1:0] a, input [1:0] b, input [1:0] c,
output [1:0] y, output [1:0] z);
reg [1:0] t, r1, r2;
always @(posedge clk) begin
t = a ^ b;
r1 <= t;
r2 <= t & c;
end
assign y = r1;
assign z = r2;
endmodule
"""
    a = analyze_source(src, "m", max_channel_inputs=2)
    assert all(type(t) is BindTree for t in a.forest)
    assert " out=r1[0],t[0] " in dump_channels(a.graph)


def test_two_buffers_of_one_register_share_its_channels():
    """A buffer's shifted bit takes its leaf's sealed channel, as the walk
    does, and builds no DAG."""
    src = PARALLEL.format(decl="reg [3:0] q, p;\n", body="q <= a ^ b;\np <= q;\nr <= q;")
    a = analyze_source(src, "m")
    dump = dump_channels(a.graph)
    for bit in range(4):
        assert f" out=p[{bit}],r[{bit}] inputs=[R q[{bit}]] table=0x2/1" in dump, dump
    assert not any(has_built(t) for t in a.forest if type(t) is ShiftedTree)


def test_alias_of_an_alias_still_raises_combinational_loop():
    src = PARALLEL.format(decl="wire [3:0] v, w;\nassign v = w;\nassign w = v;\n",
                          body="r <= v ^ b;")
    with pytest.raises(CombinationalLoop):
        forest_of(src, "m")


def test_first_bit_that_cuts_walks_its_shifted_bits():
    """Three operands at bound 2: bit 0's walk cuts, so every bit is built
    and walked; at bound 3 none is built."""
    src = PARALLEL.format(decl="", body="r <= (a ^ b) & c;")
    twin = PARALLEL.format(decl="", body="".join(
        f"r[{j}] <= (a[{j}] ^ b[{j}]) & c[{j}];\n" for j in range(4)))
    for bound, built in ((2, True), (3, False)):
        a = analyze_source(src, "m", max_channel_inputs=bound)
        shifted = [t for t in a.forest if type(t) is ShiftedTree]
        assert len(shifted) == 3
        assert all(has_built(t) == built for t in shifted)
        assert analysis_outputs(src, bound, None) == analysis_outputs(twin, bound, None)


def has_built(tree):
    """Whether a shifted tree's DAG is built: ``node`` fills the slot when first read."""
    try:
        BindTree.node.__get__(tree)
    except AttributeError:
        return False
    return True


def test_shifted_tree_reads_like_a_bind_tree():
    forest = forest_of(PARALLEL.format(decl="", body="r <= a ^ b;"), "m")
    tree = forest[1]
    assert isinstance(tree, BindTree) and type(tree) is ShiftedTree
    assert not hasattr(tree, "__dict__")
    assert tree.root == BitRef("r", 1, "register")
    assert not has_built(tree)
    node = tree.node
    assert has_built(tree) and tree.node is node
    assert tree.leaves() == [BitRef("a", 1, "input-high"), BitRef("b", 1, "input-low")]
    assert dump_forest([tree]) == "r[1] = (XOR a[1] b[1])\n"


def test_trojan_pipeline_builds_no_shifted_dag(monkeypatch):
    """On the seed-1 trojan_pipeline pool, over 10,000 of the 11,136 roots
    are shifted trees, and ``analyze`` builds none of their DAGs; the
    other pools have none."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import families
    for workload in families.POOLS:
        roots = shifted = 0
        for design in families.workload_pool(workload, 1):
            a = analyze(Config(files=[p for p, _ in design.files], top=design.top,
                               high_overrides=design.high_overrides,
                               max_channel_inputs=design.max_channel_inputs),
                        file_texts=design.files)
            roots += len(a.forest)
            trees = [t for t in a.forest if type(t) is ShiftedTree]
            shifted += len(trees)
            assert not any(map(has_built, trees)), design.name
        if workload == "trojan_pipeline":
            assert roots == 11136 and shifted >= 10000, (roots, shifted)
        else:
            assert shifted == 0, workload


# a concatenation that reads its own bit: w[1] is w[0], which is k's bit
SELF_CONCAT = """module m(input [1:0] k, // qflow: high
output [{top}:0] y);
wire [{top}:0] w;
assign w = {rhs};
assign y = w;
endmodule
"""


@pytest.mark.parametrize("rhs, top, want", [
    ("{w[0], k[0]}", 1, "w[0] = k[0]\nw[1] = k[0]"),
    ("{w[1:0], k}", 3, "w[2] = k[0]\nw[3] = k[1]"),
    ("{w[0] ^ k[1], k}", 2, "w[2] = (XOR k[0] k[1])"),
])
def test_concatenation_that_reads_its_own_bit_is_no_loop(rhs, top, want):
    src = SELF_CONCAT.format(rhs=rhs, top=top)
    design = design_of(src, "m")
    forest = bit_blast(design)
    dump = dump_forest(forest)
    for line in want.split("\n"):
        assert line.replace("w[", "y[") in dump, dump
    a = analyze_source(src, "m")
    assert sorted(a.totals) == [0, 1]


def test_undriven_net_in_an_unread_part_is_not_read():
    """Only the part that holds a read bit is blasted, so an undriven
    net in a part no root reads raises nothing."""
    src = """module m(input [1:0] k, // qflow: high
output y);
wire [2:0] w;
wire u;
assign w = {u, k};
assign y = w[0];
endmodule
"""
    assert dump_forest(forest_of(src, "m")) == "y[0] = k[0]\n"
    with pytest.raises(UnassignedNet):
        forest_of(src.replace("w[0]", "w[2]"), "m")


def test_shared_expression_dag_is_walked_once():
    """An expression object read twice per level, 60 levels deep, as no
    frontend form makes today: the bit-parallel rule declines it at its
    first repeat, and a concatenation's part of that shape is measured
    once per object, not once per path."""
    from qflow.frontend.elaborate import ElaboratedDesign, FlatAssign, FlatNet
    dag = A.Binary("^", A.Ident("a"), A.Ident("b"))
    for _ in range(60):
        dag = A.Binary("^", dag, dag)
    assigns = [FlatAssign("r", 3, 0, dag, True), FlatAssign("s", 3, 0, A.PartSelect(
        "w", A.Num(4), A.Num(1)), True),
               FlatAssign("w", 4, 0, A.Concat((A.Binary("&", dag, A.Ident("a")),
                                               A.Select("a", A.Num(0)))))]
    nets = {name: FlatNet(name, w, kind) for name, w, kind in (
        ("a", 4, "input"), ("b", 4, "input"), ("r", 4, "reg"), ("s", 4, "reg"),
        ("w", 5, "wire"))}
    driver = {(f.target, bit): f for f in assigns for bit in range(f.lsb, f.msb + 1)}
    forest = bit_blast(ElaboratedDesign("m", nets, assigns, {"a": "high"}, driver))
    assert all(type(t) is BindTree for t in forest)
    assert forest[5].node.op == "AND"  # s[1] = w[2] = bit 1 of dag & a
