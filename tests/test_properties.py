"""Property-based checks over randomized channels and expressions."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.bitgraph import BitRef, eval_node
from qflow.channelizer import Channel
from qflow.qif_engine import channel_prob_pbv, source_leakage

from conftest import analyze_source
from test_channelizer import channel_values, pipeline_to_graph


def table_channel(bits, kinds):
    inputs = tuple(
        BitRef("x", i, "input-high" if k else "input-low")
        for i, k in enumerate(kinds))
    table = sum(b << a for a, b in enumerate(bits))
    return Channel(cid=0, inputs=inputs, table=table, macro=None, root=None)


def channels(max_k=4):
    return st.integers(1, max_k).flatmap(lambda k: st.tuples(
        st.lists(st.integers(0, 1), min_size=1 << k, max_size=1 << k),
        st.lists(st.booleans(), min_size=k, max_size=k),
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=k, max_size=k)))


def enum_reference(ch, probs):
    p1 = 0.0
    best = {}
    k = len(ch.inputs)
    for a in range(1 << k):
        mass = 1.0
        low, high = [], []
        for i in range(k):
            bit = (a >> i) & 1
            mass *= probs[i] if bit else 1.0 - probs[i]
            (high if ch.inputs[i].role == "input-high" else low).append(bit)
        o = (ch.table >> a) & 1
        if o:
            p1 += mass
        cur = best.setdefault((o, tuple(low)), {})
        hk = tuple(high)
        cur[hk] = cur.get(hk, 0.0) + mass
    pbv = sum(max(d.values()) for d in best.values())
    if not any(ci.role == "input-high" for ci in ch.inputs):
        pbv = 1.0
    return p1, pbv


@settings(max_examples=150, deadline=None)
@given(channels())
def test_channel_matches_enumeration(data):
    bits, kinds, probs = data
    ch = table_channel(bits, kinds)
    want_p, want_v = enum_reference(ch, probs)
    p1, pbv = channel_prob_pbv(ch, probs)
    assert abs(p1 - want_p) < 1e-12
    assert abs(pbv - want_v) < 1e-12


@settings(max_examples=150, deadline=None)
@given(channels())
def test_pbv_within_bounds(data):
    bits, kinds, probs = data
    ch = table_channel(bits, kinds)
    prior = 1.0
    for p, ci in zip(probs, ch.inputs):
        if ci.role == "input-high":
            prior *= max(p, 1.0 - p)
    _p1, pbv = channel_prob_pbv(ch, probs)
    assert prior - 1e-12 <= pbv <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0, allow_nan=False))
def test_source_leakage_symmetric(p):
    a, b = source_leakage(p), source_leakage(1.0 - p)
    assert abs(a - b) < 1e-12
    assert 0.0 <= a <= 1.0
    assert a <= source_leakage(0.5)


# -- random read-once expressions: bit-blast semantics ----------------------

binops = {"&": lambda a, b: a & b, "|": lambda a, b: a | b,
          "^": lambda a, b: a ^ b}


@st.composite
def expressions(draw, depth=3):
    n = draw(st.integers(1, 5))
    names = [f"i{k}" for k in range(n)]

    def node(d, avail):
        if d == 0 or len(avail) == 1 or draw(st.booleans()):
            name = avail[0]
            return name, lambda env: env[name]
        cut = draw(st.integers(1, len(avail) - 1))
        op = draw(st.sampled_from(sorted(binops)))
        lt, lf = node(d - 1, avail[:cut])
        rt, rf = node(d - 1, avail[cut:])
        fn = binops[op]
        return f"({lt} {op} {rt})", lambda env: fn(lf(env), rf(env))

    text, fn = node(depth, names)
    if draw(st.booleans()):
        text, inner = f"(~{text})", fn
        fn = lambda env: 1 - inner(env)
    return names, text, fn


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_expression_semantics_preserved(data):
    names, text, fn = data
    ports = ", ".join(f"input {n}" for n in names)
    src = f"module m({ports}, output y);\nassign y = {text};\nendmodule\n"
    a = analyze_source(src, "m")
    tree = next(t for t in a.forest if t.root.net == "y")
    for word in range(1 << len(names)):
        env = {n: (word >> i) & 1 for i, n in enumerate(names)}
        leaf_env = {leaf: env[leaf.net] for leaf in tree.leaves()}
        assert eval_node(tree.node, leaf_env) == fn(env)


# -- random modules whose wires later wires read 1-3 times ------------------

@st.composite
def shared_wire_modules(draw):
    """Wires ``w{i}`` over k[2:0] (high), l[1:0] and one earlier wire read 1-3 times."""
    bits = [f"k[{i}]" for i in range(3)] + [f"l[{i}]" for i in range(2)]
    n = draw(st.integers(1, 5))
    lines = []
    for i in range(n):
        terms = draw(st.lists(st.sampled_from(bits), min_size=1, max_size=2))
        if i:
            terms += [f"w{draw(st.integers(0, i - 1))}"] * draw(st.integers(1, 3))
        terms = draw(st.permutations(terms))
        expr = terms[0]
        for term in terms[1:]:
            op = draw(st.sampled_from(["&", "|", "^", "?"]))
            if op == "?":
                expr = f"({draw(st.sampled_from(bits))} ? {expr} : {term})"
            else:
                expr = f"({expr} {op} {term})"
        if draw(st.booleans()):
            expr = f"~{expr}"
        lines.append(f"assign w{i} = {expr};")
    # z reads an earlier wire too, so a wire can be shared by two outputs
    z = draw(st.integers(0, n - 1))
    return "\n".join([
        "module m(High input [2:0] k, input [1:0] l, output y, output z);",
        "wire " + ", ".join(f"w{i}" for i in range(n)) + ";",
        *lines, f"assign y = w{n - 1};", f"assign z = w{z} ^ l[0];", "endmodule", ""])


def gate_count(node, seen):
    if id(node) in seen or not node.children:
        return 0
    seen.add(id(node))
    return 1 + sum(gate_count(c, seen) for c in node.children)


@settings(max_examples=60, deadline=None)
@given(shared_wire_modules())
def test_shared_wires_channelize_exactly(src):
    for bound in range(1, 6):
        forest, graph = pipeline_to_graph(src, "m", bound)
        gates = sum(gate_count(t.node, set()) for t in forest)
        assert len(graph.channels) <= gates + len(forest)
        leaves = sorted({leaf for t in forest for leaf in t.leaves()}, key=str)
        for word in range(1 << len(leaves)):
            values = {leaf: (word >> i) & 1 for i, leaf in enumerate(leaves)}
            got = channel_values(graph, values)
            for tree in forest:
                assert got[graph.root_channel[tree.root]] == eval_node(tree.node, values)
