"""Lexing, parsing, label extraction, and elaboration."""

import hashlib
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import corpus
from qflow.bitgraph import bit_blast, dump_forest, eval_node
from qflow.errors import (
    LabelOnNonInput,
    MultipleDrivers,
    RecursiveInstantiation,
    UnknownSignal,
    UnsupportedConstruct,
    VerilogSyntaxError,
    WidthMismatch,
)
from qflow.frontend import SourceUnit, const_eval, elaborate, extract_labels, parse
from qflow.frontend import ast_nodes as A
from qflow.frontend.lexer import _PUNCT, KEYWORDS, tokenize

from conftest import analyze_source


def parse_text(src, top=None):
    return parse(SourceUnit([("<test>", src)], top))


def full(src, top, labels_override=()):
    ast = parse_text(src, top)
    labels = extract_labels(ast, top, labels_override)
    return elaborate(ast, top, labels)


# -- lexer -----------------------------------------------------------------

def test_sized_literals():
    toks, _ = tokenize("<t>", "8'hFF 4'b1010 12'o777 5'd9")
    vals = [t.value for t in toks if t.kind == "num"]
    assert vals == [(255, 8), (10, 4), (511, 12), (9, 5)]


def test_bare_binary_literal_width_is_digit_count():
    toks, _ = tokenize("<t>", "0b1 0b0011")
    vals = [t.value for t in toks if t.kind == "num"]
    assert vals == [(1, 1), (3, 4)]


def test_unsized_decimal_width_is_bit_length():
    toks, _ = tokenize("<t>", "7")
    assert toks[0].value == (7, None)


def test_x_z_literals_rejected():
    with pytest.raises(UnsupportedConstruct):
        tokenize("<t>", "4'bxx01")
    with pytest.raises(UnsupportedConstruct):
        tokenize("<t>", "4'bz1z1")


def test_high_comment_lines_recorded():
    _, lines = tokenize("<t>", "wire a; // qflow: high\nwire b;\n")
    assert lines == {1}


def test_wildcard_sensitivity_is_not_an_attribute():
    toks, _ = tokenize("<t>", "always @(*) x")
    kinds = [t.kind for t in toks]
    assert "attr" not in kinds
    assert "(" in kinds and "*" in kinds


def test_positions_after_multiline_comment_and_attribute():
    # lines advance inside the comment, and columns count from the start
    # of the line the comment or attribute closes on
    toks, _ = tokenize("<t>", "wire /* a\n  b */ x;")
    assert [(t.text, t.line, t.col) for t in toks] == [
        ("wire", 1, 1), ("x", 2, 8), (";", 2, 9), ("", 2, 10)]
    toks, _ = tokenize("<t>", "(* a,\n b *) input x;")
    assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
        ("attr", "a,\n b", 1, 1), ("kw", "input", 2, 7), ("id", "x", 2, 13),
        (";", ";", 2, 14), ("eof", "", 2, 15)]


@pytest.mark.parametrize("text, line, col, message", [
    ("a /* x", 1, 3, "unterminated block comment"),
    ("b\n  (* y", 2, 3, "unterminated attribute"),
    ("c ` d", 1, 3, "unexpected character '`'"),
    ("a   `", 1, 5, "unexpected character '`'"),
    ("/* c\n */ `", 2, 5, "unexpected character '`'"),
    ("x\n  4'b3;", 2, 3, "invalid digit in literal \"4'b3\""),
    ("x\n \t 4'b3;", 2, 4, "invalid digit in literal \"4'b3\""),
])
def test_lexer_error_positions(text, line, col, message):
    with pytest.raises(VerilogSyntaxError) as e:
        tokenize("<t>", text)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, message)


@pytest.mark.parametrize("text, want", [
    ("a \t\r ", [("a", 1, 1), ("", 1, 6)]),  # trailing blanks match nothing
    ("a\n \t", [("a", 1, 1), ("", 2, 3)]),
    ("/*/ b", [("b", 1, 5), ("", 1, 6)]),  # '/*/' is a whole comment
    ("(*)", [("(", 1, 1), ("*", 1, 2), (")", 1, 3), ("", 1, 4)]),
    ("@(*)", [("@", 1, 1), ("(", 1, 2), ("*", 1, 3), (")", 1, 4), ("", 1, 5)]),
])
def test_blank_and_wildcard_positions(text, want):
    assert [(t.text, t.line, t.col) for t in tokenize("<t>", text)[0]] == want


# (source text, its tokens as (kind, text, value)) for the position property
LEXEMES = [
    *((w, [("id", w, w)]) for w in ("a", "k_1", "x$y", "High", "_q")),
    *((w, [("kw", w, w)]) for w in sorted(KEYWORDS)),
    ("8'hFF", [("num", "8'hFF", (255, 8))]),
    ("4'b1010", [("num", "4'b1010", (10, 4))]),
    ("'d9", [("num", "'d9", (9, None))]),
    ("12'o7_7", [("num", "12'o7_7", (63, 12))]),
    ("0b0011", [("num", "0b0011", (3, 4))]),
    ("42", [("num", "42", (42, None))]),
    *((p, [(p, p, p)]) for p in _PUNCT),
    ("/* a\n b */", []),
    ("/*/", []),
    ("(* qflow_high *)", [("attr", "qflow_high", "qflow_high")]),
    ("(* a,\n b *)", [("attr", "a,\n b", "a,\n b")]),
]
# (comment, whether it marks its line high); a newline always follows one
LINE_COMMENTS = [("// qflow: high", True), ("//QFLOW :  High", True), ("// plain", False)]
BLANKS = " \t\r\n"


@st.composite
def lexeme_sources(draw):
    """(source, expected (kind, text, value) list, expected high lines)."""
    src = draw(st.text(BLANKS, max_size=3))
    want, highs = [], set()
    items = st.one_of(st.sampled_from(LEXEMES), st.sampled_from(LINE_COMMENTS))
    for item, blanks in draw(st.lists(st.tuples(items, st.text(BLANKS, min_size=1, max_size=4)),
                                      max_size=30)):
        text, toks = item
        if isinstance(toks, bool):
            if toks:
                highs.add(src.count("\n") + 1)
            toks, blanks = [], blanks + "\n"
        src += text + blanks
        want += toks
    return src, want, highs


@settings(max_examples=300, deadline=None)
@given(lexeme_sources())
def test_token_positions_point_at_their_text(case):
    src, want, highs = case
    tokens, high_lines = tokenize("<t>", src)
    # the same tokens whatever the blanks between them
    assert [(t.kind, t.text, t.value) for t in tokens[:-1]] == want
    assert high_lines == highs
    starts = list(itertools.accumulate((len(l) + 1 for l in src.split("\n")), initial=0))
    for t in tokens[:-1]:
        at = src[starts[t.line - 1] + t.col - 1:]
        if t.kind == "attr":
            assert at.startswith("(*") and at[2:].lstrip().startswith(t.text)
        else:
            assert at.startswith(t.text)
    assert tokens[-1] == ("eof", "", None, src.count("\n") + 1,
                          len(src.rsplit("\n", 1)[-1]) + 1)


# -- parser ----------------------------------------------------------------

EXAMPLE = corpus.read("example.v")


def test_example_module_shape():
    ast = parse_text(EXAMPLE, "example")
    assert list(ast.modules) == ["example"]
    mod = ast.modules["example"]
    assert mod.port_order == ["i", "low", "o"]
    assert mod.ports["i"].high
    assert not mod.ports["low"].high
    wires = [it for it in mod.items if isinstance(it, A.NetDecl)]
    assert [w.name for w in wires] == ["k", "s", "t", "u"]
    blocks = [it for it in mod.items if isinstance(it, A.Always)]
    assert len(blocks) == 1
    assert blocks[0].sens == ("comb",)
    # six blocking assignments in the procedural block
    assert len(blocks[0].body.stmts) == 6
    assert all(s.blocking for s in blocks[0].body.stmts)


def test_non_ansi_ports():
    src = """module m(a, b, y);
input a, b;
output y;
assign y = a & b;
endmodule
"""
    mod = parse_text(src).modules["m"]
    assert mod.port_order == ["a", "b", "y"]
    assert mod.ports["a"].direction == "input"
    assert mod.ports["y"].direction == "output"


def test_attribute_high_mark():
    src = """module m((* qflow_high *) input s, output y);
assign y = s;
endmodule
"""
    assert parse_text(src).modules["m"].ports["s"].high


def rhs_of(expr):
    src = f"module m(input a, output y);\nassign y = {expr};\nendmodule\n"
    return parse_text(src).modules["m"].items[0].rhs


# loosest first, as in the Verilog operator precedence table
PRECEDENCE = [
    ("||",), ("&&",), ("|",), ("^", "~^", "^~"), ("&",),
    ("==", "!=", "===", "!=="), ("<", "<=", ">", ">="), ("<<", ">>", "<<<", ">>>"),
    ("+", "-"), ("*", "/", "%"),
]
# two-valued logic and no signed nets: each means the operator it maps to
ALIASES = {"^~": "~^", "===": "==", "!==": "!=", "<<<": "<<", ">>>": ">>"}


def test_binary_operator_table():
    level = {op: i for i, ops in enumerate(PRECEDENCE) for op in ops}
    a, b, c = A.Ident("a"), A.Ident("b"), A.Ident("c")
    for op1 in level:
        for op2 in level:
            n1, n2 = (ALIASES.get(op, op) for op in (op1, op2))
            if level[op1] >= level[op2]:  # equal levels associate left
                want = A.Binary(n2, A.Binary(n1, a, b), c)
            else:
                want = A.Binary(n1, a, A.Binary(n2, b, c))
            assert repr(rhs_of(f"a {op1} b {op2} c")) == repr(want), (op1, op2)


@pytest.mark.parametrize("expr, want", [
    ("~a & b", "Binary(op='&', left=Unary(op='~', operand=Ident(name='a')), "
               "right=Ident(name='b'))"),
    ("a | ~&b", "Binary(op='|', left=Ident(name='a'), "
                "right=Unary(op='~&', operand=Ident(name='b')))"),
    ("-a + b", "Binary(op='+', left=Unary(op='-', operand=Ident(name='a')), "
               "right=Ident(name='b'))"),
    ("!a || b", "Binary(op='||', left=Unary(op='!', operand=Ident(name='a')), "
                "right=Ident(name='b'))"),
    ("a ^ ^b", "Binary(op='^', left=Ident(name='a'), "
               "right=Unary(op='^', operand=Ident(name='b')))"),
    ("a ? b : c ? d : e", "Ternary(cond=Ident(name='a'), then=Ident(name='b'), "
                          "other=Ternary(cond=Ident(name='c'), then=Ident(name='d'), "
                          "other=Ident(name='e')))"),
    ("a | b ? c : d", "Ternary(cond=Binary(op='|', left=Ident(name='a'), "
                      "right=Ident(name='b')), then=Ident(name='c'), other=Ident(name='d'))"),
    ("a ? b ? c : d : e", "Ternary(cond=Ident(name='a'), then=Ternary(cond=Ident(name='b'), "
                          "then=Ident(name='c'), other=Ident(name='d')), "
                          "other=Ident(name='e'))"),
])
def test_unary_and_ternary_shapes(expr, want):
    assert repr(rhs_of(expr)) == want


def test_deep_parentheses_parse_and_analyse():
    # 150 levels of parentheses that spell out the left-associative
    # reading: the same AST, and the same analysis, as the flat chain
    n = 150
    nested = "k[0]"
    for i in range(1, n + 1):
        nested = f"({nested} ^ k[{i}])"
    flat = " ^ ".join(f"k[{i}]" for i in range(n + 1))
    assert repr(rhs_of(nested)) == repr(rhs_of(flat))
    totals = []
    for expr in (nested, flat):
        src = (f"module m(input [{n}:0] k, // qflow: high\n"
               f"output y);\nassign y = {expr};\nendmodule\n")
        totals.append(analyze_source(src, "m").totals)
    assert len(totals[0]) == n + 1
    assert totals[0] == totals[1]


def test_syntax_error_has_position():
    with pytest.raises(VerilogSyntaxError) as e:
        parse_text("module m(input a output y); endmodule")
    assert e.value.line == 1


@pytest.mark.parametrize("text, message", [
    ("always @(a or b", "expected ')', found ''"),
    ("always @ a", "expected 'id', found ''"),
])
def test_sensitivity_list_cut_by_end_of_file(text, message):
    # the skip over a plain sensitivity list stops at the end of the text
    with pytest.raises(VerilogSyntaxError, match=re.escape(message)) as e:
        parse_text(f"module m(input a, input b, output reg y);\n{text}")
    # the error points just past the last character, not at column 1
    assert (e.value.line, e.value.col) == (2, len(text) + 1)


def test_rejected_constructs():
    for snippet in (
        "module m(inout a); endmodule",
        "module m(input a); initial begin end endmodule",
        "module m(input clk); always @(negedge clk) begin end endmodule",
    ):
        with pytest.raises(UnsupportedConstruct):
            parse_text(snippet)


def test_unknown_top_module():
    with pytest.raises(UnknownSignal):
        parse_text("module m(); endmodule", top="nope")


# -- labels ----------------------------------------------------------------

def test_labels_from_ports_and_overrides():
    ast = parse_text(EXAMPLE, "example")
    labels = extract_labels(ast, "example")
    assert labels == {"i": "high", "low": "low"}
    labels = extract_labels(ast, "example", [("low", "high")])
    assert labels["low"] == "high"


def test_label_override_on_unknown_net():
    ast = parse_text(EXAMPLE, "example")
    with pytest.raises(UnknownSignal):
        extract_labels(ast, "example", [("nope", "high")])


def test_label_on_non_input_rejected():
    ast = parse_text(EXAMPLE, "example")
    with pytest.raises(LabelOnNonInput):
        extract_labels(ast, "example", [("o", "high")])


def test_comment_label_marks_input():
    src = """module m(
input [1:0] s, // qflow: high
input c,
output y);
assign y = s[0] & c;
endmodule
"""
    ast = parse_text(src)
    assert extract_labels(ast, "m") == {"s": "high", "c": "low"}


# -- elaboration -----------------------------------------------------------

def test_example_elaboration():
    d = full(EXAMPLE, "example")
    assert d.nets["i"].width == 2
    assert d.nets["o"].width == 2
    assert d.nets["o"].kind == "output"
    assert d.labels == {"i": "high", "low": "low"}
    assert [(n, b) for n, b, _s in d.high_bits()] == [("i", 0), ("i", 1)]
    assert not any(a.sequential for a in d.assigns)


def test_generate_unroll_t2100():
    src = corpus.read("aes_t2100.v")
    d = full(src, "TSC")
    seq = [a for a in d.assigns if a.sequential]
    # 64 generate slices, five nonblocking assignments each
    assert len(seq) == 320
    assert d.nets["tmp0"].kind == "reg"
    assert d.nets["load"].kind == "output"


INV_IN_LOOP = """module inv(input a, output y);
assign y = ~a;
endmodule
module top(input [3:0] k, // qflow: high
           output [3:0] o);
genvar i;
generate
for (i = 0; i < 4; i = i + 1) begin : g
  inv u (.a(k[i]), .y(o[i]));
end
endgenerate
endmodule
"""

WIRE_IN_LOOP = """module top(input [3:0] k, // qflow: high
           input [3:0] a, output [3:0] o);
genvar i;
generate
for (i = 0; i < 4; i = i + 1) begin
  wire t;
  assign t = k[i] ^ a[i];
  assign o[i] = t;
end
endgenerate
endmodule
"""


def test_instances_in_generate_loop_are_per_iteration():
    d = full(INV_IN_LOOP, "top")
    assert {f"g[{i}].u.y" for i in range(4)} <= set(d.nets)
    assert "u.y" not in d.nets
    a = analyze_source(INV_IN_LOOP, "top")
    assert a.totals == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}


def test_wire_declared_in_generate_loop_is_per_iteration():
    d = full(WIRE_IN_LOOP, "top")
    # an unnamed loop body is genblk<n>; undeclared names stay module nets
    assert {f"genblk1[{i}].t" for i in range(4)} <= set(d.nets)
    assert "t" not in d.nets
    a = analyze_source(WIRE_IN_LOOP, "top")
    assert a.totals == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}


def test_parameters_and_overrides():
    src = """module inner #(parameter W = 2) (input [W-1:0] a, output [W-1:0] y);
assign y = ~a;
endmodule
module top(input [3:0] a, output [3:0] y);
inner #(.W(4)) u (.a(a), .y(y));
endmodule
"""
    d = full(src, "top")
    assert d.nets["u.a"].width == 4


CONST_PARAM = """module m #(parameter W = {expr}) (input [W:0] a, output [W:0] y);
assign y = a;
endmodule
"""


@pytest.mark.parametrize("expr,width", [
    ("2 + -1", 2),  # a negative operand of +
    ("(6 ~^ 3) & 7", 3),  # ~(6 ^ 3) & 7 == 2
    ("2 * 3 + 1", 8),  # * binds tighter than +
    ("1 + 2 * 3", 8),
    ("7 / 2", 4),
    ("-7 / 2 + 5", 3),  # division truncates toward zero: -3, not -4
    ("7 % 4", 4),
    ("-7 % 4 + 5", 3),  # the remainder takes the dividend's sign: -3
    ("7 % -4", 4),
    ("1 <<< 2", 5),
    ("8 >>> 1", 5),
    ("(2 === 2) + (2 !== 2)", 2),
])
def test_constant_operators(expr, width):
    assert full(CONST_PARAM.format(expr=expr), "m").nets["y"].width == width


def test_constant_range_with_product():
    src = """module m #(parameter W = 4, parameter N = 2*W) (input [2*W-1:0] k, // qflow: high
output [N-1:0] y, output z);
assign y = k;
assign z = k[N/2 + 7 % 3 - 1] === k[0];
endmodule
"""
    d = full(src, "m")
    assert (d.nets["k"].width, d.nets["y"].width) == (8, 8)
    assert len(analyze_source(src, "m").totals) == 8


@pytest.mark.parametrize("expr, message", [
    ("1 / 0", "division by zero in a constant expression"),
    ("1 % 0", "division by zero in a constant expression"),
    ("(1 << 40000) * (1 << 40000)", "constant product wider than 65536 bits"),
])
def test_constant_arithmetic_rejected(expr, message):
    with pytest.raises(UnsupportedConstruct, match=re.escape(message)):
        full(CONST_PARAM.format(expr=expr), "m")


@pytest.mark.parametrize("op", ["*", "/", "%"])
def test_arithmetic_on_nets_is_a_typed_error(op):
    # parsed at its own level, then rejected by the bit-blaster, not as a syntax error
    src = f"module m(input [1:0] a, input [1:0] b, output [1:0] y);\nassign y = a {op} b;\nendmodule\n"
    with pytest.raises(UnsupportedConstruct, match=re.escape(f"operator {op}")):
        analyze_source(src, "m")


@pytest.mark.parametrize("op", ["&", "|", "^", "~&", "~|", "~^"])
def test_reduction_in_constant_rejected(op):
    # a reduction's value depends on its operand's width, which const_eval lacks
    with pytest.raises(UnsupportedConstruct, match=re.escape(f"operator {op} ")):
        full(CONST_PARAM.format(expr=f"{op}3"), "m")


def test_const_eval_applies_only_its_operator():
    tracemalloc.start()
    try:
        assert const_eval(A.Binary("+", A.Num(1), A.Num(100_000_000)), {}) == 100_000_001
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # building 1 << 100_000_000 as well would take 12.5 MB


def test_expressions_equal_by_value_and_slotted():
    src = corpus.read("toy_spn.v")
    assert parse_text(src, "toy_spn") == parse_text(src, "toy_spn")
    left = A.Binary("^", A.Select("k", A.Num(3)), A.Ident("l"))
    assert left == A.Binary("^", A.Select("k", A.Num(3)), A.Ident("l"))
    assert left != A.Binary("|", A.Select("k", A.Num(3)), A.Ident("l"))
    with pytest.raises(TypeError):
        hash(left)
    one = A.Num(1)
    for expr in (one, A.Ident("x"), A.Select("x", one), A.PartSelect("x", one, one),
                 A.Unary("~", one), left, A.Ternary(one, one, one),
                 A.Concat((one,)), A.Repl(one, one)):
        assert not hasattr(expr, "__dict__"), type(expr).__name__
    assert all(not hasattr(a, "__dict__") for a in full(EXAMPLE, "example").assigns)


def test_constant_left_shift_limited():
    assert const_eval(A.Binary("<<", A.Num(1), A.Num(1 << 16)), {}) == 1 << (1 << 16)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedConstruct, match="constant shift by 10000000000 bits"):
            full(CONST_PARAM.format(expr="1 << 10000000000"), "m")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the shift itself would take 1.2 GB


def test_right_shift_of_negative_constant_rejected():
    # Verilog shifts a 32-bit integer logically: (-4 >> 1) + 3 is 2**31 + 1, not 1
    assert const_eval(A.Binary(">>", A.Num(12), A.Num(2)), {}) == 3
    for expr in ("(-4 >> 1) + 3", "-4 >>> 1"):
        with pytest.raises(UnsupportedConstruct, match="logical shift of a negative constant"):
            full(CONST_PARAM.format(expr=expr), "m")


def test_hierarchy_flat_names():
    cfg_files = [corpus.read("aes_t2300_top.v"), corpus.read("aes_t2300.v")]
    ast = parse(SourceUnit([("a.v", cfg_files[0]), ("b.v", cfg_files[1])], "top"))
    labels = extract_labels(ast, "top")
    d = elaborate(ast, "top", labels)
    assert "Trojan.tmp0" in d.nets
    assert d.nets["Trojan.tmp0"].width == 128
    assert labels == {"rst": "low", "clk": "low", "key": "high", "state": "low"}


def test_port_width_mismatch():
    src = """module inner(input [3:0] a, output y);
assign y = a[0];
endmodule
module top(input [1:0] a, output y);
inner u (.a(a), .y(y));
endmodule
"""
    with pytest.raises(WidthMismatch):
        full(src, "top")


def test_recursive_instantiation():
    src = """module m(input a, output y);
m u (.a(a), .y(y));
endmodule
"""
    with pytest.raises(RecursiveInstantiation):
        full(src, "m")


def test_multiple_drivers_rejected():
    src = """module m(input a, input b, output y);
assign y = a;
assign y = b;
endmodule
"""
    with pytest.raises(MultipleDrivers):
        full(src, "m")


def test_if_else_lowered_to_ternary():
    src = """module m(input s, input a, input b, output reg y);
always @(*) begin
if (s) y = a;
else y = b;
end
endmodule
"""
    d = full(src, "m")
    assigns = [a for a in d.assigns if a.target == "y"]
    assert len(assigns) == 1
    assert isinstance(assigns[0].expr, A.Ternary)


def next_values(src, net):
    """A function from input (and register) values to ``net``'s value after
    one evaluation, by walking the bit-blasted trees of ``net``."""
    trees = [t for t in bit_blast(full(src, "m")) if t.root.net == net]

    def value(**nets):
        return sum(eval_node(t.node, {ref: nets[ref.net] >> ref.bit & 1 for ref in t.leaves()})
                   << t.root.bit for t in trees)
    return value


def test_case_statement_lowering():
    # the first matching arm wins, and default applies only when no arm
    # matches, wherever it is written
    src = """module m(input [1:0] s, input [1:0] a, input [1:0] b, input [1:0] c,
output reg [1:0] y);
always @(*) begin
case (s)
default: y = c;
2'd1: y = a;
2'd0, 2'd1, 2'd2: y = b;
endcase
end
endmodule
"""
    value = next_values(src, "y")
    for s_, a, b, c in itertools.product(range(4), repeat=4):
        want = a if s_ == 1 else b if s_ in (0, 2) else c
        assert value(s=s_, a=a, b=b, c=c) == want, (s_, a, b, c)


def test_clocked_case_without_default_keeps_value():
    src = """module m(input clk, input [1:0] s, input [1:0] a, output reg [1:0] y);
always @(posedge clk) begin
case (s)
2'd0: y <= a;
2'd1, 2'd3: y <= a ^ y;
endcase
end
endmodule
"""
    value = next_values(src, "y")
    for s_, a, y in itertools.product(range(4), repeat=3):
        want = a if s_ == 0 else a ^ y if s_ in (1, 3) else y
        assert value(s=s_, a=a, y=y) == want, (s_, a, y)


def test_blocking_assignment_forward_substitution():
    # t reads the new value of k within the same block
    src = """module m(input a, input b, output reg y);
reg k;
always @(*) begin
k = a & b;
y = k ^ a;
end
endmodule
"""
    d = full(src, "m")
    y = next(a for a in d.assigns if a.target == "y")
    names = set()

    def walk(e):
        if isinstance(e, A.Select) and isinstance(e.base, str):
            names.add(e.base)
        for f in getattr(e, "__dataclass_fields__", {}):
            v = getattr(e, f)
            if isinstance(v, tuple):
                for x in v:
                    if hasattr(x, "__dataclass_fields__"):
                        walk(x)
            elif hasattr(v, "__dataclass_fields__"):
                walk(v)

    walk(y.expr)
    assert "k" not in names  # substituted, not referenced


# Reads of a blocking-assigned net through each kind of select, pinned
# as ``dump_forest`` text: a dynamic index reads the whole current
# value, a constant index one bit of it.
PROC_HEAD = ("module m(input [1:0] i, input [2:0] a, // qflow: high\n"
             "input [2:0] b, output reg [1:0] y);\nreg [2:0] t;\n"
             "always @(*) begin\nt = a ^ b;\n")


@pytest.mark.parametrize("body, dump", [
    ("t[0] = a[1] & b[0];\ny[0] = t[i];\ny[1] = t[i + 1];\n",
     "y[0] = (MUX i[1] (MUX i[0] 0 (XOR a[2] b[2])) (MUX i[0] (XOR a[1] b[1]) (AND a[1] b[0])))\n"
     "y[1] = (MUX (XOR (XOR i[1] 0) (OR (AND i[0] 1) (AND 0 (XOR i[0] 1)))) "
     "(MUX %0 0 (XOR a[2] b[2])) (MUX %0 (XOR a[1] b[1]) (AND a[1] b[0])))\n"
     "  %0 = (XOR (XOR i[0] 1) 0)\n"),
    ("t[1] = a[0] | b[2];\ny = {t[1] & t[2], t[0 + 1]};\n",
     "y[0] = (OR a[0] b[2])\ny[1] = (AND (OR a[0] b[2]) (XOR a[2] b[2]))\n"),
    ("t[2] = ~t[0];\ny = t[2:1];\n",
     "y[0] = (XOR a[1] b[1])\ny[1] = (NOT (XOR a[0] b[0]))\n"),
    ("t[0] = a[2];\ny = {2{t[0]}} ^ {2{t[2]}};\n",
     "y[0] = (XOR a[2] (XOR a[2] b[2]))\ny[1] = (XOR a[2] (XOR a[2] b[2]))\n"),
], ids=["dynamic-index", "constant-index", "part-select", "replication"])
def test_blocking_reads_dump(body, dump):
    src = PROC_HEAD + body + "end\nendmodule\n"
    assert dump_forest(bit_blast(full(src, "m"))) == dump


# -- one grammar for header and body declarations ---------------------------

@pytest.mark.parametrize("header, body", [
    ("#(parameter A = 1, B = 2)", "parameter A = 1, B = 2;"),
    ("#(parameter [3:0] W = 4)", "parameter [3:0] W = 4;"),
    ("#(parameter [3:0] W = 4, parameter V = 1)", "parameter [3:0] W = 4;\nparameter V = 1;"),
])
def test_header_parameters_match_body(header, body):
    tail = "(input a, output y);\n{}\nassign y = a;\nendmodule\n"
    in_header = parse_text(f"module m {header} " + tail.format("")).modules["m"]
    in_body = parse_text("module m " + tail.format(body)).modules["m"]
    assert in_header.params == in_body.params
    assert in_header.params
    analyze_source(f"module m {header} " + tail.format(""), "m")


@pytest.mark.parametrize("mark, comment", [
    ("High ", ""), ("(* qflow_high *) ", ""), ("", " // qflow: high")])
def test_ansi_and_body_ports_match(mark, comment):
    ansi = parse_text(f"""module m(
{mark}input [3:0] k, c,{comment}
input wire [1:0] a,
output reg y);
endmodule
""").modules["m"]
    body = parse_text(f"""module m(k, c, a, y);
{mark}input [3:0] k, c;{comment}
input wire [1:0] a;
output reg y;
endmodule
""").modules["m"]

    def shape(mod):
        return [(n, p.direction, p.msb, p.lsb, p.high) for n, p in mod.ports.items()]
    assert ansi.port_order == body.port_order == ["k", "c", "a", "y"]
    assert shape(ansi) == shape(body)
    assert [p.high for p in ansi.ports.values()] == [True, True, False, False]


GENERATE_READ = """module m(input [3:0] k, // qflow: high
input [4:0] a, output [3:0] o);
genvar i;
generate
for (i = 0; i < 4; i = i + 1) begin : g
  {decl}
  assign o[i] = k[i] ^ a[{index}];
end
endgenerate
endmodule
"""


def test_generate_localparam_is_per_iteration():
    named = full(GENERATE_READ.format(decl="localparam J = i + 1;", index="J"), "m")
    inline = full(GENERATE_READ.format(decl="", index="i + 1"), "m")
    assert dump_forest(bit_blast(named)) == dump_forest(bit_blast(inline))


def test_port_in_generate_body_rejected():
    with pytest.raises(UnsupportedConstruct):
        parse_text(GENERATE_READ.format(decl="input z;", index="i"))


# -- pinned frontend output ------------------------------------------------

def datapath_source(width=64):
    """One plain assign per bit, in the style of the per-bit datapath benchmark."""
    forms = ["~k[{i}] ^ (a[{i}] & b[{i}])", "k[{i}]", "a[{i}] ^ b[{i}]",
             "~k[{i}]", "a[{i}] & b[{i}]", "k[{i}] ^ a[{i}]"]
    lines = ["module dp(", f"High input [{width - 1}:0] k,", f"input [{width - 1}:0] a,",
             f"input [{width - 1}:0] b,", f"output [{width - 1}:0] o);"]
    lines += [f"assign o[{i}] = {forms[i * 7 % 6].format(i=i)};" for i in range(width)]
    return "\n".join(lines + ["endmodule", ""])


def reconvergent_source(stages=10):
    """``w{i+1}`` reads ``w{i}`` twice, with one key and one low bit per stage."""
    ops = itertools.cycle(["(w{p} | k[{i}]) & (w{p} ^ l[{i}])",
                           "(~(w{p} | k[{i}])) | (w{p} | l[{i}])",
                           "(w{p} ^ k[{i}]) | (w{p} & l[{i}])"])
    lines = ["module chain(", f"High input [{stages - 1}:0] k,",
             f"input [{stages - 1}:0] l,", "output y);",
             "wire " + ", ".join(f"w{i}" for i in range(stages + 1)) + ";",
             "assign w0 = k[0] ^ l[0];"]
    lines += [f"assign w{i + 1} = {next(ops).format(p=i, i=i)};" for i in range(stages)]
    return "\n".join(lines + [f"assign y = w{stages};", "endmodule", ""])


def register_pipeline_source(depth=12, width=16):
    """Per-bit register stages inside a generate loop, as in aes_t2100."""
    lines = ["module TSC(", "input clk,", f"High input [{width - 1}:0] key,",
             f"input [{width - 1}:0] in,", f"output reg [{width - 1}:0] load);",
             "reg [" + f"{width - 1}:0] " + ", ".join(f"s{i}" for i in range(depth)) + ";",
             "genvar i;", "generate", f"for (i = 0; i < {width}; i = i + 1) begin : g",
             "always @(posedge clk) begin", " s0[i] <= key[i] ^ in[i];"]
    stages = ["s{p}[i] ^ in[i]", "~s{p}[i]", "s{p}[i]"]
    lines += [f" s{i}[i] <= {stages[i % 3].format(p=i - 1)};" for i in range(1, depth)]
    lines += [f" load[i] <= s{depth - 1}[i];", "end", "end", "endgenerate", "endmodule", ""]
    return "\n".join(lines)


def frontend_digests(files, top):
    """sha256 of every file's ``repr(tokenize(...))`` and of the design's AST ``repr``."""
    tokens = "".join(repr(tokenize(path, text)) for path, text in files)
    ast = repr(parse(SourceUnit(files, top)))
    return tuple(hashlib.sha256(s.encode()).hexdigest() for s in (tokens, ast))


FRONTEND_DESIGNS = {
    "example": (["example.v"], "example"),
    "toy_spn": (["toy_spn.v"], "toy_spn"),
    "aes_t2100": (["aes_t2100.v"], "TSC"),
    "aes_t2200": (["aes_t2200.v"], "TSC"),
    "aes_t2300": (["aes_t2300.v", "aes_t2300_top.v"], "top"),
    "datapath": (datapath_source, "dp"),
    "reconvergent": (reconvergent_source, "chain"),
    "register_pipeline": (register_pipeline_source, "TSC"),
}


def design_files(name):
    """(files, top) of a corpus design or an inline one."""
    source, top = FRONTEND_DESIGNS[name]
    if callable(source):
        return [(f"{name}.v", source())], top
    return [(f, corpus.read(f)) for f in source], top


# digests of the parser at a477602, before the lexer absorbed blanks into its matches
@pytest.mark.parametrize("name, tokens_digest, ast_digest", [
    ("example", "485faa8a54210712c62d7de0a62b705067689f112bd0d78d380efc357fb34672",
     "595866010149e7cfe4ac95ae7838cf9f506696bbecb9b3da41da5384216950f7"),
    ("toy_spn", "533531ad2a9fdca35823e05e5d21aca5e85e181f25de986df44f8c4019226816",
     "ed3ea4bc250a29303e95f8742dc5728863431da7b8607623e5acb0a9d17a6ad7"),
    ("aes_t2100", "048394e0173258262dce79435dd61646b40d692500494585aa4437894b480fc4",
     "099019c2a3793684fc8cf431be4fddd4aaaf07682abd66b89e8b44be5212e57d"),
    ("aes_t2200", "92c246522f24594f25a72a5d23e20b81be736084be687b895d5b2fdcf026ab19",
     "698d4615036f4be7545af6567348a60f5903de185be967ecd1046a2473c401eb"),
    ("aes_t2300", "a9a6e4b773223350a94e1b0b617bd06bfaff384b95bc0d71339a2dc035b6045c",
     "3887ff64d6e63f36359042cfe5abfbb6763f93631f4ea113396e9a9425b1d01a"),
    ("datapath", "efc027ebb80b421e91446cf119b818aebdefe868c918fcbd0fc8e77b4bd54d5f",
     "eb2944a77137e09194e937b21902a00dfa05d0dd6eb70d6ece68fe5de5ad7d91"),
    ("reconvergent", "4f3471501f48f6e5085ce23ace3b8d8373724d2e0c011b1c00c4029bce3bbacb",
     "3da853d35d6285e6e0d26f24c29028994ad4622702a3708e7fb74e5986bbab34"),
    ("register_pipeline", "0e9db5c06cbb484a6597541d807f8c1ab97e64e448169f30c7623661ea4b6602",
     "67391ea0ef9dd1218a06b0d640504c5391a1bc336e203c4e4e09f61919cc103c"),
])
def test_frontend_output_pinned(name, tokens_digest, ast_digest):
    # any moved token field (kind, text, value, line, col) or AST node changes a digest
    files, top = design_files(name)
    assert frontend_digests(files, top) == (tokens_digest, ast_digest)
