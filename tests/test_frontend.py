"""Lexing, parsing, label extraction, and elaboration."""

import hashlib
import itertools
import os
import random
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflow import corpus
from qflow.bitgraph import BindTree, BitRef, Node, bit_blast, dump_forest, eval_node
from qflow.channelizer import Channel, dump_channels
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
from qflow.frontend.lexer import _PUNCT, KEYWORDS, WIDTH_LIMIT, Token, tokenize
from qflow.pipeline import render_report

from conftest import analysis_outputs, analyze_source


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
    ("x\n  0'b1;", 2, 3, "zero-width literal \"0'b1\""),
    ("00'd0", 1, 1, "zero-width literal \"00'd0\""),
    ("x 0b__ ", 1, 3, "invalid digit in literal '0b__'"),
    ("x 4'b_ ", 1, 3, "invalid digit in literal \"4'b_\""),
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



@pytest.mark.parametrize("text", ["1_0", "10_", "1__0"])
def test_underscores_in_unsized_decimals(text):
    # '_' may stand anywhere in a number but first; Python's int() rejects '10_'
    assert tokenize("<t>", text)[0][0] == ("num", text, (10, None), 1, 1)

    def report(lit):
        src = (f"module m(input [15:0] k, // qflow: high\ninput [15:0] a,\n"
               f"output [15:0] y, output [15:0] z);\nlocalparam W = {lit};\n"
               f"assign y[W-1:0] = k[W-1:0];\nassign y[15:W] = a[15:W];\n"
               f"assign z = (k & {lit}) ^ a;\nendmodule\n")
        analysis = analyze_source(src, "m")
        analysis.report.runtime_seconds = 0.0
        return render_report(analysis, "json")

    assert report(text) == report("10") != report("11")


def test_leading_underscore_is_an_identifier():
    assert [t[:3] for t in tokenize("<t>", "_0 _")[0]] == [
        ("id", "_0", "_0"), ("id", "_", "_"), ("eof", "", None)]


# The named-group ``finditer`` lexer that ``scan`` replaced, kept as the
# reference for it, with two changes: a decimal is ``\d[\d_]*``, its value
# read with every '_' removed, and '0b_' is a syntax error, not a ValueError.
_REFERENCE_TOKEN = re.compile(r"[ \t\r]*(?:" + "|".join(
    f"(?P<{name}>{pattern})" for name, pattern in (
        ("punct", "|".join([r"[)\[\]{};:,.?#@+\-*%]",
                            *(re.escape(p) for p in _PUNCT if len(p) > 1),
                            r"\((?!\*(?!\)))", r"/(?![/*])", r"[=&|^~!<>]"])),
        ("word", r"[A-Za-z_][A-Za-z0-9_$]*"),
        ("newline", r"\n"),
        ("sized", r"(?P<size>\d+)?'(?P<base>[bodhBODH])(?P<digits>[0-9a-fA-FxXzZ_?]+)"),
        ("bin", r"0b(?P<bits>[01_]+)"),
        ("dec", r"\d[\d_]*"),
        ("comment", r"//[^\n]*"),
        ("block", r"/\*(?:/|.*?\*/)"),
        ("attr", r"\(\*(?!\))(?P<body>.*?)\*\)"),
        ("open_block", r"/\*"),
        ("open_attr", r"\(\*(?!\))"),
        ("bad", r"[^ \t\r]"),
    )) + ")", re.DOTALL)


def _reference_sized(m, path, line, col):
    base = m.group("base").lower()
    digits = m.group("digits").replace("_", "")
    if re.search(r"[xXzZ?]", digits):
        raise UnsupportedConstruct(
            "x/z value in literal (two-valued logic only)", f"{path}:{line}")
    try:
        value = int(digits, {"b": 2, "o": 8, "d": 10, "h": 16}[base])
    except ValueError:
        raise VerilogSyntaxError(
            path, line, col, f"invalid digit in literal {m.group('sized')!r}") from None
    if m.group("size") is not None:
        width = int(m.group("size"))
        if width == 0:
            raise VerilogSyntaxError(path, line, col, f"zero-width literal {m.group('sized')!r}")
    elif base == "d":
        width = None
    else:
        width = len(digits) * {"b": 1, "o": 3, "h": 4}[base]
    if width:
        if width > WIDTH_LIMIT:
            raise UnsupportedConstruct(
                f"literal of {width} bits (at most {WIDTH_LIMIT})", f"{path}:{line}")
        value &= (1 << width) - 1
    return value, width


def reference_tokenize(path, text):
    tokens, high_lines = [], set()
    line, linestart = 1, 0
    for m in _REFERENCE_TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m.group(kind)
        col = m.start(kind) - linestart + 1
        if kind == "punct":
            tokens.append(Token(tok, tok, tok, line, col))
        elif kind == "word":
            tokens.append(Token("kw" if tok in KEYWORDS else "id", tok, tok, line, col))
        elif kind == "dec":
            tokens.append(Token("num", tok, (int(tok.replace("_", "")), None), line, col))
        elif kind == "newline":
            line += 1
            linestart = m.end()
        elif kind == "sized":
            tokens.append(Token("num", tok, _reference_sized(m, path, line, col), line, col))
        elif kind == "bin":
            bits = m.group("bits").replace("_", "")
            if not bits:
                raise VerilogSyntaxError(path, line, col, f"invalid digit in literal {tok!r}")
            tokens.append(Token("num", tok, (int(bits, 2), len(bits)), line, col))
        elif kind == "comment":
            if re.search(r"qflow\s*:\s*high", tok, re.IGNORECASE):
                high_lines.add(line)
        elif kind in ("block", "attr"):
            if kind == "attr":
                body = m.group("body").strip()
                tokens.append(Token("attr", body, body, line, col))
            if "\n" in tok:
                line += tok.count("\n")
                linestart = m.start(kind) + tok.rindex("\n") + 1
        else:
            msg = {"open_block": "unterminated block comment",
                   "open_attr": "unterminated attribute"}.get(
                kind, f"unexpected character {tok!r}")
            raise VerilogSyntaxError(path, line, col, msg)
    tokens.append(Token("eof", "", None, line, len(text) - linestart + 1))
    return tokens, high_lines


def lexed(lex, text):
    """(tokens, high lines), or the error's type and text: its path, line,
    column and message."""
    try:
        return lex("<t>", text)
    except (VerilogSyntaxError, UnsupportedConstruct) as e:
        return type(e), str(e)


# Pieces of text, whole tokens and parts of them: the first list rarely
# makes an error, the second often does. '²' is a digit to str.isdigit but
# not to '\d' or int(); 'é' is a letter to str.isalpha but not to the word
# pattern; '٣' is a decimal digit to both.
LEX_PIECES = [
    *_PUNCT, "a", "k_1", "x$y", "High", "_", "_0", "module", "input", "endmodule",
    "0", "7", "42", "10_", "1_0", "1__0", "٣", "0b", "0b0011", "0b1_0", "8'hFF", "4'b1010",
    "'d9", "12'o7_7", "x", "z", "//", "// qflow: high", "//QFLOW :  High", "*/", "/*/",
    "*)", "(*)", "(* qflow_high *)", "/* c */", " ", "\t", "\r", "\n", "\r\n",
    "k[3]", "[0]", "begin[1]", "x_reg[2]", "8'hAbegin[3]",
]
LEX_TRAPS = ["$", "0b_", "00'd0", "4'b3", "4'bx1", "99999'd1", "'", "'h", "'b", "/*", "(*",
             "é", "²", "`"]


def lex_texts(pieces):
    return st.lists(st.sampled_from(pieces), max_size=40).map("".join)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(lex_texts(LEX_PIECES), lex_texts(LEX_PIECES + LEX_TRAPS)))
def test_scanner_matches_reference_lexer(text):
    assert lexed(tokenize, text) == lexed(reference_tokenize, text)


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



@pytest.mark.parametrize("expr, ladder, want", [
    ("k[3]", "k[(3)]", A.Select("k", A.Num(3))),
    ("k[ 3 ]", "k[ (3) ]", A.Select("k", A.Num(3))),
    ("k[4'd3]", "k[(4'd3)]", A.Select("k", A.Num(3, 4))),
    ("k[3 + 1]", "k[(3) + 1]", A.Select("k", A.Binary("+", A.Num(3), A.Num(1)))),
    ("k[3:0]", "k[(3):0]", A.PartSelect("k", A.Num(3), A.Num(0))),
    ("k[k[1]]", "k[(k[(1)])]", A.Select("k", A.Select("k", A.Num(1)))),
])
def test_constant_bit_select_read(expr, ladder, want):
    # 'name[number]' is read without the expression ladder; a parenthesis
    # sends the index through it
    assert rhs_of(expr) == rhs_of(ladder) == want


@pytest.mark.parametrize("tail, col, found", [("k[3", 15, ""), ("k[3;\nendmodule\n", 15, ";")])
def test_cut_constant_bit_select(tail, col, found):
    # the read never looks past 'eof'
    with pytest.raises(VerilogSyntaxError) as e:
        parse_text(f"module m(input [3:0] k, output y);\nassign y = {tail}")
    assert (e.value.line, e.value.col, e.value.message) == (
        2, col, f"expected ']', found {found!r}")


# A constant bit-select 'name[digits]' is one token; every reader but an
# operand's splits it back. Operand and non-operand places for it, with a
# '{}' per name or operand.
FUSED_NAMES = ["k[0]", "k[3]", "k[12]", "k[007]", "k[\u0663]", "High[0]", "clk[0]", "or[0]",
               "i[0]", "sub[0]", "begin[0]", "k[k[0]]", "k[1_0]", "k [0]", "k[0][0]",
               "k[1:0]", "k", "y", "clk", "i"]
FUSED_HEADERS = [*["module m(input clk, input [3:0] k, output y);"] * 6,
                 "module m(input [3:0] k, output y{});", "module m({} input [3:0] k, output y);",
                 "module m(input {}, output y);", "module m({}, y);", "module {}(input k);",
                 "module m #(parameter {} = 1) (input k);"]
FUSED_ITEMS = [
    "assign {} = {} ^ ~{};", "assign {} = {{{}, {}}};", "assign {} = {} ? {} : {};",
    "wire {};", "wire [3:0] {} = {};", "genvar {};", "{} u({}, {});",
    "{} #(.P({})) u(.a({}));", "always @(posedge {}) {} <= {};",
    "always @(posedge {} or {}) {} <= {};", "always @(posedge {} {}) {} <= {};",
    "assign {} = {} {};", "always @(*) begin {} = {}; end",
    "always @(*) begin : {} {} = {}; end", "always @(*) case ({}) {}: {} = {}; endcase",
    "for (i = 0; i < 2; i = i + 1) begin : {} assign {} = {}; end",
    "// qflow: high {}", "/* {} */", "(* qflow_high *) {}", "input {};", "High {}",
]


@st.composite
def fused_texts(draw):
    name = st.sampled_from(FUSED_NAMES)
    parts = [draw(st.sampled_from(FUSED_HEADERS))]
    parts += draw(st.lists(st.sampled_from(FUSED_ITEMS), min_size=1, max_size=4))
    text = "\n".join(parts) + "\nendmodule\n"
    return text.format(*(draw(name) for _ in range(text.count("{}"))))


def parsed(text):
    """The AST's repr, or the error's type, line and message: a blank moves
    the column, nothing else."""
    try:
        return repr(parse_text(text))
    except VerilogSyntaxError as e:
        return VerilogSyntaxError, e.line, e.message
    except UnsupportedConstruct as e:
        return UnsupportedConstruct, str(e)


@settings(max_examples=500, deadline=None)
@given(fused_texts())
@example("module m(input clk, output y);\nalways @(posedge clk or[0]) y <= 1;\nendmodule\n")
def test_fused_select_parses_as_its_four_tokens(text):
    # a blank before each '[' leaves no 'name[digits]' token
    assert parsed(text) == parsed(text.replace("[", " ["))


# each error as the unfused tokens gave it before 'name[digits]' was one token
@pytest.mark.parametrize("text, line, col, message", [
    ("module m(input clk, output y);\nalways @(posedge clk[0]) y <= 1;\nendmodule\n",
     2, 21, "expected ')', found '['"),
    ("module m(input k[0], output y);\nendmodule\n", 1, 17, "expected ')', found '['"),
    ("module m(input k, output y);\nwire w[0];\nendmodule\n", 2, 7, "expected ';', found '['"),
    ("module m(input k, output y);\nsub[0] u(k, y);\nendmodule\n",
     2, 4, "expected 'id', found '['"),
    ("module m(input k, output y);\nassign y = begin[0];\nendmodule\n",
     2, 12, "unexpected token 'begin' in expression"),
    ("module m(High[0] input k, output y);\nendmodule\n", 1, 14, "expected port direction"),
    ("module m(input k, output y);\ngenvar i[0];\nendmodule\n",
     2, 9, "expected ';', found '['"),
    ("module m(input [1:0] k, output y);\nassign y = k[0][0];\nendmodule\n",
     2, 16, "expected ';', found '['"),
])
def test_fused_select_errors(text, line, col, message):
    with pytest.raises(VerilogSyntaxError) as e:
        parse_text(text)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, message)


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
    for snippet, message in (
        ("module m(inout a); endmodule", "inout port"),
        ("module m(input a); initial begin end endmodule", "initial block"),
        ("module m(input clk); always @(negedge clk) begin end endmodule",
         "negedge-triggered logic"),
        ("module m(input clk, input rst); always @(posedge clk, posedge rst) begin end endmodule",
         "multiple events in sensitivity list"),
        ("module m(input clk, input rst); always @(posedge clk or posedge rst) begin end endmodule",
         "multiple events in sensitivity list"),
    ):
        with pytest.raises(UnsupportedConstruct, match=f"unsupported construct: {message} at"):
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
    # a bit-parallel loop of 64 slices: one ranged assign per statement,
    # which write the 320 register bits of the 64 slices' five statements each
    assert [(a.target, a.msb, a.lsb) for a in seq] == [
        (net, 63, 0) for net in ("tmp0", "tmp1", "tmp2", "tmp3", "load")]
    assert set(d.driver) == {(net, b) for net in ("tmp0", "tmp1", "tmp2", "tmp3", "load")
                             for b in range(64)}
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


def test_generate_loop_size_limit():
    """A generate loop of ``WIDTH_LIMIT`` iterations unrolls; one of more,
    or one that never ends, is an unsupported size that names the limit."""
    src = ("module m(input [3:0] k, // qflow: high\noutput y);\ngenvar i;\n"
           "generate\nfor (i = 0; {cond}; i = i + 1) begin\nend\nendgenerate\n"
           "assign y = k[0];\nendmodule\n")
    full(src.format(cond=f"i < {WIDTH_LIMIT}"), "m")
    for cond in (f"i < {WIDTH_LIMIT + 1}", "i < 100000", "i >= 0"):
        with pytest.raises(UnsupportedConstruct, match=f"more than {WIDTH_LIMIT} iterations"):
            full(src.format(cond=cond), "m")


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


def test_top_level_assign_keeps_its_parsed_expression():
    """The top module's own names are flat already and each of its items
    is elaborated once, so an expression that elaboration leaves as it is
    is handed on as the parsed object; a parameter read is substituted."""
    src = """module m(input [3:0] k, input [3:0] a, output [3:0] o);
localparam P = 2;
assign o[3] = k[3] ^ a[3];
assign o[2] = k[P] & ~a[2];
endmodule
"""
    ast = parse_text(src, "m")
    rhs = [item.rhs for item in ast.modules["m"].items if isinstance(item, A.ContAssign)]
    d = elaborate(ast, "m", extract_labels(ast, "m"))
    assert d.assigns[0].expr is rhs[0]
    assert d.assigns[1].expr == A.Binary("&", A.Select("k", A.Num(2)), rhs[1].right)
    assert d.assigns[1].expr is not rhs[1]
    assert d.assigns[1].expr.right is rhs[1].right


FRESH_PER_COPY = """module inv(input [1:0] a, output [1:0] y);
assign y = ~a & (2'b10 | 2'b01);
endmodule
module top(input [3:0] k, input [3:0] a, output [3:0] o, output [3:0] p,
           output [1:0] q, output [1:0] r);
genvar i;
generate
for (i = 0; i < 4; i = i + 1) begin : g
  assign o[i] = k[i] ^ a[i];
  assign p[i] = k[0] & a[1];
end
endgenerate
inv u0 (.a(k[1:0]), .y(q));
inv u1 (.a(a[1:0]), .y(r));
endmodule
"""


def test_generate_iterations_and_instances_get_fresh_expressions():
    """One parsed tree elaborated once per generate iteration or instance
    gives each copy its own tree, flattened, so each blasts to its own gates."""
    d = full(FRESH_PER_COPY, "top")
    by_target = {}
    for a in d.assigns:
        by_target.setdefault(a.target, []).append(a)
    o = by_target["o"]
    assert [(a.lsb, a.expr) for a in o] == [
        (i, A.Binary("^", A.Select("k", A.Num(i)), A.Select("a", A.Num(i))))
        for i in range(4)]
    p = [a.expr for a in by_target["p"]]
    assert p == [A.Binary("&", A.Select("k", A.Num(0)), A.Select("a", A.Num(1)))] * 4
    assert len({id(e) for e in p}) == 4
    gen = next(item for item in parse_text(FRESH_PER_COPY, "top").modules["top"].items
               if isinstance(item, A.GenerateFor))
    assert all(e is not gen.items[1].rhs for e in p)
    inv = [by_target[f"u{n}.y"][0].expr for n in (0, 1)]
    assert inv[0] == A.Binary("&", A.Unary("~", A.Ident("u0.a")),
                              A.Binary("|", A.Num(2, 2), A.Num(1, 2)))
    assert inv[1].left == A.Unary("~", A.Ident("u1.a"))
    assert inv[0].right == inv[1].right and inv[0].right is not inv[1].right
    roots = {(t.root.net, t.root.bit): t.node for t in bit_blast(d)}
    assert len({id(roots["p", i]) for i in range(4)}) == 4
    assert roots["q", 0].children[1] is not roots["r", 0].children[1]


def test_blocking_read_in_always_still_substitutes():
    src = """module m(input [1:0] a, input [1:0] b, output reg [1:0] y);
reg [1:0] t;
always @* begin
  t = a ^ b;
  y = t & a;
end
endmodule
"""
    d = full(src, "m")
    t_rhs = A.Binary("^", A.Ident("a"), A.Ident("b"))
    (y,) = [a for a in d.assigns if a.target == "y"]
    assert y.expr == A.Binary(
        "&", A.Concat((A.Select(t_rhs, A.Num(1)), A.Select(t_rhs, A.Num(0)))), A.Ident("a"))
    (t,) = [a for a in d.assigns if a.target == "t"]
    assert t.expr == t_rhs
    assert y.expr.left.parts[0].base is t.expr  # one object: blasted once for both


def test_case_subject_is_copied_per_comparison():
    """A ``case`` lowers to one comparison per label, each with its own copy
    of the subject: the AST stays a tree."""
    src = """module m(input [1:0] s, input [1:0] k, input [2:0] d, output reg y);
always @* begin
  case (s ^ k)
    2'd0, 2'd3: y = d[0];
    2'd1: y = d[1];
    default: y = d[2];
  endcase
end
endmodule
"""
    stmt = parse_text(src, "m").modules["m"].items[-1].body.stmts[0]
    cond = stmt.cond
    subjects = [cond.left.left, cond.right.left, stmt.other.cond.left]
    assert subjects == [A.Binary("^", A.Ident("s"), A.Ident("k"))] * 3
    assert len({id(e) for e in subjects}) == 3


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


def test_const_eval_error_names_the_node_type():
    # the bit-blaster asks this of every select's index: a repr of the
    # index would make k[k[...k[0]...]] quadratic, and deep enough, fail
    expr = A.Num(0)
    for _ in range(5000):
        expr = A.Select("k", expr)
    with pytest.raises(ValueError) as e:
        const_eval(expr, {})
    assert str(e.value) == "not a constant expression: Select"


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
    leaf, root = Node("leaf", ref=BitRef("k", 0, "input-high")), BitRef("y", 0, "top-output")
    for obj in (leaf, Channel(0, (leaf.ref,), 0b10, None, root), BindTree(root, leaf)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


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


@pytest.mark.parametrize("body", [
    "assign y = k << -1;", "assign y = k >> -1;", "assign y = k <<< -1;",
    "assign y = k >>> (1 - 3);", "localparam P = 1 << -1;\nassign y = P;",
    "localparam P = 15 >> -1;\nassign y = P;",
])
def test_negative_shift_amount_shifts_every_bit_out(body):
    # Verilog reads a shift amount as unsigned, so a negative one is huge
    def report(text):
        analysis = analyze_source("module m(input [3:0] k, // qflow: high\n"
                                  f"output [3:0] y);\n{text}\nendmodule\n", "m")
        analysis.report.runtime_seconds = 0.0
        return render_report(analysis, "json")

    assert report(body) == report("assign y = 4'b0;")
    assert const_eval(A.Binary("<<", A.Num(1), A.Num(-1)), {}) == 0


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


# A write to a top-level input, which the design's environment drives
INPUT_WRITES = {
    "assign": "assign k = 4'b0;\nassign y = k;",
    "clocked": "always @(posedge clk) k <= 4'b0;\nassign y = k;",
    "combinational": "always @* k = 4'b0;\nassign y = k;",
}


def input_write_source(body):
    return (f"module m(input clk, input [3:0] k, // qflow: high\noutput [3:0] y);\n"
            f"{body}\nendmodule\n")


@pytest.mark.parametrize("name", INPUT_WRITES)
def test_write_to_top_input_rejected(name):
    """A write to a top-level input is a second driver: the design cannot
    turn the secret into a constant, a register or a wire."""
    with pytest.raises(MultipleDrivers):
        full(input_write_source(INPUT_WRITES[name]), "m")


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


def procedural_assigns(body):
    """(net, msb, lsb, expr) of each assign that a clocked ``body`` elaborates to."""
    src = ("module m(input clk, input s, input [7:0] x, input [7:0] y, "
           "High input [7:0] k, output reg [7:0] o);\nreg [7:0] t;\n"
           f"always @(posedge clk) begin\n{body}\nend\nendmodule\n")
    return [(a.target, a.msb, a.lsb, a.expr) for a in full(src, "m").assigns]


def test_procedural_vector_write_is_one_ranged_assign():
    [(net, msb, lsb, expr)] = procedural_assigns("t[7:4] <= k[3:0];")
    assert (net, msb, lsb) == ("t", 7, 4)
    assert expr == A.PartSelect("k", A.Num(3), A.Num(0))
    [(net, msb, lsb, expr)] = procedural_assigns("o <= x ^ k;")
    assert (net, msb, lsb) == ("o", 7, 0)
    assert expr == A.Binary("^", A.Ident("x"), A.Ident("k"))


def test_procedural_partial_overwrite_keeps_its_bit():
    # bits 1-7 read bits 1-7 of x: no run from bit 0 of x, so each bit is its own
    got = procedural_assigns("o <= x;\no[0] <= y[2];")
    assert [(n, m, l) for n, m, l, _e in got] == [("o", b, b) for b in range(8)]
    assert got[0][3] == A.Select("y", A.Num(2))
    assert got[1][3] == A.Select(A.Ident("x"), A.Num(1))
    # an overwrite inside the run splits it; the part after it stays per bit
    got = procedural_assigns("o <= x;\no[2] <= y[2];")
    assert [(n, m, l) for n, m, l, _e in got] == [("o", 1, 0)] + [("o", b, b)
                                                                 for b in range(2, 8)]
    assert got[0][3] == A.Ident("x")


def test_procedural_if_else_vector_write_stays_per_bit():
    got = procedural_assigns("if (s) o <= x;\nelse o <= y;")
    assert [(n, m, l) for n, m, l, _e in got] == [("o", b, b) for b in range(8)]
    assert all(isinstance(e, A.Ternary) for _n, _m, _l, e in got)


# new nets first written in both branches, blocking and nonblocking, and in
# a nested if: the merge order is the order of first writes
BRANCH_WRITES = """module m(input clk, input [1:0] c, input [3:0] a, output [3:0] y);
reg [3:0] p, q, r, s, t, u, v;
always @(posedge clk) begin
if (c[0]) begin t <= a; r = a; if (c[1]) v <= a; end
else begin s <= a; p <= r; end
if (c[1]) q <= a ^ t;
u <= p;
end
assign y = p ^ q ^ r ^ s ^ t ^ u ^ v;
endmodule
"""
BRANCH_ORDER = ["t", "v", "s", "p", "q", "u", "r"]


def test_if_merge_follows_first_writes_under_any_hash_seed():
    """The assigns of an ``if`` come out in first-write order: the same
    under every ``PYTHONHASHSEED``, so one source elaborates one way."""
    assert list(dict.fromkeys(a.target for a in full(BRANCH_WRITES, "m").assigns)) == [
        *BRANCH_ORDER, "y"]
    script = ("import sys\nfrom qflow.frontend import SourceUnit, elaborate, parse\n"
              "ast = parse(SourceUnit([('<t>', sys.stdin.read())], 'm'))\n"
              "for a in elaborate(ast, 'm', {}).assigns:\n"
              "    print(a.target, a.msb, a.lsb, a.sequential, a.expr)\n")
    runs = {subprocess.run([sys.executable, "-c", script], input=BRANCH_WRITES, text=True,
                           capture_output=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": str(seed)}).stdout
            for seed in range(1, 6)}
    assert len(runs) == 1


def test_if_lowering_is_linear_in_the_ifs():
    # each if writes one net; copying every net per branch made 4,000 ifs
    # take about 14 s
    n = 4000
    src = ("module m(input clk, High input [1:0] k, input [1:0] a, output [1:0] y);\n"
           "reg [1:0] " + ", ".join(f"s{i}" for i in range(n)) + ";\n"
           "always @(posedge clk) begin\nif (a[0]) s0 <= k; else s0 <= a;\n"
           + "".join(f"if (a[{i % 2}]) s{i} <= s{i - 1} ^ a; else s{i} <= s{i - 1};\n"
                     for i in range(1, n))
           + f"end\nassign y = s{n - 1};\nendmodule\n")
    ast = parse_text(src, "m")
    start = time.perf_counter()
    design = elaborate(ast, "m", extract_labels(ast, "m"))
    assert time.perf_counter() - start < 3.0
    assert len(design.assigns) == 2 * n + 1  # a per-bit assign of each register, and y


def per_bit_if_pipeline(width, depth=2):
    """A generate loop of one clocked block per bit whose writes are each
    under an ``if``: not bit-parallel, so each iteration is lowered alone."""
    regs = ", ".join(f"s{j}" for j in range(depth))
    lines = [f"module p(input clk, High input [{width - 1}:0] key, input [{width - 1}:0] in,",
             f"output reg [{width - 1}:0] y);", f"reg [{width - 1}:0] {regs};",
             "genvar i;", "generate", f"for (i = 0; i < {width}; i = i + 1) begin",
             "always @(posedge clk) begin", " if (in[i]) s0[i] <= key[i];"]
    lines += [f" if (in[i]) s{j}[i] <= s{j - 1}[i];" for j in range(1, depth)]
    lines += [f" y[i] <= s{depth - 1}[i];", "end", "end", "endgenerate", "endmodule", ""]
    return "\n".join(lines)


def test_per_bit_lowering_is_linear_in_the_width():
    # one clocked block per bit, each writing one bit of each net: a bit list
    # as wide as each net it wrote made 4,096 routed bits cost about 4x per
    # bit written what 512 did
    sizes = (512, 4096)
    cases = []
    for width in sizes:
        ast = parse_text(per_bit_if_pipeline(width), "p")
        cases.append((ast, extract_labels(ast, "p")))
    times = {width: [] for width in sizes}
    for _ in range(3):  # interleaved, so a host that slows down weighs on both
        for width, (ast, labels) in zip(sizes, cases):
            start = time.perf_counter()
            flat = elaborate(ast, "p", labels)
            elapsed = time.perf_counter() - start
            bits = sum(a.msb - a.lsb + 1 for a in flat.assigns)
            assert len(flat.assigns) == bits == 3 * width  # the per-iteration path
            times[width].append(elapsed / bits)
    small, large = (statistics.median(times[width]) for width in sizes)
    assert large < 2 * small, (small, large)


@pytest.mark.parametrize("depth", [12, 28])
def test_per_bit_trojan_pipeline_is_one_assign_per_stage(monkeypatch, depth):
    """The per-bit benchmark pipeline of depth D elaborates to the D + 1
    ranged assigns of its vector twin."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import families
    for per_bit in (True, False):
        design = families.trojan_pipeline(random.Random(1), depth, 64, per_bit=per_bit)
        flat = full(design.files[0][1], design.top)
        assert [(a.target, a.msb, a.lsb) for a in flat.assigns if a.sequential] == [
            *((f"s{j}", 31, 0) for j in range(depth)), ("load", 31, 0)]


@pytest.mark.parametrize("target", ["o[9:6]", "o[8]", "o[0 - 1]", "o[2:5]"])
def test_procedural_write_outside_its_net_rejected(target):
    with pytest.raises(WidthMismatch):
        procedural_assigns(f"{target} <= x;")


def register_pipeline_twins(seed, depth=6, width=4):
    """One seeded register pipeline twice: whole-vector statements, and one
    nonblocking assignment per bit inside a generate loop."""
    rng = random.Random(seed)
    stages = [rng.choice(["{} ^ a{}", "~{}", "{}", "{} & a{}"]) for _ in range(depth)]
    head = (f"module p(input clk, High input [{width - 1}:0] k, "
            f"input [{width - 1}:0] a, output reg [{width - 1}:0] y);\n"
            f"reg [{width - 1}:0] {', '.join(f's{i}' for i in range(depth))};\n")

    def body(bit):
        lines = [f"s0{bit} <= k{bit} ^ a{bit};"]
        lines += [f"s{i}{bit} <= " + stages[i].format(f"s{i - 1}{bit}", bit) + ";"
                  for i in range(1, depth)]
        return "\n".join(lines + [f"y{bit} <= s{depth - 1}{bit};"])
    vector = head + f"always @(posedge clk) begin\n{body('')}\nend\nendmodule\n"
    per_bit = head + (f"genvar i;\ngenerate\nfor (i = 0; i < {width}; i = i + 1) begin\n"
                      f"always @(posedge clk) begin\n{body('[i]')}\nend\n"
                      "end\nendgenerate\nendmodule\n")
    return vector, per_bit


@pytest.mark.parametrize("seed", range(6))
def test_vector_pipeline_matches_per_bit_twin(seed):
    vector, per_bit = register_pipeline_twins(seed)
    got = []
    for src in (vector, per_bit):
        a = analyze_source(src, "p", p_high=0.8)
        a.report.runtime_seconds = 0.0
        got.append((dump_forest(a.forest), dump_channels(a.graph),
                    render_report(a, "json")))
    assert got[0] == got[1]
    assert len(full(vector, "p").assigns) == 7  # one per vector statement


def bit_parallel_loop_twins(seed):
    """A seeded bit-parallel generate loop and its hand-unrolled twin.

    The loop runs over ``lo..hi`` inside nets of ``width`` bits and holds
    1-3 clocked blocks of random bitwise statements, each register written
    once: a register may read itself (an accumulator), a register another
    statement writes, the inputs, a wire of the inputs and a wire of a
    register.  The twin writes each bit as a statement of its own,
    ``r0[lo] <= ...; r0[lo + 1] <= ...;``, with no loop.  Returns
    ``(loop, twin, registers)``.
    """
    rng = random.Random(seed)
    width = rng.randint(1, 6)
    lo = rng.randrange(width)
    hi = rng.randint(lo, width - 1)
    regs = [f"r{j}" for j in range(rng.randint(1, 4))]
    reads = ["k", "a", "w", "v", *regs]

    def expr(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return rng.choice(reads) + "{g}"
        if roll < 0.45:
            return f"~({expr(depth - 1)})"
        return f"({expr(depth - 1)} {rng.choice(['&', '|', '^', '~^'])} {expr(depth - 1)})"
    blocks = [[] for _ in range(rng.randint(1, 3))]
    for reg in regs:
        rng.choice(blocks).append(f"{reg}{{g}} <= {expr(3)};")
    top = f"{width - 1}:0"
    head = (f"module m(input clk, High input [{top}] k, input [{top}] a, "
            f"output [{len(regs) * (hi - lo + 1) - 1}:0] y);\n"
            f"reg [{top}] {', '.join(regs)};\nwire [{top}] w, v;\nassign w = k ^ ~a;\n"
            f"assign v[{hi}:{lo}] = r0[{hi}:{lo}] & a[{hi}:{lo}];\n")
    tail = "assign y = {" + ", ".join(f"{reg}[{hi}:{lo}]" for reg in regs) + "};\nendmodule\n"
    loop = head + (f"genvar i;\ngenerate\nfor (i = {lo}; i <= {hi}; i = i + 1) begin\n"
                   + "".join("always @(posedge clk) begin\n"
                             + "".join(s.format(g="[i]") + "\n" for s in block) + "end\n"
                             for block in blocks)
                   + "end\nendgenerate\n") + tail
    twin = head + "".join("always @(posedge clk) begin\n"
                          + "".join(s.format(g=f"[{b}]") + "\n"
                                    for b in range(lo, hi + 1) for s in block) + "end\n"
                          for block in blocks) + tail
    return loop, twin, regs


@pytest.mark.parametrize("seed", range(24))
def test_bit_parallel_loop_matches_its_unrolled_twin(seed):
    loop, twin, regs = bit_parallel_loop_twins(seed)
    # one ranged assign per statement of the loop, one per bit of the twin
    assert len([a for a in full(loop, "m").assigns if a.sequential]) == len(regs)
    for bound in range(1, 6):
        for p_high in (None, 0.9):
            assert analysis_outputs(loop, bound, p_high) == analysis_outputs(twin, bound, p_high)


# a bit-parallel loop inside a module instantiated twice, and inside an outer
# generate loop whose body declares the net it writes
SCOPED_LOOPS = {
    "instance": ("module c(input clk, input [3:0] k, input [3:0] a, output reg [3:0] q);\n"
                 "reg [3:0] s;\n{loop}endmodule\n"
                 "module m(input clk, High input [3:0] k, input [3:0] a, output [3:0] y, "
                 "output [3:0] z);\nc u0 (.clk(clk), .k(k), .a(a), .q(y));\n"
                 "c u1 (.clk(clk), .k(a), .a(k), .q(z));\nendmodule\n",
                 "s{g} <= k{g} ^ a{g}; q{g} <= ~s{g} & a{g};"),
    "outer loop": ("module m(input clk, High input [3:0] k, input [3:0] a, output [7:0] y);\n"
                   "genvar i;\ngenerate for (i = 0; i < 2; i = i + 1) begin : g\nreg [3:0] t;\n"
                   "{loop}assign y[4 * i + 3:4 * i] = t;\nend endgenerate\nendmodule\n",
                   "t{g} <= k{g} ^ a{g} ^ t{g};"),
}


@pytest.mark.parametrize("case", SCOPED_LOOPS)
def test_bit_parallel_loop_in_a_scope_matches_its_unrolled_twin(case):
    module, body = SCOPED_LOOPS[case]
    loop = module.format(loop="genvar j;\nfor (j = 0; j < 4; j = j + 1) begin\n"
                         "always @(posedge clk) begin " + body.format(g="[j]") + " end\nend\n")
    twin = module.format(loop="always @(posedge clk) begin\n" + "".join(
        body.format(g=f"[{b}]") + "\n" for b in range(4)) + "end\n")
    assert all(a.lsb == 0 and a.msb == 3 for a in full(loop, "m").assigns if a.sequential)
    assert analysis_outputs(loop, 3, 0.9) == analysis_outputs(twin, 3, 0.9)


LOOP_SOURCE = """module inv(input a, output y);
assign y = ~a;
endmodule
module m(input clk, input [7:0] a, input [7:0] b, input [3:0] n, output [7:0] y);
localparam P = 1;
reg [7:0] r;
wire [7:0] t;
genvar i, j;
generate
for ({header}) begin
{body}
end
endgenerate
assign y = r;
endmodule
"""
CLOCKED = "always @(posedge clk) begin\nr[i] <= a[i] ^ b[i];\nend"


def loop_writes(body=CLOCKED, header="i = 0; i < 8; i = i + 1"):
    """(msb, lsb) of each assign to ``r`` that a generate loop elaborates to."""
    design = full(LOOP_SOURCE.format(header=header, body=body), "m")
    return [(a.msb, a.lsb) for a in design.assigns if a.target == "r"]


def test_bit_parallel_loop_is_one_vector_statement():
    assert loop_writes() == [(7, 0)]
    assert loop_writes(header="i = 2; i <= 5; i = i + 1") == [(5, 2)]
    assert loop_writes(header="i = 6; i < 7; i = i + 1") == [(6, 6)]


# the body of every loop that is not plainly bit-parallel, by what declines it
DECLINED_BODIES = {
    "assign": CLOCKED + "\nassign t[i] = a[i];",
    "declaration": "wire u;\n" + CLOCKED,
    "localparam": "localparam J = 0;\n" + CLOCKED,
    "instance": "inv u (.a(a[i]), .y(t[i]));\n" + CLOCKED,
    "nested loop": "for (j = 0; j < 1; j = j + 1) begin\n" + CLOCKED + "\nend",
    "if": "always @(posedge clk) begin\nif (b[i]) r[i] <= a[i];\nend",
    "case": ("always @(posedge clk) begin\ncase (b[i])\n1'b0: r[i] <= a[i];\n"
             "default: r[i] <= b[i];\nendcase\nend"),
    "blocking": "always @(posedge clk) begin\nr[i] = a[i];\nend",
    "combinational": "always @* begin\nr[i] = a[i];\nend",
    "no begin-end": "always @(posedge clk) r[i] <= a[i];",
    "nested begin-end": "always @(posedge clk) begin\nbegin\nr[i] <= a[i];\nend\nend",
    "constant": "always @(posedge clk) begin\nr[i] <= a[i] ^ 1'b1;\nend",
    "offset": "always @(posedge clk) begin\nr[i] <= a[i + 1];\nend",
    "fixed bit": "always @(posedge clk) begin\nr[i] <= a[0];\nend",
    "whole net": "always @(posedge clk) begin\nr[i] <= a;\nend",
    "outside a net": "always @(posedge clk) begin\nr[i] <= n[i];\nend",
    "parameter": "always @(posedge clk) begin\nr[i] <= a[i] & P;\nend",
    "reduction": "always @(posedge clk) begin\nr[i] <= ^a[i];\nend",
    "comparison": "always @(posedge clk) begin\nr[i] <= a[i] == b[i];\nend",
    "shift": "always @(posedge clk) begin\nr[i] <= a[i] << b[i];\nend",
    "arithmetic": "always @(posedge clk) begin\nr[i] <= a[i] + b[i];\nend",
    "logical": "always @(posedge clk) begin\nr[i] <= !a[i] || b[i];\nend",
    "ternary": "always @(posedge clk) begin\nr[i] <= b[i] ? a[i] : r[i];\nend",
}


@pytest.mark.parametrize("case", DECLINED_BODIES)
def test_loop_that_is_not_bit_parallel_is_unrolled(case):
    """Each iteration of a declined loop is elaborated by itself: one
    assign per bit it writes."""
    assert loop_writes(DECLINED_BODIES[case]) == [(b, b) for b in range(8)]


@pytest.mark.parametrize("header, bits", [
    ("i = 0; i < 8; i = i + 2", range(0, 8, 2)), ("i = 7; i >= 0; i = i - 1", range(7, -1, -1)),
], ids=["step", "descending"])
def test_loop_over_other_than_lo_to_hi_is_unrolled(header, bits):
    assert loop_writes(header=header) == [(b, b) for b in bits]


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


def test_branch_writes_leave_the_value_before_the_if():
    # the then branch overwrites y, which the else branch still reads as
    # written before the if, and a nested if writes y in one arm only
    src = """module m(input s, input r, input [1:0] a, input [1:0] b,
output reg [1:0] y, output reg [1:0] z);
always @(*) begin
y = a;
if (s) begin y = b; z = a; end
else begin z = y ^ b; if (r) y = ~a; end
end
endmodule
"""
    y, z = next_values(src, "y"), next_values(src, "z")
    for s_, r, a, b in itertools.product(range(2), range(2), range(4), range(4)):
        assert y(s=s_, r=r, a=a, b=b) == (b if s_ else 3 - a if r else a), (s_, r, a, b)
        assert z(s=s_, r=r, a=a, b=b) == (a if s_ else a ^ b), (s_, r, a, b)


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
        for f in e.__slots__:
            v = getattr(e, f)
            for x in v if isinstance(v, tuple) else (v,):
                if isinstance(x, A.Expr):
                    walk(x)

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


@pytest.mark.parametrize("select, dump", [
    ("t[4:2]", "[0] = (XOR a[2] b[2])\n[1] = 0\n[2] = 0\n"),
    ("t[1:-1]", "[0] = 0\n[1] = (XOR a[0] b[0])\n[2] = (XOR a[1] b[1])\n"),
    ("t[5:3]", "[0] = 0\n[1] = 0\n[2] = 0\n"),
], ids=["past-the-top", "below-bit-0", "all-past-the-top"])
def test_blocking_reads_past_the_value(select, dump):
    """A part-select of a blocking-assigned net past its top bit or below
    bit 0 reads 0 there, as the same select of the net outside the block."""
    src = ("module m(input [2:0] a, // qflow: high\ninput [2:0] b,\n"
           "output reg [2:0] y, output [2:0] z);\nreg [2:0] t;\n"
           f"always @(*) begin\nt = a ^ b;\ny = {select};\nend\n"
           f"assign z = {select};\nendmodule\n")
    d = full(src, "m")
    inside = next(a for a in d.assigns if a.target == "y")
    assert not isinstance(inside.expr.base, str)  # the rebuilt value, not the net
    lines = dump_forest(bit_blast(d)).splitlines(keepends=True)
    assert "".join(line[1:] for line in lines if line[0] == "y") == dump
    assert "".join(line[1:] for line in lines if line[0] == "z") == dump


# -- the port group a ``// qflow: high`` comment trails ---------------------

@pytest.mark.parametrize("src, high", [
    ("module m(input clk, input [3:0] key, // qflow: high\ninput [1:0] a,\n"
     "output [1:0] y);\nassign y = a ^ key[1:0];\nendmodule\n", ["key"]),
    ("module m(input [3:0] a, b, // qflow: high\ninput c,\n"
     "output y);\nassign y = ^a ^ ^b ^ c;\nendmodule\n", ["a", "b"]),
    ("module m(a, b, y);\ninput a; input b; // qflow: high\noutput y;\n"
     "assign y = a ^ b;\nendmodule\n", ["b"]),
    ("module m(a, b, y);\ninput a, // qflow: high\nb;\noutput y;\n"
     "assign y = a ^ b;\nendmodule\n", ["a", "b"]),
    ("module m(input a, output y); // qflow: high\nassign y = a;\nendmodule\n", ["a"]),
], ids=["ansi-header", "one-group", "body-line", "group-across-lines", "output-last"])
def test_high_comment_marks_the_group_it_trails(src, high):
    """The comment marks the last input group on its line, all of it."""
    mod = parse_text(src).modules["m"]
    assert [n for n, p in mod.ports.items() if p.high] == high
    design = analyze_source(src, "m").design
    assert sorted({net for net, _bit, _sid in design.high_bits()}) == high


@pytest.mark.parametrize("src, line, col", [
    ("module m(k, y);\n// qflow: high\ninput [3:0] k;\noutput y;\nassign y = ^k;\nendmodule\n",
     2, 1),
    ("module m(input [3:0] k, output y);\nassign y = ^k; // qflow: high\nendmodule\n", 2, 16),
    ("module m(input [3:0] k,\noutput y); // qflow: high\nassign y = ^k;\nendmodule\n", 2, 12),
    ("module m(input [3:0] k, output y);\nwire w; // qflow: high\nassign w = ^k;\n"
     "assign y = w;\nendmodule\n", 2, 9),
    # the comment's own column, not that of a '//' inside a block comment before it
    ("module m(input k, output y);\n\n/* a // b */ assign y = k; // qflow: high\n"
     "endmodule\n", 3, 28),
    ("module m(input k, output y); /* a\n// b */ assign y = k; // qflow: high\n"
     "endmodule\n", 2, 23),
], ids=["own_line", "after_assign", "after_output", "after_wire", "after_block_comment",
        "after_multiline_block_comment"])
def test_misplaced_high_comment_is_an_error(src, line, col):
    """A ``// qflow: high`` that trails no input group marks nothing: an
    error at the comment, not a design with no secret."""
    with pytest.raises(VerilogSyntaxError) as err:
        parse_text(src)
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.message == "'// qflow: high' trails no input declaration"


def test_high_comments_on_every_line_of_a_group():
    src = ("module m(input [3:0] a, // qflow: high\nb, // qflow: high\noutput y);\n"
           "assign y = ^a ^ ^b;\nendmodule\n")
    assert [n for n, p in parse_text(src).modules["m"].ports.items() if p.high] == ["a", "b"]


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
