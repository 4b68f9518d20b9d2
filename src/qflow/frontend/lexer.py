"""Tokenizer for the supported Verilog subset.

One compiled alternation of named groups, ``_TOKEN``, is the whole lexer.
Every match starts with the blanks (spaces, tabs, carriage returns) that
precede its token, so a blank is never a match of its own and each
character is read once; a token's column counts from the start of its
own group. The alternatives are ordered by how often they occur
(punctuation, words, newlines, then literals, comments and attributes),
and lookaheads, not the order, keep the precedence where two of them can
start at the same character: ``(`` is punctuation only where no
attribute starts, ``/`` only where no comment starts, and sized and
binary literals come before decimals. The catch-all last group turns
any other non-blank character into a syntax error; blanks at the end of
the text match nothing.

Comments are stripped here, except that ``// qflow: high`` trailing
comments are recorded by line number so the parser can attach security
labels to the declaration on that line.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import UnsupportedConstruct, VerilogSyntaxError

KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "begin", "end", "if", "else", "case", "casex",
    "casez", "endcase", "default", "generate", "endgenerate", "genvar",
    "for", "parameter", "localparam", "posedge", "negedge", "integer",
    "initial", "function", "task",
}

_HIGH_COMMENT = re.compile(r"qflow\s*:\s*high", re.IGNORECASE)

# every punctuation token and operator, longest first
_PUNCT = [
    "<<<", ">>>", "===", "!==",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "~&", "~|", "~^", "^~",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", ".", "?", "#", "@", "=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
]

# _PUNCT as one alternative, longest match first in three parts: the
# characters that begin no longer token, the multi-character operators,
# then the single characters that do begin one. '(' gives way to an
# attribute, except in the wildcard '(*)', and '/' to a comment.
_PUNCT_PATTERN = "|".join([
    r"[)\[\]{};:,.?#@+\-*%]",
    *(re.escape(p) for p in _PUNCT if len(p) > 1),
    r"\((?!\*(?!\)))", r"/(?![/*])", r"[=&|^~!<>]",
])

_TOKEN = re.compile(r"[ \t\r]*(?:" + "|".join(
    f"(?P<{name}>{pattern})" for name, pattern in (
        ("punct", _PUNCT_PATTERN),
        ("word", r"[A-Za-z_][A-Za-z0-9_$]*"),
        ("newline", r"\n"),
        ("sized", r"(?P<size>\d+)?'(?P<base>[bodhBODH])(?P<digits>[0-9a-fA-FxXzZ_?]+)"),
        ("bin", r"0b(?P<bits>[01_]+)"),
        ("dec", r"\d+"),
        ("comment", r"//[^\n]*"),
        # ends at the first '*/' after the '/', so '/*/' is a whole comment
        ("block", r"/\*(?:/|.*?\*/)"),
        # '(*)' is a wildcard sensitivity list, not an attribute
        ("attr", r"\(\*(?!\))(?P<body>.*?)\*\)"),
        ("open_block", r"/\*"),
        ("open_attr", r"\(\*(?!\))"),
        ("bad", r"[^ \t\r]"),
    )) + ")", re.DOTALL)

_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}
_BASE_BITS = {"b": 1, "o": 3, "d": 0, "h": 4}


class Token(NamedTuple):
    kind: str  # 'id' | 'kw' | 'num' | 'attr' | punctuation text | 'eof'
    text: str
    value: object  # (value, width) for nums, attribute body for attrs
    line: int
    col: int


def _sized(m, path, line, col):
    """(value, width) of a ``[size]'<base><digits>`` literal."""
    base = m.group("base").lower()
    digits = m.group("digits").replace("_", "")
    if re.search(r"[xXzZ?]", digits):
        raise UnsupportedConstruct(
            "x/z value in literal (two-valued logic only)", f"{path}:{line}")
    try:
        value = int(digits, _RADIX[base])
    except ValueError:
        raise VerilogSyntaxError(  # the literal's own text, not the blanks before it
            path, line, col, f"invalid digit in literal {m.group('sized')!r}") from None
    if m.group("size") is not None:
        width = int(m.group("size"))
    elif base == "d":
        width = None
    else:
        width = len(digits) * _BASE_BITS[base]
    if width:
        value &= (1 << width) - 1
    return value, width


def tokenize(path: str, text: str):
    """Return (tokens, high_comment_lines)."""
    tokens = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the NamedTuple's Python-level __new__
    high_lines = set()
    line, linestart = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m.group(kind)
        col = m.start(kind) - linestart + 1
        if kind == "punct":
            append(new(Token, (tok, tok, tok, line, col)))
        elif kind == "word":
            append(new(Token, ("kw" if tok in KEYWORDS else "id", tok, tok, line, col)))
        elif kind == "dec":
            append(new(Token, ("num", tok, (int(tok), None), line, col)))
        elif kind == "newline":
            line += 1
            linestart = m.end()
        elif kind == "sized":
            append(Token("num", tok, _sized(m, path, line, col), line, col))
        elif kind == "bin":
            bits = m.group("bits").replace("_", "")
            append(Token("num", tok, (int(bits, 2), len(bits)), line, col))
        elif kind == "comment":
            if _HIGH_COMMENT.search(tok):
                high_lines.add(line)
        elif kind in ("block", "attr"):
            if kind == "attr":
                body = m.group("body").strip()
                append(Token("attr", body, body, line, col))
            if "\n" in tok:  # the next column counts from its last line
                line += tok.count("\n")
                linestart = m.start(kind) + tok.rindex("\n") + 1
        else:
            msg = {"open_block": "unterminated block comment",
                   "open_attr": "unterminated attribute"}.get(
                kind, f"unexpected character {tok!r}")
            raise VerilogSyntaxError(path, line, col, msg)
    append(Token("eof", "", None, line, len(text) - linestart + 1))
    return tokens, high_lines
