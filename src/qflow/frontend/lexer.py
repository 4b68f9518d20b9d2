"""Tokenizer for the supported Verilog subset.

One compiled alternation of named groups, ``_TOKEN``, is the whole lexer:
``re`` tries the groups in table order at each position, so the table's
order is the precedence (comments before ``/``, sized literals before
decimals, punctuation longest-first), and the catch-all last group turns
any other character into a syntax error.

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

# longest-first punctuation / operators
_PUNCT = [
    "<<<", ">>>", "===", "!==",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "~&", "~|", "~^", "^~",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", ".", "?", "#", "@", "=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
]

_TOKEN = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in (
    ("newline", r"\n"),
    ("blank", r"[ \t\r]+"),
    ("comment", r"//[^\n]*"),
    # ends at the first '*/' after the '/', so '/*/' is a whole comment
    ("block", r"/\*(?:/|.*?\*/)"),
    # '(*)' is a wildcard sensitivity list, not an attribute
    ("attr", r"\(\*(?!\))(?P<body>.*?)\*\)"),
    ("open_block", r"/\*"),
    ("open_attr", r"\(\*(?!\))"),
    ("sized", r"(?P<size>\d+)?'(?P<base>[bodhBODH])(?P<digits>[0-9a-fA-FxXzZ_?]+)"),
    ("bin", r"0b(?P<bits>[01_]+)"),
    ("dec", r"\d+"),
    ("word", r"[A-Za-z_][A-Za-z0-9_$]*"),
    ("punct", "|".join(map(re.escape, _PUNCT))),
    ("bad", r"."),
)), re.DOTALL)

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
        raise VerilogSyntaxError(
            path, line, col, f"invalid digit in literal {m.group()!r}") from None
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
    high_lines = set()
    line, linestart = 1, 0
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "newline":
            line += 1
            linestart = m.end()
            continue
        if kind == "blank":
            continue
        col = m.start() - linestart + 1
        if kind == "word":
            tokens.append(Token("kw" if tok in KEYWORDS else "id", tok, tok, line, col))
        elif kind == "punct":
            tokens.append(Token(tok, tok, tok, line, col))
        elif kind == "dec":
            tokens.append(Token("num", tok, (int(tok), None), line, col))
        elif kind == "sized":
            tokens.append(Token("num", tok, _sized(m, path, line, col), line, col))
        elif kind == "bin":
            bits = m.group("bits").replace("_", "")
            tokens.append(Token("num", tok, (int(bits, 2), len(bits)), line, col))
        elif kind == "comment":
            if _HIGH_COMMENT.search(tok):
                high_lines.add(line)
        elif kind in ("block", "attr"):
            if kind == "attr":
                body = m.group("body").strip()
                tokens.append(Token("attr", body, body, line, col))
            if "\n" in tok:  # the next column counts from its last line
                line += tok.count("\n")
                linestart = m.start() + tok.rindex("\n") + 1
        else:
            msg = {"open_block": "unterminated block comment",
                   "open_attr": "unterminated attribute"}.get(
                kind, f"unexpected character {tok!r}")
            raise VerilogSyntaxError(path, line, col, msg)
    tokens.append(Token("eof", "", None, line, 1))
    return tokens, high_lines
