"""Tokenizer for the supported Verilog subset.

One compiled regular expression, ``_SCAN``, is the whole lexer, and one
``findall`` per text runs it. Each match is a pair: the blanks (spaces,
tabs, carriage returns) that precede a token, then the token, so a blank
is never a match of its own and each character is read once. The token
is one alternation, ordered by how often its alternatives occur
(punctuation, words, newlines, then literals, comments and attributes);
lookaheads, not the order, keep the precedence where two of them can
start at the same character: ``(`` is punctuation only where no
attribute starts, ``/`` only where no comment starts, and sized and
binary literals come before decimals. The catch-all last alternative
turns any other non-blank character into a syntax error; blanks at the
end of the text match nothing.

A token's kind comes from one table, ``_KIND``: punctuation maps to
itself and a keyword to ``kw``. A token the table lacks is an ``id`` when
it starts with an ASCII word character and a decimal ``num`` when
``str.isdecimal`` holds; only the rare rest (sized, underscored and
``0b`` literals, comments, attributes, unterminated openers and bad
characters) is decoded further. Columns are counted from the lengths of
the blanks and the tokens. ``scan`` fills parallel columns, which the
parser indexes directly; ``tokenize`` zips them into ``Token`` tuples.

Comments are stripped here, except that each ``// qflow: high`` line
comment is recorded, as ``{line: column}``, where the scan meets it: the
parser marks the last input group on that line as secret and reports a
comment that marks none at its column.
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

# The widest vector the frontend builds: a net, a sized literal, a
# replication or a part-select, and the bits of a constant shift or product.
WIDTH_LIMIT = 1 << 16

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

# (blanks, token) per match: the two groups are the only ones
_SCAN = re.compile(r"([ \t\r]*)(" + "|".join([
    _PUNCT_PATTERN,
    r"[A-Za-z_][A-Za-z0-9_$]*",  # word
    r"\n",
    r"\d*'[bodhBODH][0-9a-fA-FxXzZ_?]+",  # sized literal
    r"0b[01_]+",
    r"\d[\d_]*",  # decimal
    r"//[^\n]*",  # comment
    r"/\*(?:/|.*?\*/)",  # block comment, ending at the first '*/' after the '/'
    r"\(\*(?!\)).*?\*\)",  # attribute; '(*)' is a wildcard sensitivity list
    r"/\*",  # unterminated block comment
    r"\(\*(?!\))",  # unterminated attribute
    r"[^ \t\r]",  # bad character
]) + ")", re.DOTALL)

# token -> kind, for punctuation, keywords and the newline
_KIND = {**{p: p for p in _PUNCT}, **dict.fromkeys(KEYWORDS, "kw"), "\n": "\n"}
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}
_BASE_BITS = {"b": 1, "o": 3, "d": 0, "h": 4}


class Token(NamedTuple):
    kind: str  # 'id' | 'kw' | 'num' | 'attr' | punctuation text | 'eof'
    text: str
    value: object  # (value, width) for nums, attribute body for attrs
    line: int
    col: int


def _sized(tok, path, line, col):
    """(value, width) of a ``[size]'<base><digits>`` literal."""
    size, _, rest = tok.partition("'")
    base = rest[0].lower()
    digits = rest[1:].replace("_", "")
    if re.search(r"[xXzZ?]", digits):
        raise UnsupportedConstruct(
            "x/z value in literal (two-valued logic only)", f"{path}:{line}")
    try:
        value = int(digits, _RADIX[base])
    except ValueError:
        raise VerilogSyntaxError(path, line, col, f"invalid digit in literal {tok!r}") from None
    if size:
        width = int(size)
        if width == 0:
            raise VerilogSyntaxError(path, line, col, f"zero-width literal {tok!r}")
    elif base == "d":
        width = None
    else:
        width = len(digits) * _BASE_BITS[base]
    if width:
        if width > WIDTH_LIMIT:
            raise UnsupportedConstruct(
                f"literal of {width} bits (at most {WIDTH_LIMIT})", f"{path}:{line}")
        value &= (1 << width) - 1
    return value, width


def _rare(tok, path, line, col):
    """(kind, text, value) of a token that is neither punctuation, a
    keyword, a word nor plain digits, or None for a comment. An
    unterminated block comment or attribute and a bad character raise."""
    head = tok[:2]
    if head == "//" or head == "/*" and len(tok) > 2:
        return None
    if head == "(*" and len(tok) > 2:
        body = tok[2:-2].strip()
        return "attr", body, body
    if "'" in tok and len(tok) > 1:
        return "num", tok, _sized(tok, path, line, col)
    if head == "0b":
        bits = tok[2:].replace("_", "")
        if not bits:
            raise VerilogSyntaxError(path, line, col, f"invalid digit in literal {tok!r}")
        return "num", tok, (int(bits, 2), len(bits))
    if tok[0].isdecimal():  # '_' is allowed anywhere but first, which int() rejects
        return "num", tok, (int(tok.replace("_", "")), None)
    msg = {"/*": "unterminated block comment",
           "(*": "unterminated attribute"}.get(tok, f"unexpected character {tok!r}")
    raise VerilogSyntaxError(path, line, col, msg)


def scan(path: str, text: str):
    """Return (columns, high_comments). The columns are five parallel
    lists, kinds, texts, values, lines and cols, with one entry per
    ``Token`` field and per token, 'eof' last; ``high_comments`` maps
    the line of each ``// qflow: high`` comment to its column."""
    columns = ([], [], [], [], [])
    add_kind, add_text, add_value, add_line, add_col = (c.append for c in columns)
    high_comments = {}
    kind_of, word_start = _KIND.get, _WORD_START
    line = col = 1  # of the next character
    for blanks, tok in _SCAN.findall(text):
        col += len(blanks)
        kind = kind_of(tok)
        if kind is None:
            if tok[0] in word_start:
                kind, value = "id", tok
            elif tok.isdecimal():  # what '\d' matches; isdigit() would take '²'
                kind, value = "num", (int(tok), None)
            else:
                token = _rare(tok, path, line, col)
                if token is None:  # a comment; a line comment may mark its line
                    if tok[1] == "/" and _HIGH_COMMENT.search(tok):
                        high_comments[line] = col
                else:
                    for column, item in zip(columns, (*token, line, col)):
                        column.append(item)
                if "\n" in tok:  # the next column counts from its last line
                    line += tok.count("\n")
                    col = len(tok) - tok.rindex("\n")
                else:
                    col += len(tok)
                continue
        elif kind == "\n":
            line += 1
            col = 1
            continue
        else:
            value = tok
        add_kind(kind)
        add_text(tok)
        add_value(value)
        add_line(line)
        add_col(col)
        col += len(tok)
    for column, item in zip(columns, ("eof", "", None, line, len(text) - text.rfind("\n"))):
        column.append(item)
    return columns, high_comments


def tokenize(path: str, text: str):
    """Return (tokens, high_comment_lines): ``scan``'s columns as ``Token`` tuples."""
    columns, high_comments = scan(path, text)
    return list(map(Token._make, zip(*columns))), set(high_comments)

