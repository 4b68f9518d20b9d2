"""Tokenizer for the supported Verilog subset.

One compiled regular expression, ``_SCAN``, is the whole lexer, and one
``findall`` per text runs it. Each match is the blanks (spaces, tabs,
carriage returns) that precede a token, then the token, the pattern's
one group, so a blank is never a match of its own and each character is
read once. The token is one alternation, ordered by how often its
alternatives occur (words, punctuation, newlines, then literals, comments
and attributes); lookaheads, not the order, keep the precedence where two
of them can start at the same character: ``(`` is punctuation only where
no attribute starts, ``/`` only where no comment starts, and sized and
binary literals come before decimals. The catch-all last alternative
turns any other non-blank character into a syntax error; blanks at the
end of the text match nothing.

A constant bit-select ``name[digits]`` whose name does not end in a
keyword is one token, a *fused* one: more than half of the tokens of
per-bit RTL are the four of ``k[3]``. Its kind is ``id``; the parser
reads it as a ``Select`` where an operand may stand, and ``unfuse``
splits it back into its four tokens for every other reader.

``scan`` turns the matches into columns with no per-token Python loop:
- ``kinds`` maps each token through one table, ``_KIND`` (punctuation to
  itself, a keyword to ``kw``, the newline to itself), with the class of
  its first character as the default: ``id`` for a word, ``_RARE`` for
  anything else;
- ``texts`` is the ``findall`` result itself;
- ``lines`` accumulates each token's newline count;
- ``compress`` then drops the newlines and comments from all three.

Only the rare tokens, numbers, comments, attributes, unterminated openers
and bad characters, get a Python pass of their own, in text order, so the
first error is the first in the text. A number's value and a token's
column are computed where they are needed (``literal``, ``column``), not
for every token. ``tokenize`` rebuilds the unfused ``Token`` stream from
``scan``'s columns.

Comments are stripped here, except that each ``// qflow: high`` line
comment is recorded, by line, where the scan meets it: the parser marks
the last input group on that line as secret and reports a comment that
marks none at its column.
"""

from __future__ import annotations

import re
from itertools import accumulate, compress, islice, repeat
from operator import eq, itemgetter, ne
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

# A word, fused with a '[digits]' that follows it at once unless the word
# ends in a keyword. A lookbehind cannot see where the token starts ('1'
# and 'begin' are two tokens in '1begin[0]'), so a name that merely ends in
# one, such as 'x_reg', stays unfused too, which costs speed, not meaning.
# Each check is a lookbehind, tried only after a '[': first on the word's
# last two characters, which end no keyword in most names, and only where
# they may end one, one per keyword length.
_KEYWORD_ENDS = "|".join(sorted({w[-2:] for w in KEYWORDS}))
_NOT_KEYWORD = "".join(
    rf"(?<!(?:{'|'.join(w for w in sorted(KEYWORDS) if len(w) == n)})\[)"
    for n in sorted(set(map(len, KEYWORDS))))
_WORD_PATTERN = (r"[A-Za-z_][A-Za-z0-9_$]*(?:\[(?:"
                 rf"(?<!(?:{_KEYWORD_ENDS})\[)|(?=\d+\]){_NOT_KEYWORD})\d+\])?")

# blanks, then the token: the one group
_SCAN = re.compile(r"[ \t\r]*(" + "|".join([
    _WORD_PATTERN,
    _PUNCT_PATTERN,
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

# The kind of a token the Python pass decodes; a comment's kind becomes the
# newline's, so that one compress drops both.
_RARE = "rare"

# token -> kind, for punctuation, keywords and the newline
_KIND = {**{p: p for p in _PUNCT}, **dict.fromkeys(KEYWORDS, "kw"), "\n": "\n"}
# first character -> the kind of a token that is not in _KIND
_FIRST = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "id")

_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}
_BASE_BITS = {"b": 1, "o": 3, "d": 0, "h": 4}


class Token(NamedTuple):
    kind: str  # 'id' | 'kw' | 'num' | 'attr' | punctuation text | 'eof'
    text: str
    value: object  # (value, width) for nums, attribute body for attrs
    line: int
    col: int


def literal(tok):
    """(value, width) of a number token; a malformed one raises
    ``ValueError`` with the message, an x or z digit or an oversize width
    ``UnsupportedConstruct``."""
    if tok.isdecimal():  # what '\d' matches; isdigit() would take '²'
        return int(tok), None
    if "'" not in tok:
        if tok[:2] == "0b":
            bits = tok[2:].replace("_", "")
            if not bits:
                raise ValueError(f"invalid digit in literal {tok!r}")
            return int(bits, 2), len(bits)
        return int(tok.replace("_", "")), None  # '_' anywhere but first, which int() rejects
    size, _, rest = tok.partition("'")
    base = rest[0].lower()
    digits = rest[1:].replace("_", "")
    if re.search(r"[xXzZ?]", digits):
        raise UnsupportedConstruct("x/z value in literal (two-valued logic only)")
    try:
        value = int(digits, _RADIX[base])
    except ValueError:
        raise ValueError(f"invalid digit in literal {tok!r}") from None
    if size:
        width = int(size)
        if width == 0:
            raise ValueError(f"zero-width literal {tok!r}")
    elif base == "d":
        width = None
    else:
        width = len(digits) * _BASE_BITS[base]
    if width:
        if width > WIDTH_LIMIT:
            raise UnsupportedConstruct(f"literal of {width} bits (at most {WIDTH_LIMIT})")
        value &= (1 << width) - 1
    return value, width


def _column(text, offset):
    return offset - text.rfind("\n", 0, offset)


def position(text, match):
    """(line, column) of the token of the ``match``-th match of ``_SCAN``."""
    offset = next(islice(_SCAN.finditer(text), match, None)).start(1)
    return text.count("\n", 0, offset) + 1, _column(text, offset)


def _offsets(text):
    """The offset of each token of the unfused stream, 'eof' aside."""
    for m in _SCAN.finditer(text):
        tok = m[1]
        if tok == "\n" or tok[:2] == "//" or tok[:2] == "/*":
            continue
        start = m.start(1)
        if tok[-1] == "]" and len(tok) > 1:  # fused: name [ digits ]
            at = start + tok.index("[")
            yield from (start, at, at + 1, start + len(tok) - 1)
        else:
            yield start


def column(text, index):
    """The column of the ``index``-th token of the unfused stream of
    ``text``, where the stream's length is 'eof'."""
    offset = next(islice(_offsets(text), index, None), None)
    return _column(text, len(text) if offset is None else offset)


def split(tok):
    """The four tokens of a fused ``name[digits]`` as (kind, text) pairs."""
    name, _, digits = tok[:-1].partition("[")
    return ("id", name), ("[", "["), ("num", digits), ("]", "]")


def unfuse(columns, pos):
    """Split the token at ``pos`` of ``scan``'s columns back into its four
    tokens, in place, when it is a fused ``name[digits]``."""
    kinds, texts, lines = columns
    tok = texts[pos]
    if kinds[pos] == "id" and tok[-1] == "]":
        pieces = split(tok)
        kinds[pos:pos + 1] = [kind for kind, _ in pieces]
        texts[pos:pos + 1] = [text for _, text in pieces]
        lines[pos:pos + 1] = [lines[pos]] * 4


def scan(path: str, text: str):
    """Return (columns, high_comments). The columns are three parallel
    lists, kinds, texts and lines, with one entry per token, 'eof' last;
    an attribute's text is its body. ``high_comments`` maps the line of
    each ``// qflow: high`` comment to its match number, which
    ``position`` turns into a column."""
    texts = _SCAN.findall(text)
    kinds = list(map(_KIND.get, texts, map(_FIRST.get, map(itemgetter(0), texts),
                                              repeat(_RARE))))
    texts.append("")
    kinds.append(_RARE)  # 'eof', which stops the rare pass
    newlines = list(map(eq, texts, repeat("\n")))
    highs = []
    i, n = -1, len(texts) - 1
    while (i := kinds.index(_RARE, i + 1)) < n:
        tok = texts[i]
        head = tok[:2]
        if head == "//" or head == "/*" and len(tok) > 2:
            kinds[i] = "\n"
            if head == "/*":
                newlines[i] = tok.count("\n")
            elif _HIGH_COMMENT.search(tok):
                highs.append(i)
        elif head == "(*" and len(tok) > 2:
            kinds[i] = "attr"
            texts[i] = tok[2:-2].strip()
            newlines[i] = tok.count("\n")
        elif "'" in tok and len(tok) > 1 or tok[0].isdecimal():
            kinds[i] = "num"
            try:
                literal(tok)
            except ValueError as e:
                raise VerilogSyntaxError(path, *position(text, i), str(e)) from None
            except UnsupportedConstruct as e:
                raise UnsupportedConstruct(
                    e.construct, f"{path}:{position(text, i)[0]}") from None
        else:
            msg = {"/*": "unterminated block comment",
                   "(*": "unterminated attribute"}.get(tok, f"unexpected character {tok!r}")
            raise VerilogSyntaxError(path, *position(text, i), msg)
    kinds[n] = "eof"
    lines = list(accumulate(newlines, initial=1))
    keep = list(map(ne, kinds, repeat("\n")))
    columns = (list(compress(kinds, keep)), list(compress(texts, keep)),
               list(compress(lines, keep)))
    return columns, {lines[i]: i for i in highs}


def tokenize(path: str, text: str):
    """Return (tokens, high_comment_lines): ``scan``'s columns as ``Token``
    tuples, each fused token split back into four."""
    (kinds, texts, lines), high_comments = scan(path, text)
    offsets = _offsets(text)
    tokens = []
    for kind, tok, line in zip(kinds[:-1], texts, lines):
        pieces = split(tok) if kind == "id" and tok[-1] == "]" else ((kind, tok),)
        for kind, tok in pieces:
            value = literal(tok) if kind == "num" else tok
            tokens.append(Token(kind, tok, value, line, _column(text, next(offsets))))
    tokens.append(Token("eof", "", None, lines[-1], _column(text, len(text))))
    return tokens, set(high_comments)
