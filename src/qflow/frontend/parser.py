"""Recursive-descent parser for the supported Verilog subset.

An expression costs one frame per nesting level in each of two methods.
``expression`` parses binary operators by precedence climbing over one
table, ``_BIN_LEVEL`` (operator -> binding level, built from
``_BIN_LEVELS``), recursing only for a right operand that binds tighter,
and at level 0 a ternary. ``unary`` reads every operand, parenthesised,
concatenated and replicated ones included, and ``lvalue`` reads a fused
``name[digits]`` token, or ``name [ number ]``, as a ``Select`` without
going through ``expression``.

The parser reads the lexer's token columns (``lexer.scan``) by position:
``self.kinds[self.pos]`` is the next token's kind, and the plumbing
returns positions, not tokens. The two operand reads are the only readers
of a fused token. Every other reader of a name (``expect`` and ``at`` of
an 'id', the port marks) and a failed ``expect``'s message first split it
back into its four tokens with ``unfuse``, so each AST and each error is
the one the unfused tokens give. A number's value
(``literal``) and, for an error, a token's column (``column``) are
computed where they are read.
"""

from __future__ import annotations

from ..errors import UnknownSignal, UnsupportedConstruct, VerilogSyntaxError
from . import ast_nodes as A
from .lexer import column, literal, position, scan, unfuse

_QFLOW_ATTR = "qflow_high"
_DIRECTIONS = ("input", "output", "inout")

_REJECTED_ITEMS = {
    "casex": "casex statement",
    "casez": "casez statement",
    "initial": "initial block",
    "function": "function declaration",
    "task": "task declaration",
    "integer": "integer variable",
    "inout": "inout port",
    "negedge": "negedge-triggered logic",
}


# Binding level of each binary operator, loosest first, as in the Verilog
# operator precedence table.
_BIN_LEVELS = [
    ("||",), ("&&",), ("|",), ("^", "~^", "^~"), ("&",),
    ("==", "!=", "===", "!=="), ("<", "<=", ">", ">="), ("<<", ">>", "<<<", ">>>"),
    ("+", "-"), ("*", "/", "%"),
]
_BIN_LEVEL = {op: level for level, ops in enumerate(_BIN_LEVELS) for op in ops}

# Operators that mean another's: exact, because the logic is two-valued
# (no x or z, so case equality is equality) and no net or literal is
# signed (so the arithmetic shifts are the logical ones).
_OP_ALIAS = {"^~": "~^", "===": "==", "!==": "!=", "<<<": "<<", ">>>": ">>"}

_UNARY = frozenset(("~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"))


class _Parser:
    def __init__(self, path, text):
        self.path = path
        self.text = text
        # the line -> match of each '// qflow: high' comment no input group has used yet
        self.columns, self.high_comments = scan(path, text)
        self.kinds, self.texts, self.lines = self.columns
        self.pos = 0

    # -- token plumbing ----------------------------------------------------
    # Each reads the columns at ``self.pos`` itself; none moves past 'eof'.
    def next(self):
        """Consume the next token; return its position."""
        pos = self.pos
        if self.kinds[pos] != "eof":
            self.pos = pos + 1
        return pos

    def at(self, kind, text=None):
        pos = self.pos
        if kind == "id":
            unfuse(self.columns, pos)
        return self.kinds[pos] == kind and (text is None or self.texts[pos] == text)

    def accept(self, kind, text=None):
        """Consume the next token if it matches; return whether it did."""
        pos = self.pos
        if self.kinds[pos] != kind or (text is not None and self.texts[pos] != text):
            return False
        if kind != "eof":
            self.pos = pos + 1
        return True

    def expect(self, kind, text=None):
        """Consume the next token, which must match; return its position."""
        pos = self.pos
        if self.kinds[pos] == "id":  # read, or named in the error, as a name
            unfuse(self.columns, pos)
        if self.kinds[pos] != kind or (text is not None and self.texts[pos] != text):
            self.err(f"expected {text or kind!r}, found {self.texts[pos]!r}")
        if kind != "eof":
            self.pos = pos + 1
        return pos

    def name(self):
        """Consume an identifier; return its text."""
        return self.texts[self.expect("id")]

    def err(self, msg, pos=None):
        if pos is None:
            pos = self.pos
        # the column of the unfused token: three more before it per fused one
        fused = sum(kind == "id" and text[-1] == "]"
                    for kind, text in zip(self.kinds[:pos], self.texts))
        raise VerilogSyntaxError(self.path, self.lines[pos],
                                 column(self.text, pos + 3 * fused), msg)

    def reject(self, pos):
        text = self.texts[pos]
        raise UnsupportedConstruct(
            _REJECTED_ITEMS.get(text, text), f"{self.path}:{self.lines[pos]}")

    # -- top level ---------------------------------------------------------
    def parse_modules(self):
        """Every module of the text; a ``// qflow: high`` comment that
        trails no input group is an error, not a mark that marks nothing."""
        modules = []
        while not self.at("eof"):
            if self.at("kw", "module"):
                modules.append(self.module())
            else:
                self.err("expected 'module'")
        if self.high_comments:
            line = min(self.high_comments)
            _, col = position(self.text, self.high_comments[line])
            raise VerilogSyntaxError(self.path, line, col,
                                     "'// qflow: high' trails no input declaration")
        return modules

    def module(self):
        self.expect("kw", "module")
        name = self.name()
        mod = A.ModuleDecl(name=name, port_order=[])
        if self.accept("#"):
            self.expect("(")
            if not self.at(")"):
                mod.params.update((p.name, p) for p in self.param_decl())
            self.expect(")")
        if self.accept("("):
            self.port_list(mod)
            self.expect(")")
        self.expect(";")
        while not self.at("kw", "endmodule"):
            self.module_item(mod, mod.items)
        self.expect("kw", "endmodule")
        return mod

    def _port_marks(self):
        """Consume any (* qflow_high *) attribute / literal High prefix."""
        high = False
        while True:
            pos = self.pos
            kind = self.kinds[pos]
            if kind == "attr":
                high = high or _QFLOW_ATTR in self.texts[pos]
            elif kind == "id":
                unfuse(self.columns, pos)
                if self.texts[pos] != "High":
                    return high
                high = True
            else:
                return high
            self.pos = pos + 1

    def port_list(self, mod):
        if self.at(")"):
            return
        unfuse(self.columns, self.pos)
        ansi = self.kinds[self.pos] == "attr" or self.texts[self.pos] in (*_DIRECTIONS, "High")
        if not ansi:
            while True:
                mod.port_order.append(self.name())
                if not self.accept(","):
                    return
        high = self._port_marks()
        while high is not None:
            high = self.port_decl(mod, high)

    def port_decl(self, mod, high):
        """``input|output [wire|reg] [range] a, b`` up to, not including, its end.

        ``high`` holds the marks read before the direction. A mark after a
        comma marks that name and the names after it, and a ``// qflow:
        high`` comment the whole input group it trails (``_trailed``).
        Returns the marks read after a comma when a new direction follows
        them, as in an ANSI port list, else None.
        """
        pos = self.next()
        direction = self.texts[pos]
        if direction == "inout":
            self.reject(pos)
        if direction not in ("input", "output"):
            self.err("expected port direction", pos)
        self.accept("kw", "wire") or self.accept("kw", "reg")
        msb, lsb = self.range_spec() if self.at("[") else (None, None)
        names, ends = [], {}  # ends: line -> position of the group's last name on it
        while True:
            pos = self.expect("id")
            name, line = self.texts[pos], self.lines[pos]
            names.append(name)
            ends[line] = pos
            if name not in mod.port_order:
                mod.port_order.append(name)
            mod.ports[name] = A.PortDecl(direction, msb, lsb, name,
                                         high=high and direction == "input", line=line)
            if not self.accept(","):
                marked = None
                break
            marked = self._port_marks()
            if self.texts[self.pos] in _DIRECTIONS:
                break
            high = high or marked
        if direction == "input" and self._trailed(ends):
            for name in names:
                mod.ports[name].high = True
        return marked

    def _trailed(self, ends):
        """Whether a ``// qflow: high`` comment ends a line of an input
        group with no other input group between the group's last name on
        that line and the comment: the comment marks the last input group
        on its line.  Each such comment is deleted from ``high_comments``."""
        kinds, texts, lines = self.kinds, self.texts, self.lines
        trailed = False
        for line, pos in ends.items():
            if line in self.high_comments:
                pos += 1  # 'eof' ends the columns
                while lines[pos] == line and kinds[pos] != "eof" and texts[pos] != "input":
                    pos += 1
                if lines[pos] != line or texts[pos] != "input":
                    del self.high_comments[line]
                    trailed = True
        return trailed

    def range_spec(self):
        self.expect("[")
        msb = self.expression()
        self.expect(":")
        lsb = self.expression()
        self.expect("]")
        return msb, lsb

    # -- module items ------------------------------------------------------
    def module_item(self, mod, items):
        """Parse one item into ``items``; ``mod`` is None in a generate body."""
        high = self._port_marks()
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "kw":
            kw = self.texts[pos]
            if kw in ("input", "output"):
                if mod is None:
                    raise UnsupportedConstruct("port declaration in a generate body",
                                               f"{self.path}:{self.lines[pos]}")
                self.port_decl(mod, high)
                self.expect(";")
            elif kw in ("wire", "reg"):
                self.net_decl(items)
            elif kw in ("parameter", "localparam"):
                params = self.param_decl()
                self.expect(";")
                if mod is None:
                    items.extend(params)
                else:
                    mod.params.update((p.name, p) for p in params)
            elif kw == "assign":
                self.next()
                target = self.expression()
                self.expect("=")
                rhs = self.expression()
                self.expect(";")
                items.append(A.ContAssign(target, rhs, line=self.lines[pos]))
            elif kw == "always":
                items.append(self.always_block())
            elif kw == "genvar":
                self.next()
                self.expect("id")
                while self.accept(","):
                    self.expect("id")
                self.expect(";")
            elif kw == "generate":
                self.next()
                while not self.at("kw", "endgenerate"):
                    self.module_item(mod, items)
                self.expect("kw", "endgenerate")
            elif kw == "for":
                items.append(self.generate_for())
            elif kw in _REJECTED_ITEMS:
                self.reject(pos)
            else:
                self.err(f"unexpected keyword {kw!r}")
        elif kind == "id":
            items.append(self.instance())
        else:
            self.err(f"unexpected token {self.texts[pos]!r}")

    def net_decl(self, items):
        kind = self.texts[self.next()]
        msb, lsb = self.range_spec() if self.at("[") else (None, None)
        while True:
            pos = self.expect("id")
            init = self.expression() if self.accept("=") else None
            items.append(A.NetDecl(kind, msb, lsb, self.texts[pos], init, line=self.lines[pos]))
            if not self.accept(","):
                break
        self.expect(";")

    def param_decl(self):
        """``parameter|localparam [range] A = 1, B = 2`` up to, not including, its end.

        After a comma, ``parameter`` starts a new group with its own range,
        as a ``#(...)`` header allows.
        """
        params = []
        group = True
        while True:
            if group:
                if not self.accept("kw", "localparam"):
                    self.expect("kw", "parameter")
                if self.at("["):
                    self.range_spec()
            name = self.name()
            self.expect("=")
            params.append(A.ParamDecl(name, self.expression()))
            if not self.accept(","):
                return params
            group = self.at("kw", "parameter") or self.at("kw", "localparam")

    def always_block(self):
        pos = self.expect("kw", "always")
        self.expect("@")
        paren = self.accept("(")
        if self.accept("*"):
            sens = ("comb",)
        elif self.accept("kw", "posedge"):
            sens = ("posedge", self.name())
            if self.at(",") or self.at("id", "or") or self.at("kw", "or"):
                raise UnsupportedConstruct(
                    "multiple events in sensitivity list", f"{self.path}:{self.lines[pos]}")
        elif self.at("kw", "negedge"):
            self.reject(self.pos)
        else:
            # plain sensitivity list: treat as combinational
            while not self.at(")") and not self.at("eof"):  # 'next' stays on 'eof'
                self.next()
            sens = ("comb",)
        if paren:
            self.expect(")")
        return A.Always(sens, self.statement(), line=self.lines[pos])

    def generate_for(self):
        pos = self.expect("kw", "for")
        self.expect("(")
        genvar = self.name()
        self.expect("=")
        init = self.expression()
        self.expect(";")
        cond = self.expression()
        self.expect(";")
        step_var = self.name()
        if step_var != genvar:
            self.err(f"generate step must update {genvar!r}")
        self.expect("=")
        step = self.expression()
        self.expect(")")
        gen = A.GenerateFor(genvar, init, cond, step, [], line=self.lines[pos])
        if self.accept("kw", "begin"):
            if self.accept(":"):
                gen.label = self.name()
            while not self.at("kw", "end"):
                self.module_item(None, gen.items)
            self.expect("kw", "end")
        else:
            self.module_item(None, gen.items)
        return gen

    def instance(self):
        pos = self.expect("id")
        overrides = []
        if self.accept("#"):
            self.expect("(")
            overrides = self.connection_list()
            self.expect(")")
        name = self.name()
        self.expect("(")
        conns = self.connection_list()
        self.expect(")")
        self.expect(";")
        return A.Instance(self.texts[pos], name, overrides, conns, line=self.lines[pos])

    def connection_list(self):
        conns = []
        if self.at(")"):
            return conns
        while True:
            if self.accept("."):
                pname = self.name()
                self.expect("(")
                expr = None if self.at(")") else self.expression()
                self.expect(")")
                conns.append((pname, expr))
            else:
                conns.append((None, self.expression()))
            if not self.accept(","):
                return conns

    # -- statements --------------------------------------------------------
    def statement(self):
        pos = self.pos
        if self.kinds[pos] == "kw":
            kw = self.texts[pos]
            if kw == "begin":
                self.next()
                if self.accept(":"):
                    self.expect("id")
                stmts = []
                while not self.at("kw", "end"):
                    stmts.append(self.statement())
                self.expect("kw", "end")
                return A.Block(stmts)
            if kw == "if":
                self.next()
                self.expect("(")
                cond = self.expression()
                self.expect(")")
                then = self.statement()
                other = self.statement() if self.accept("kw", "else") else None
                return A.If(cond, then, other)
            if kw == "case":
                return self.case_stmt()
            if kw in _REJECTED_ITEMS:
                self.reject(pos)
            self.err(f"unexpected keyword {kw!r} in statement")
        target = self.lvalue()
        if self.accept("="):
            blocking = True
        elif self.accept("<="):
            blocking = False
        else:
            self.err("expected '=' or '<='")
        rhs = self.expression()
        self.expect(";")
        return A.ProcAssign(target, rhs, blocking, line=self.lines[pos])

    def case_stmt(self):
        """A ``case`` as the ``if`` chain it means: arms in order, then ``default``.

        Each comparison gets its own copy of the subject, so the AST stays
        a tree: elaboration hands a parsed expression on as it is, and the
        bit-blaster gives one expression object one set of gates.
        """
        from copy import deepcopy  # only a design with a case pays for the import

        self.expect("kw", "case")
        self.expect("(")
        subject = self.expression()
        self.expect(")")
        arms, default = [], A.Block([])
        while not self.at("kw", "endcase"):
            if self.accept("kw", "default"):
                self.accept(":")
                default = self.statement()
            else:
                labels = self.expressions()
                self.expect(":")
                arms.append((labels, self.statement()))
        self.expect("kw", "endcase")
        node = default
        for labels, body in reversed(arms):
            cond = A.Binary("==", deepcopy(subject), labels[0])
            for lab in labels[1:]:
                cond = A.Binary("||", cond, A.Binary("==", deepcopy(subject), lab))
            node = A.If(cond, body, node)
        return node

    def lvalue(self):
        """``name``, ``name[index]`` or ``name[msb:lsb]``; a fused
        ``name[digits]`` and ``name [ number ]`` are read here, as
        ``expression`` would read them."""
        pos, kinds, texts = self.pos, self.kinds, self.texts
        if kinds[pos] != "id":
            self.err(f"expected 'id', found {texts[pos]!r}")
        name = texts[pos]
        if name[-1] == "]":  # fused
            self.pos = pos + 1
            name, _, digits = name[:-1].partition("[")
            return A.Select(name, A.Num(int(digits)))
        if kinds[pos + 1] != "[":  # an 'id' is never last: 'eof' is
            self.pos = pos + 1
            return A.Ident(name)
        if kinds[pos + 2] == "num" and kinds[pos + 3] == "]":  # '[' and 'num' are not 'eof'
            self.pos = pos + 4
            return A.Select(name, A.Num(*literal(texts[pos + 2])))
        self.pos = pos + 2
        first = self.expression()
        if self.accept(":"):
            lsb = self.expression()
            self.expect("]")
            return A.PartSelect(name, first, lsb)
        self.expect("]")
        return A.Select(name, first)

    # -- expressions -------------------------------------------------------
    def expression(self, min_level=0):
        """Binary operators binding at ``min_level`` or tighter, left-associative,
        by precedence climbing; at level 0, then a ternary, right-associative."""
        left = self.unary()
        kinds = self.kinds
        while True:
            op = kinds[self.pos]
            level = _BIN_LEVEL.get(op)
            if level is None or level < min_level:
                break
            self.pos += 1
            left = A.Binary(_OP_ALIAS.get(op, op), left, self.expression(level + 1))
        if min_level or kinds[self.pos] != "?":
            return left
        self.pos += 1
        then = self.expression()
        self.expect(":")
        return A.Ternary(left, then, self.expression())

    def expressions(self):
        """A comma-separated list of expressions."""
        parts = [self.expression()]
        while self.accept(","):
            parts.append(self.expression())
        return parts

    def unary(self):
        """A unary operator's operand, a name, a number, ``(..)``, ``{..}`` or ``{n{..}}``."""
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "id":
            return self.lvalue()
        if kind == "num":
            self.pos = pos + 1
            return A.Num(*literal(self.texts[pos]))
        if kind in _UNARY:  # punctuation: its kind is its text
            self.pos = pos + 1
            return A.Unary(kind, self.unary())
        if kind == "(":
            self.pos = pos + 1
            e = self.expression()
            self.expect(")")
            return e
        if kind == "{":
            self.pos = pos + 1
            parts = self.expressions()
            if len(parts) == 1 and self.accept("{"):
                value = self.expressions()
                self.expect("}")
                self.expect("}")
                return A.Repl(parts[0], A.Concat(tuple(value)) if len(value) > 1 else value[0])
            self.expect("}")
            return A.Concat(tuple(parts))
        self.err(f"unexpected token {self.texts[pos]!r} in expression")


def parse(source: A.SourceUnit) -> A.Ast:
    """Parse every file of a source unit into a single AST."""
    modules = {}
    for path, text in source.files:
        for mod in _Parser(path, text).parse_modules():
            modules[mod.name] = mod
    if source.top_module and source.top_module not in modules:
        raise UnknownSignal(
            f"top module {source.top_module!r} (have: {', '.join(sorted(modules))})")
    return A.Ast(modules)
