"""Recursive-descent parser for the supported Verilog subset.

Binary operators are parsed by precedence climbing over one table,
``_BIN_LEVEL`` (operator -> binding level, built from ``_BIN_LEVELS``):
``binary`` loops over the operators of its level and looser, and
recurses only for a right operand that binds tighter, so a parenthesis
costs a fixed handful of frames whatever the number of levels. The
token plumbing and the expression ladder index ``self.tokens`` directly,
and ``unary`` hands an identifier to ``lvalue`` and a number to ``Num``
without going through ``primary``.
"""

from __future__ import annotations

from ..errors import UnknownSignal, UnsupportedConstruct, VerilogSyntaxError
from . import ast_nodes as A
from .lexer import line_comment_column, tokenize

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
        self.tokens, self.high_lines = tokenize(path, text)
        self.marked_lines = set()  # high lines that trail an input group
        self.pos = 0

    # -- token plumbing ----------------------------------------------------
    # Each reads ``self.tokens[self.pos]`` itself; none moves past 'eof'.
    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind, text=None):
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind, text=None):
        """Consume and return the next token if it matches, else None."""
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            return None
        if kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            self.err(f"expected {text or kind!r}, found {tok.text!r}", tok)
        if kind != "eof":
            self.pos += 1
        return tok

    def err(self, msg, tok=None):
        tok = tok or self.peek()
        raise VerilogSyntaxError(self.path, tok.line, tok.col, msg)

    def reject(self, tok):
        raise UnsupportedConstruct(
            _REJECTED_ITEMS.get(tok.text, tok.text), f"{self.path}:{tok.line}")

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
        stray = sorted(self.high_lines - self.marked_lines)
        if stray:
            line = stray[0]
            col = line_comment_column(self.text, line)
            raise VerilogSyntaxError(self.path, line, col,
                                     "'// qflow: high' trails no input declaration")
        return modules

    def module(self):
        self.expect("kw", "module")
        name = self.expect("id").text
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
            tok = self.tokens[self.pos]
            if tok.kind == "attr":
                high = high or _QFLOW_ATTR in tok.text
            elif tok.kind == "id" and tok.text == "High":
                high = True
            else:
                return high
            self.pos += 1

    def port_list(self, mod):
        if self.at(")"):
            return
        first = self.peek()
        ansi = first.kind == "attr" or first.text in (*_DIRECTIONS, "High")
        if not ansi:
            while True:
                mod.port_order.append(self.expect("id").text)
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
        tok = self.next()
        if tok.text == "inout":
            self.reject(tok)
        if tok.text not in ("input", "output"):
            self.err("expected port direction", tok)
        direction = tok.text
        self.accept("kw", "wire") or self.accept("kw", "reg")
        msb, lsb = self.range_spec() if self.at("[") else (None, None)
        names, ends = [], {}  # ends: line -> position of the group's last name on it
        while True:
            nt = self.expect("id")
            names.append(nt.text)
            ends[nt.line] = self.pos - 1
            if nt.text not in mod.port_order:
                mod.port_order.append(nt.text)
            mod.ports[nt.text] = A.PortDecl(direction, msb, lsb, nt.text,
                                            high=high and direction == "input",
                                            line=nt.line)
            if not self.accept(","):
                marked = None
                break
            marked = self._port_marks()
            if self.peek().text in _DIRECTIONS:
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
        on its line.  Each such line is recorded in ``marked_lines``."""
        trailed = False
        for line, pos in ends.items():
            if line in self.high_lines:
                tok = self.tokens[pos + 1]  # 'eof' ends the list
                while tok.line == line and tok.kind != "eof" and tok.text != "input":
                    pos += 1
                    tok = self.tokens[pos + 1]
                if tok.line != line or tok.text != "input":
                    self.marked_lines.add(line)
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
        tok = self.peek()
        if tok.kind == "kw":
            kw = tok.text
            if kw in ("input", "output"):
                if mod is None:
                    raise UnsupportedConstruct("port declaration in a generate body",
                                               f"{self.path}:{tok.line}")
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
                items.append(A.ContAssign(target, rhs, line=tok.line))
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
                self.reject(tok)
            else:
                self.err(f"unexpected keyword {kw!r}")
        elif tok.kind == "id":
            items.append(self.instance())
        else:
            self.err(f"unexpected token {tok.text!r}")

    def net_decl(self, items):
        kind = self.next().text
        msb, lsb = self.range_spec() if self.at("[") else (None, None)
        while True:
            nt = self.expect("id")
            init = self.expression() if self.accept("=") else None
            items.append(A.NetDecl(kind, msb, lsb, nt.text, init, line=nt.line))
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
            name = self.expect("id").text
            self.expect("=")
            params.append(A.ParamDecl(name, self.expression()))
            if not self.accept(","):
                return params
            group = self.at("kw", "parameter") or self.at("kw", "localparam")

    def always_block(self):
        tok = self.expect("kw", "always")
        self.expect("@")
        paren = self.accept("(")
        if self.accept("*"):
            sens = ("comb",)
        elif self.accept("kw", "posedge"):
            sens = ("posedge", self.expect("id").text)
            if self.at("id", "or") or self.at("kw", "or"):
                raise UnsupportedConstruct(
                    "multiple events in sensitivity list", f"{self.path}:{tok.line}")
        elif self.at("kw", "negedge"):
            self.reject(tok)
        else:
            # plain sensitivity list: treat as combinational
            while not self.at(")") and not self.at("eof"):  # 'next' stays on 'eof'
                self.next()
            sens = ("comb",)
        if paren:
            self.expect(")")
        return A.Always(sens, self.statement(), line=tok.line)

    def generate_for(self):
        tok = self.expect("kw", "for")
        self.expect("(")
        genvar = self.expect("id").text
        self.expect("=")
        init = self.expression()
        self.expect(";")
        cond = self.expression()
        self.expect(";")
        step_var = self.expect("id").text
        if step_var != genvar:
            self.err(f"generate step must update {genvar!r}")
        self.expect("=")
        step = self.expression()
        self.expect(")")
        gen = A.GenerateFor(genvar, init, cond, step, [], line=tok.line)
        if self.accept("kw", "begin"):
            if self.accept(":"):
                gen.label = self.expect("id").text
            while not self.at("kw", "end"):
                self.module_item(None, gen.items)
            self.expect("kw", "end")
        else:
            self.module_item(None, gen.items)
        return gen

    def instance(self):
        mtok = self.expect("id")
        overrides = []
        if self.accept("#"):
            self.expect("(")
            overrides = self.connection_list()
            self.expect(")")
        name = self.expect("id").text
        self.expect("(")
        conns = self.connection_list()
        self.expect(")")
        self.expect(";")
        return A.Instance(mtok.text, name, overrides, conns, line=mtok.line)

    def connection_list(self):
        conns = []
        if self.at(")"):
            return conns
        while True:
            if self.accept("."):
                pname = self.expect("id").text
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
        tok = self.peek()
        if tok.kind == "kw":
            if tok.text == "begin":
                self.next()
                if self.accept(":"):
                    self.expect("id")
                stmts = []
                while not self.at("kw", "end"):
                    stmts.append(self.statement())
                self.expect("kw", "end")
                return A.Block(stmts)
            if tok.text == "if":
                self.next()
                self.expect("(")
                cond = self.expression()
                self.expect(")")
                then = self.statement()
                other = self.statement() if self.accept("kw", "else") else None
                return A.If(cond, then, other)
            if tok.text == "case":
                return self.case_stmt()
            if tok.text in _REJECTED_ITEMS:
                self.reject(tok)
            self.err(f"unexpected keyword {tok.text!r} in statement")
        target = self.lvalue()
        if self.accept("="):
            blocking = True
        elif self.accept("<="):
            blocking = False
        else:
            self.err("expected '=' or '<='")
        rhs = self.expression()
        self.expect(";")
        return A.ProcAssign(target, rhs, blocking, line=tok.line)

    def case_stmt(self):
        """A ``case`` as the ``if`` chain it means: arms in order, then ``default``."""
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
            cond = A.Binary("==", subject, labels[0])
            for lab in labels[1:]:
                cond = A.Binary("||", cond, A.Binary("==", subject, lab))
            node = A.If(cond, body, node)
        return node

    def lvalue(self):
        tok = self.tokens[self.pos]
        if tok.kind != "id":
            self.err(f"expected 'id', found {tok.text!r}", tok)
        self.pos += 1
        if self.tokens[self.pos].kind != "[":
            return A.Ident(tok.text)
        self.pos += 1
        first = self.expression()
        if self.accept(":"):
            lsb = self.expression()
            self.expect("]")
            return A.PartSelect(tok.text, first, lsb)
        self.expect("]")
        return A.Select(tok.text, first)

    # -- expressions -------------------------------------------------------
    def expression(self):
        """A ternary, right-associative, over binary operands."""
        cond = self.binary()
        if self.tokens[self.pos].kind != "?":
            return cond
        self.pos += 1
        then = self.expression()
        self.expect(":")
        return A.Ternary(cond, then, self.expression())

    def expressions(self):
        """A comma-separated list of expressions."""
        parts = [self.expression()]
        while self.accept(","):
            parts.append(self.expression())
        return parts

    def binary(self, min_level=0):
        """Operators binding at ``min_level`` or tighter, left-associative."""
        left = self.unary()
        tokens = self.tokens
        while True:
            op = tokens[self.pos].kind
            level = _BIN_LEVEL.get(op)
            if level is None or level < min_level:
                return left
            self.pos += 1
            right = self.binary(level + 1)
            left = A.Binary(_OP_ALIAS.get(op, op), left, right)

    def unary(self):
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "id":
            return self.lvalue()
        if kind == "num":
            self.pos += 1
            return A.Num(*tok.value)
        if kind in _UNARY:
            self.pos += 1
            return A.Unary(tok.text, self.unary())
        return self.primary()

    def primary(self):
        """A parenthesised expression, a concatenation or a replication."""
        if self.accept("("):
            e = self.expression()
            self.expect(")")
            return e
        if self.accept("{"):
            parts = self.expressions()
            if len(parts) == 1 and self.accept("{"):
                value = self.expressions()
                self.expect("}")
                self.expect("}")
                return A.Repl(parts[0], A.Concat(tuple(value)) if len(value) > 1 else value[0])
            self.expect("}")
            return A.Concat(tuple(parts))
        self.err(f"unexpected token {self.peek().text!r} in expression")


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
