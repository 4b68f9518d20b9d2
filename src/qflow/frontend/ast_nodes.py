"""AST node definitions for the supported Verilog subset.

Every node is a ``Record``: equal by value, unhashable, and without a
per-instance ``__dict__``.  ``Select``/``PartSelect`` bases are net
names in parsed code but elaboration is allowed to wrap arbitrary
expressions when lowering procedural blocks to per-bit assignments.
"""

from __future__ import annotations

from .._record import Record


# --------------------------------------------------------------------------
# Expressions

class Expr(Record):
    __slots__ = ()


class Num(Expr):
    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int | None = None):
        self.value = value
        self.width = width  # None: unsized literal, sized by context


class Ident(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Select(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base, index: Expr):
        self.base = base  # str (net name) or Expr after lowering
        self.index = index


class PartSelect(Expr):
    __slots__ = ("base", "msb", "lsb")

    def __init__(self, base, msb: Expr, lsb: Expr):
        self.base = base
        self.msb = msb
        self.lsb = lsb


class Unary(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op  # ~ ! - + & | ^ ~& ~| ~^
        self.operand = operand


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op  # & | ^ ~^ && || == != < <= > >= << >> + -
        self.left = left
        self.right = right


class Ternary(Expr):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr):
        self.cond = cond
        self.then = then
        self.other = other


class Concat(Expr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts  # MSB-first, as written


class Repl(Expr):
    __slots__ = ("count", "value")

    def __init__(self, count: Expr, value: Expr):
        self.count = count
        self.value = value


# --------------------------------------------------------------------------
# Statements (procedural)

class Stmt(Record):
    __slots__ = ()


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: list):
        self.stmts = stmts


class If(Stmt):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Stmt, other: Stmt | None):
        self.cond = cond
        self.then = then
        self.other = other


class ProcAssign(Stmt):
    __slots__ = ("target", "rhs", "blocking", "line")

    def __init__(self, target: Expr, rhs: Expr, blocking: bool, line: int = 0):
        self.target = target  # Ident / Select / PartSelect
        self.rhs = rhs
        self.blocking = blocking
        self.line = line


# --------------------------------------------------------------------------
# Module items

class PortDecl(Record):
    __slots__ = ("direction", "msb", "lsb", "name", "high", "line")

    def __init__(self, direction: str, msb: Expr | None, lsb: Expr | None, name: str,
                 high: bool = False, line: int = 0):
        self.direction = direction  # input | output
        self.msb = msb
        self.lsb = lsb
        self.name = name
        self.high = high
        self.line = line


class NetDecl(Record):
    __slots__ = ("kind", "msb", "lsb", "name", "init", "line")

    def __init__(self, kind: str, msb: Expr | None, lsb: Expr | None, name: str,
                 init: Expr | None = None, line: int = 0):
        self.kind = kind  # wire | reg
        self.msb = msb
        self.lsb = lsb
        self.name = name
        self.init = init
        self.line = line


class ParamDecl(Record):
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Expr):
        self.name = name
        self.value = value


class ContAssign(Record):
    __slots__ = ("target", "rhs", "line")

    def __init__(self, target: Expr, rhs: Expr, line: int = 0):
        self.target = target
        self.rhs = rhs
        self.line = line


class Always(Record):
    __slots__ = ("sens", "body", "line")

    def __init__(self, sens: tuple, body: Stmt, line: int = 0):
        self.sens = sens  # ('comb',) or ('posedge', clock_net)
        self.body = body
        self.line = line


class GenerateFor(Record):
    __slots__ = ("genvar", "init", "cond", "step", "items", "line", "label")

    def __init__(self, genvar: str, init: Expr, cond: Expr, step: Expr, items: list,
                 line: int = 0, label: str | None = None):
        self.genvar = genvar
        self.init = init
        self.cond = cond
        self.step = step
        self.items = items
        self.line = line
        self.label = label  # ``begin : label``; None names it genblk<n>


class Instance(Record):
    __slots__ = ("module", "name", "param_overrides", "connections", "line")

    def __init__(self, module: str, name: str, param_overrides: list, connections: list,
                 line: int = 0):
        self.module = module
        self.name = name
        self.param_overrides = param_overrides  # (name | None, Expr); None = positional
        # (port name | None, Expr or None); None port = positional
        self.connections = connections
        self.line = line


class ModuleDecl(Record):
    __slots__ = ("name", "port_order", "ports", "items", "params")

    def __init__(self, name: str, port_order: list):
        self.name = name
        self.port_order = port_order  # port names in header order
        self.ports = {}  # name -> PortDecl
        self.items = []
        self.params = {}  # name -> ParamDecl


class Ast(Record):
    __slots__ = ("modules",)

    def __init__(self, modules: dict):
        self.modules = modules  # name -> ModuleDecl


class SourceUnit(Record):
    __slots__ = ("files", "top_module")

    def __init__(self, files: list, top_module: str | None = None):
        self.files = files  # (path, text)
        self.top_module = top_module
