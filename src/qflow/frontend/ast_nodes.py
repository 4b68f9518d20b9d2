"""AST node definitions for the supported Verilog subset.

Expressions are slotted dataclasses: equal by value, unhashable, and
without a per-instance ``__dict__``.  ``Select``/``PartSelect`` bases are
net names in parsed code but elaboration is allowed to wrap arbitrary
expressions when lowering procedural blocks to per-bit assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# --------------------------------------------------------------------------
# Expressions

class Expr:
    __slots__ = ()


@dataclass(slots=True)
class Num(Expr):
    value: int
    width: int | None = None  # None: unsized literal, sized by context


@dataclass(slots=True)
class Ident(Expr):
    name: str


@dataclass(slots=True)
class Select(Expr):
    base: object  # str (net name) or Expr after lowering
    index: Expr


@dataclass(slots=True)
class PartSelect(Expr):
    base: object
    msb: Expr
    lsb: Expr


@dataclass(slots=True)
class Unary(Expr):
    op: str  # ~ ! - + & | ^ ~& ~| ~^
    operand: Expr


@dataclass(slots=True)
class Binary(Expr):
    op: str  # & | ^ ~^ && || == != < <= > >= << >> + -
    left: Expr
    right: Expr


@dataclass(slots=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(slots=True)
class Concat(Expr):
    parts: tuple  # MSB-first, as written


@dataclass(slots=True)
class Repl(Expr):
    count: Expr
    value: Expr


# --------------------------------------------------------------------------
# Statements (procedural)

class Stmt:
    __slots__ = ()


@dataclass
class Block(Stmt):
    stmts: list


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Stmt | None


@dataclass
class ProcAssign(Stmt):
    target: Expr  # Ident / Select / PartSelect
    rhs: Expr
    blocking: bool
    line: int = 0


# --------------------------------------------------------------------------
# Module items

@dataclass
class PortDecl:
    direction: str  # input | output
    msb: Expr | None
    lsb: Expr | None
    name: str
    high: bool = False
    line: int = 0


@dataclass
class NetDecl:
    kind: str  # wire | reg
    msb: Expr | None
    lsb: Expr | None
    name: str
    init: Expr | None = None
    line: int = 0


@dataclass
class ParamDecl:
    name: str
    value: Expr


@dataclass
class ContAssign:
    target: Expr
    rhs: Expr
    line: int = 0


@dataclass
class Always:
    sens: tuple  # ('comb',) or ('posedge', clock_net)
    body: Stmt
    line: int = 0


@dataclass
class GenerateFor:
    genvar: str
    init: Expr
    cond: Expr
    step: Expr
    items: list
    line: int = 0
    label: str | None = None  # ``begin : label``; None names it genblk<n>


@dataclass
class Instance:
    module: str
    name: str
    param_overrides: list  # (name | None, Expr); None = positional
    connections: list  # (port name | None, Expr or None); None port = positional
    line: int = 0


@dataclass
class ModuleDecl:
    name: str
    port_order: list  # port names in header order
    ports: dict = field(default_factory=dict)  # name -> PortDecl
    items: list = field(default_factory=list)
    params: dict = field(default_factory=dict)  # name -> ParamDecl


@dataclass
class Ast:
    modules: dict  # name -> ModuleDecl


@dataclass
class SourceUnit:
    files: list  # (path, text)
    top_module: str | None = None
