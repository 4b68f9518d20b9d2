"""Elaboration: parameters, generate unrolling, flattening, procedural lowering.

The result is a flat netlist where every assignment targets a bit range of
a single net and every right-hand side refers only to flat net names and
constants.  Procedural blocks are lowered here: blocking assignments are
substituted forward, nonblocking assignments read pre-cycle values, and
if/case control flow becomes ternary expressions: each branch writes
into a ``ChainMap`` child of the enclosing view, and only the nets a
branch wrote are merged, in first-write order.  A procedural vector
write stays one ranged assignment of its right-hand side; only the bits
that control flow or a later write changed become assignments of their own.

A generate loop that is plainly bit-parallel is elaborated once, as
vector statements: its iterations are ``lo..hi`` in order, its body is
clocked blocks of nonblocking writes alone, and every target and read is
``net[g]`` of the bare genvar, joined only by bitwise ``& | ^ ~^ ~``.
Each ``net[g]`` becomes ``net[hi:lo]``, so a statement is one ranged
assignment, blasted once.  Only clocked loops qualify: their targets are
registers, whose reads are leaves, so blasting a whole vector cannot reach
back into its own bits, as a combinational ``assign`` of one bit that
reads another bit of its vector would (a false ``CombinationalLoop``).
Every other loop is elaborated once per iteration.

In the top module's own scope, where names are flat already and each
item is elaborated once, a parsed expression that nothing substitutes is
handed on as it is, not copied; an instance or a generate iteration gets
a fresh tree per copy, so that each copy blasts to gates of its own.
"""

from __future__ import annotations

import itertools
import operator
from collections import ChainMap
from typing import NamedTuple

from ..errors import (
    MultipleDrivers,
    NonConstantGenerateBound,
    QFlowError,
    RecursiveInstantiation,
    UnknownSignal,
    UnsupportedConstruct,
    WidthMismatch,
)
from .._record import Record
from . import ast_nodes as A
from .lexer import WIDTH_LIMIT

# Constants are unbounded ints, so ``a << b`` costs b bits of memory, and
# ``a * b`` the bits of both (squaring a parameter per line would double
# them): both are held to ``WIDTH_LIMIT`` bits, as nets are.


class FlatNet(Record):
    __slots__ = ("name", "width", "kind")

    def __init__(self, name: str, width: int, kind: str):
        self.name = name
        self.width = width
        self.kind = kind  # input | output | wire | reg


class FlatAssign(Record):
    __slots__ = ("target", "msb", "lsb", "expr", "sequential")

    def __init__(self, target: str, msb: int, lsb: int, expr: A.Expr, sequential: bool = False):
        self.target = target
        self.msb = msb
        self.lsb = lsb
        self.expr = expr
        self.sequential = sequential


class ElaboratedDesign(Record):
    __slots__ = ("top", "nets", "assigns", "labels", "driver")

    def __init__(self, top: str, nets: dict | None = None, assigns: list | None = None,
                 labels: dict | None = None, driver: dict | None = None):
        self.top = top
        self.nets = {} if nets is None else nets  # name -> FlatNet
        self.assigns = [] if assigns is None else assigns
        self.labels = {} if labels is None else labels  # input net name -> 'high'|'low'
        # (net, bit) -> the FlatAssign that drives it
        self.driver = {} if driver is None else driver

    def high_bits(self):
        """Secret bit identities in declaration order: [(net, bit, secret_id)]."""
        out = []
        sid = 0
        for name, net in self.nets.items():
            if net.kind == "input" and self.labels.get(name) == "high":
                for b in range(net.width):
                    out.append((name, b, sid))
                    sid += 1
        return out

    def output_bits(self):
        """Top-output bits, nets in name order, each LSB first: [(net, bit)]."""
        return [(name, b) for name, net in sorted(self.nets.items())
                if net.kind == "output" for b in range(net.width)]


class _Scope(NamedTuple):
    """Where an item's names live.

    ``base`` prefixes the module's own nets, ``local`` maps the nets
    declared in enclosing generate-loop bodies to their per-iteration flat
    names, and ``prefix`` is given to the instances and loop iterations
    declared here, e.g. ``g[0].`` inside iteration 0 of ``begin : g``.
    """

    base: str
    prefix: str
    local: dict

    def flat(self, name):
        return self.local.get(name, self.base + name)


# --------------------------------------------------------------------------
# Constant evaluation over parameter / genvar environments

# Integer semantics of the operators a constant expression may use; only
# the one an expression names is applied.
_CONST_UNARY = {"-": operator.neg, "+": operator.pos, "~": operator.invert,
                "!": operator.not_}
def _const_div(a, b):
    """``a / b`` truncated toward zero, as Verilog divides integers."""
    if b == 0:
        raise UnsupportedConstruct("division by zero in a constant expression")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_CONST_BINARY = {
    "*": operator.mul, "/": _const_div, "%": lambda a, b: a - b * _const_div(a, b),
    "+": operator.add, "-": operator.sub, "&": operator.and_, "|": operator.or_,
    "^": operator.xor, "~^": lambda a, b: ~(a ^ b),
    "<<": operator.lshift, ">>": operator.rshift,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "&&": lambda a, b: bool(a) and bool(b), "||": lambda a, b: bool(a) or bool(b),
}


def const_eval(expr, env):
    if isinstance(expr, A.Num):
        return expr.value
    if isinstance(expr, A.Ident):
        if expr.name in env:
            return env[expr.name]
        raise ValueError(f"not a constant: {expr.name}")
    if isinstance(expr, A.Unary):
        v = const_eval(expr.operand, env)
        if expr.op not in _CONST_UNARY:  # a reduction's value depends on a width
            raise UnsupportedConstruct(f"operator {expr.op} in a constant expression")
        return int(_CONST_UNARY[expr.op](v))
    if isinstance(expr, A.Binary):
        a, b = const_eval(expr.left, env), const_eval(expr.right, env)
        if expr.op in ("<<", ">>") and b < 0:  # the amount is unsigned: every bit is shifted out
            return 0
        if expr.op == "<<" and b > WIDTH_LIMIT:
            raise UnsupportedConstruct(
                f"constant shift by {b} bits (at most {WIDTH_LIMIT})")
        if expr.op == ">>" and a < 0:  # logical in Verilog, over a width not tracked here
            raise UnsupportedConstruct("logical shift of a negative constant")
        if expr.op == "*" and a.bit_length() + b.bit_length() > WIDTH_LIMIT:
            raise UnsupportedConstruct(
                f"constant product wider than {WIDTH_LIMIT} bits")
        return int(_CONST_BINARY[expr.op](a, b))
    if isinstance(expr, A.Ternary):
        return const_eval(expr.then if const_eval(expr.cond, env) else expr.other, env)
    # the type, not the repr: the bit-blaster asks this of every select's index and
    # catches it, so a repr would cost the size of the nest below each select
    raise ValueError(f"not a constant expression: {type(expr).__name__}")


def constant(expr, construct, location=""):
    """The value of ``expr``, which the design must give as a constant: else
    ``UnsupportedConstruct`` naming ``construct``, such as a replication count."""
    try:
        return const_eval(expr, {})
    except ValueError:
        raise UnsupportedConstruct(f"non-constant {construct}", location) from None


class _Elaborator:
    def __init__(self, ast):
        self.ast = ast
        self.nets = {}
        self.assigns = []

    # -- helpers -----------------------------------------------------------
    def _range_width(self, msb, lsb, env, where):
        if msb is None:
            return 1
        try:
            m = const_eval(msb, env)
            l = const_eval(lsb, env)
        except ValueError as e:
            raise NonConstantGenerateBound(where) from e
        if l != 0:
            raise UnsupportedConstruct(f"non-zero range base [{m}:{l}]", where)
        if m >= WIDTH_LIMIT:
            raise UnsupportedConstruct(f"net of {m + 1} bits (at most {WIDTH_LIMIT})", where)
        return m + 1

    def resolve(self, expr, env, scope, benv=None):
        """Substitute parameters/genvars with constants, flatten net names.

        In a procedural block, ``benv`` maps each blocking-assigned net to
        the expressions of the bits written so far, ``{bit: expr}``, and a
        read of such a net becomes its current value. A bit-select reads
        one bit's expression when its index is constant; part-select bounds
        and replication counts never read ``benv``.

        In the top module's own scope (``scope.prefix`` is empty) every name
        is already flat and each parsed expression is resolved once, so an
        expression that resolving leaves as it is comes back itself, not as
        a copy.  Elsewhere one parsed tree is resolved once per instance or
        generate iteration, and each gets a fresh tree: the blaster gives
        one expression object one set of nodes, so sharing it would merge
        the copies' gates.
        """
        kind = type(expr)
        if kind is A.Select:
            base, index = expr.base, expr.index
            if base in env:  # parameter indexed as value: unsupported
                raise UnsupportedConstruct(f"bit-select of parameter {base}")
            flat = scope.flat(base)
            if benv and flat in benv:
                try:
                    idx = const_eval(index, env)
                except ValueError:
                    return A.Select(self._rebuild(flat, benv),
                                    self.resolve(index, env, scope, benv))
                e = benv[flat].get(idx)
                return A.Select(flat, A.Num(idx)) if e is None else _expr(e)
            kind = type(index)
            if kind is A.Ident and index.name in env:  # a genvar or a parameter
                return A.Select(flat, A.Num(env[index.name]))
            if kind is not A.Num:  # the commonest index is a number, which stays
                index = self.resolve(index, env, scope, benv)
            if scope.prefix or index is not expr.index:
                return A.Select(flat, index)
            return expr
        if kind is A.Binary:
            left = self.resolve(expr.left, env, scope, benv)
            right = self.resolve(expr.right, env, scope, benv)
            if scope.prefix or left is not expr.left or right is not expr.right:
                return A.Binary(expr.op, left, right)
            return expr
        if kind is A.Ident:
            name = expr.name
            if name in env:
                return A.Num(env[name])
            flat = scope.flat(name)
            if benv and flat in benv:
                return self._rebuild(flat, benv)
            return A.Ident(flat) if scope.prefix else expr
        if kind is A.Num:
            return expr
        if kind is A.Unary:
            operand = self.resolve(expr.operand, env, scope, benv)
            if scope.prefix or operand is not expr.operand:
                return A.Unary(expr.op, operand)
            return expr
        if kind is A.Ternary:
            cond = self.resolve(expr.cond, env, scope, benv)
            then = self.resolve(expr.then, env, scope, benv)
            other = self.resolve(expr.other, env, scope, benv)
            if (scope.prefix or cond is not expr.cond or then is not expr.then
                    or other is not expr.other):
                return A.Ternary(cond, then, other)
            return expr
        if kind is A.PartSelect:
            base = flat = scope.flat(expr.base)
            if benv and flat in benv:
                base = self._rebuild(flat, benv)
            msb = self.resolve(expr.msb, env, scope)
            lsb = self.resolve(expr.lsb, env, scope)
            if (scope.prefix or base is not flat or msb is not expr.msb
                    or lsb is not expr.lsb):
                return A.PartSelect(base, msb, lsb)
            return expr
        if kind is A.Concat:
            parts = tuple([self.resolve(p, env, scope, benv) for p in expr.parts])
            if scope.prefix or any(map(operator.is_not, parts, expr.parts)):
                return A.Concat(parts)
            return expr
        if kind is A.Repl:
            count = self.resolve(expr.count, env, scope)
            value = self.resolve(expr.value, env, scope, benv)
            if scope.prefix or count is not expr.count or value is not expr.value:
                return A.Repl(count, value)
            return expr
        raise UnsupportedConstruct(f"expression {type(expr).__name__}")

    def net_width(self, name):
        if name not in self.nets:
            raise UnknownSignal(name)
        return self.nets[name].width

    def target_bits(self, target):
        """Resolved lvalue -> (net, msb, lsb)."""
        if isinstance(target, A.Ident):
            w = self.net_width(target.name)
            return target.name, w - 1, 0
        if isinstance(target, A.Select):
            if not isinstance(target.base, str):
                raise UnsupportedConstruct("assignment to expression")
            b = constant(target.index, "bit-select in an assignment target", target.base)
            return target.base, b, b
        if isinstance(target, A.PartSelect):
            if not isinstance(target.base, str):
                raise UnsupportedConstruct("assignment to expression")
            return (target.base,
                    constant(target.msb, "part-select in an assignment target", target.base),
                    constant(target.lsb, "part-select in an assignment target", target.base))
        raise UnsupportedConstruct(f"assignment target {type(target).__name__}")

    # -- instantiation -----------------------------------------------------
    def instantiate(self, mod, prefix, param_overrides, stack):
        env = {}
        for name, p in mod.params.items():
            env[name] = (param_overrides[name] if name in param_overrides
                         else self._param_value(p, env))

        # declare ports, then internal nets
        for pname in mod.port_order:
            if pname not in mod.ports:
                raise UnknownSignal(f"port {pname} of module {mod.name} has no direction")
            p = mod.ports[pname]
            w = self._range_width(p.msb, p.lsb, env, f"{mod.name}.{pname}")
            kind = p.direction if prefix == "" else "wire"
            self.nets[prefix + pname] = FlatNet(prefix + pname, w, kind)
        deferred = []
        self._declare_items(mod.items, env, _Scope(prefix, prefix, {}), deferred)
        for item, ienv, scope in deferred:
            self._elab_item(item, ienv, scope, stack)

    @staticmethod
    def _param_value(param, env):
        try:
            return const_eval(param.value, env)
        except ValueError as e:
            raise NonConstantGenerateBound(f"parameter {param.name}") from e

    def _declare_items(self, items, env, scope, deferred):
        """First pass: declare nets so widths are known before lowering.

        Each generate-loop iteration is its own scope: the nets and
        instances its body declares get the iteration's prefix, its
        parameters go into the iteration's ``env`` for the items after
        them, and every other name still resolves to the enclosing scope.
        """
        loops = 0
        for item in items:
            if isinstance(item, A.ParamDecl):
                env[item.name] = self._param_value(item, env)
            elif isinstance(item, A.NetDecl):
                flat = scope.flat(item.name)
                w = self._range_width(item.msb, item.lsb, env, flat)
                if flat in self.nets:
                    # port re-declared as reg: keep the port kind
                    if self.nets[flat].width != w:
                        raise WidthMismatch(flat, "redeclaration width differs")
                else:
                    self.nets[flat] = FlatNet(flat, w, item.kind)
                if item.init is not None:
                    deferred.append((A.ContAssign(A.Ident(item.name), item.init), dict(env),
                                     scope))
            elif isinstance(item, A.GenerateFor):
                loops += 1
                envs = self._generate_envs(item, env)
                vector = self._vector_items(item, envs, scope)
                if vector is not None:
                    deferred += [(v, dict(env), scope) for v in vector]
                    continue
                label = item.label or f"genblk{loops}"
                for ienv in envs:
                    prefix = f"{scope.prefix}{label}[{ienv[item.genvar]}]."
                    local = dict(scope.local)
                    local.update((d.name, prefix + d.name) for d in item.items
                                 if isinstance(d, A.NetDecl))
                    self._declare_items(item.items, ienv, _Scope(scope.base, prefix, local),
                                        deferred)
            else:
                deferred.append((item, dict(env), scope))

    def _generate_envs(self, gen, env):
        try:
            val = const_eval(gen.init, env)
        except ValueError as e:
            raise NonConstantGenerateBound(f"genvar {gen.genvar}") from e
        envs = []
        for _ in range(WIDTH_LIMIT + 1):  # one more, to tell a loop past the limit
            ienv = dict(env)
            ienv[gen.genvar] = val
            try:
                if not const_eval(gen.cond, ienv):
                    return envs
                envs.append(ienv)
                val = const_eval(gen.step, ienv)
            except ValueError as e:
                raise NonConstantGenerateBound(f"genvar {gen.genvar}") from e
        raise UnsupportedConstruct(
            f"generate loop of more than {WIDTH_LIMIT} iterations (genvar {gen.genvar})")

    def _vector_items(self, gen, envs, scope):
        """The body of a bit-parallel loop (see the module docstring) as
        vector statements, whose bit ``lo + k`` is iteration ``lo + k``'s;
        None for any other loop."""
        values = [ienv[gen.genvar] for ienv in envs]
        if not values or values != list(range(values[0], values[0] + len(values))):
            return None
        lo, hi = values[0], values[-1]
        # a name in envs[0] is a parameter or the genvar, never a net
        loop = (gen.genvar, lo, hi, envs[0], scope)
        items = []
        for item in gen.items:
            if (type(item) is not A.Always or item.sens[0] != "posedge"
                    or type(item.body) is not A.Block):
                return None
            stmts = []
            for s in item.body.stmts:
                if type(s) is not A.ProcAssign or s.blocking or type(s.target) is not A.Select:
                    return None
                target, rhs = self._vector(s.target, loop), self._vector(s.rhs, loop)
                if target is None or rhs is None:
                    return None
                stmts.append(A.ProcAssign(target, rhs, False, s.line))
            items.append(A.Always(item.sens, A.Block(stmts), item.line))
        return items

    def _vector(self, e, loop):
        """``e`` with each ``net[g]`` read as ``net[hi:lo]``, or ``net`` when
        that is all of it; None if ``e`` is not bitwise over such reads."""
        kind = type(e)
        if kind is A.Binary and e.op in ("&", "|", "^", "~^"):
            left, right = self._vector(e.left, loop), self._vector(e.right, loop)
            return left and right and A.Binary(e.op, left, right)
        if kind is A.Unary and e.op == "~":
            operand = self._vector(e.operand, loop)
            return operand and A.Unary("~", operand)
        genvar, lo, hi, consts, scope = loop
        if (kind is not A.Select or type(e.index) is not A.Ident
                or e.index.name != genvar or e.base in consts):
            return None
        net = self.nets.get(scope.flat(e.base))  # None: not declared before the loop
        if net is None or lo < 0 or hi >= net.width:
            return None
        if lo == 0 and hi == net.width - 1:
            return A.Ident(e.base)
        return A.PartSelect(e.base, A.Num(hi), A.Num(lo))

    def _elab_item(self, item, env, scope, stack):
        if isinstance(item, A.ContAssign):
            target = self.resolve(item.target, env, scope)
            rhs = self.resolve(item.rhs, env, scope)
            net, msb, lsb = self.target_bits(target)
            self.assigns.append(FlatAssign(net, msb, lsb, rhs))
        elif isinstance(item, A.Always):
            self._lower_always(item, env, scope)
        elif isinstance(item, A.Instance):
            self._elab_instance(item, env, scope, stack)
        else:
            raise UnsupportedConstruct(type(item).__name__)

    def _elab_instance(self, inst, env, scope, stack):
        if inst.module not in self.ast.modules:
            raise UnknownSignal(f"module {inst.module}")
        if inst.module in stack:
            raise RecursiveInstantiation(stack + [inst.module])
        child = self.ast.modules[inst.module]
        where = scope.prefix + inst.name
        cprefix = where + "."

        overrides = {}
        pnames = list(child.params)
        for i, (name, expr) in enumerate(inst.param_overrides):
            pname = name if name is not None else (pnames[i] if i < len(pnames) else None)
            if pname is None or pname not in child.params:
                raise UnknownSignal(f"parameter {pname} of {inst.module}")
            overrides[pname] = constant(self.resolve(expr, env, scope),
                                        f"override of parameter {pname}", where)

        conns = {}
        for i, (pname, expr) in enumerate(inst.connections):
            if pname is None:
                if i >= len(child.port_order):
                    raise WidthMismatch(where, "too many port connections")
                pname = child.port_order[i]
            if pname not in child.ports:
                raise UnknownSignal(f"port {pname} of {inst.module}")
            conns[pname] = expr

        self.instantiate(child, cprefix, overrides, stack + [inst.module])

        for pname, expr in conns.items():
            if expr is None:
                continue
            port = child.ports[pname]
            resolved = self.resolve(expr, env, scope)
            flat_port = cprefix + pname
            pw = self.nets[flat_port].width
            if port.direction == "input":
                if isinstance(resolved, A.Ident) and resolved.name in self.nets:
                    aw = self.nets[resolved.name].width
                    if aw != pw:
                        raise WidthMismatch(f"{where}.{pname}",
                                            f"port width {pw} vs {aw}")
                self.assigns.append(FlatAssign(flat_port, pw - 1, 0, resolved))
            else:
                net, msb, lsb = self.target_bits(resolved)
                if msb - lsb + 1 != pw:
                    raise WidthMismatch(f"{where}.{pname}",
                                        f"port width {pw} vs {msb - lsb + 1}")
                self.assigns.append(FlatAssign(net, msb, lsb, A.Ident(flat_port)))

    # -- procedural lowering ----------------------------------------------
    def _lower_always(self, always, env, scope):
        """Lower one block. Each net's written bits are a sparse
        ``{bit: expr}``, so the cost follows the writes, not the widths of
        the nets written."""
        sequential = always.sens[0] == "posedge"
        benv = ChainMap()  # net -> {bit: expr} (blocking view)
        nenv = ChainMap()  # net -> {bit: expr} (nonblocking targets)
        self._exec(always.body, env, scope, benv, nenv)
        benv, nenv = benv.maps[0], nenv.maps[0]
        if sequential:
            # blocking targets inside a clocked block infer registers too
            for net, bits in list(benv.items()):
                dst = nenv.setdefault(net, {})
                for i, e in bits.items():
                    dst.setdefault(i, e)
            emit, seq = nenv, True
        else:
            for net, bits in nenv.items():
                benv.setdefault(net, {}).update(bits)
            emit, seq = benv, False
        for net, bits in emit.items():
            self._emit(net, bits, seq)

    def _emit(self, net, bits, sequential):
        """A net's written bits as ``FlatAssign``s, lowest bit first.

        A vector write leaves ``(rhs, k)`` at bit ``lsb + k`` (see ``_expr``).
        Each maximal run of bits that reads bits 0, 1, ... of one ``rhs``
        becomes one ranged assign of ``rhs``.  Every other bit (a partial
        overwrite, a branch merge, a 1-bit write) is an assign of its own,
        which blasts to the same node: the blaster takes bit k of a
        ``Select``'s expression base from the blasted base.
        """
        end = 0  # the bits below end are emitted
        for i in sorted(bits):
            if i < end:
                continue
            e = bits[i]
            end = i + 1
            if type(e) is tuple and e[1] == 0:
                rhs = e[0]
                while (type(nxt := bits.get(end)) is tuple
                       and nxt[1] == end - i and nxt[0] is rhs):
                    end += 1
                self.assigns.append(FlatAssign(net, end - 1, i, rhs, sequential))
            else:
                self.assigns.append(FlatAssign(net, i, i, _expr(e), sequential))

    def _rebuild(self, net, benv):
        """Current value of a net as an expression (MSB-first concat)."""
        bits = benv[net]
        parts = []
        for i in range(self.nets[net].width - 1, -1, -1):
            e = bits.get(i)
            parts.append(A.Select(net, A.Num(i)) if e is None else _expr(e))
        if len(parts) == 1:
            return parts[0]
        return A.Concat(tuple(parts))

    def _exec(self, stmt, env, scope, benv, nenv):
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                self._exec(s, env, scope, benv, nenv)
        elif isinstance(stmt, A.ProcAssign):
            target = self.resolve(stmt.target, env, scope)
            # ``or None``: an empty view reads nothing, so skip its lookups
            rhs = self.resolve(stmt.rhs, env, scope, benv or None)
            net, msb, lsb = self.target_bits(target)
            if net not in self.nets:
                raise UnknownSignal(net)
            w = self.nets[net].width
            if not 0 <= lsb <= msb < w:
                raise WidthMismatch(net, f"range [{msb}:{lsb}] outside width {w}")
            bits = _written(benv if stmt.blocking else nenv, net)
            if msb == lsb:
                bits[lsb] = rhs
            else:
                bits.update(zip(range(lsb, msb + 1),
                                zip(itertools.repeat(rhs), range(msb - lsb + 1))))
        elif isinstance(stmt, A.If):
            cond = self.resolve(stmt.cond, env, scope, benv or None)
            b1, n1 = benv.new_child(), nenv.new_child()
            self._exec(stmt.then, env, scope, b1, n1)
            b2, n2 = benv.new_child(), nenv.new_child()
            if stmt.other is not None:
                self._exec(stmt.other, env, scope, b2, n2)
            self._merge(cond, benv, b1.maps[0], b2.maps[0])
            self._merge(cond, nenv, n1.maps[0], n2.maps[0])
        else:
            raise UnsupportedConstruct(type(stmt).__name__)

    def _merge(self, cond, dest, w1, w2):
        """Join into ``dest`` the nets either branch wrote (``w1``, ``w2``),
        in first-write order, the ``then`` branch's first."""
        empty = {}
        for net in dict.fromkeys([*w1, *w2]):
            v1 = w1.get(net, empty)
            v2 = w2.get(net, empty)
            out = _written(dest, net)
            pre = dict(out)
            # a branch's bits hold the pre-branch ones it did not write, so
            # only the bits either branch holds can change
            for i in dict.fromkeys([*v1, *v2]):
                a, b = v1.get(i), v2.get(i)
                if a is b:
                    out[i] = a
                    continue
                # untouched side keeps the pre-branch value (or the stored one)
                fallback = pre.get(i)
                if fallback is None:
                    fallback = A.Select(net, A.Num(i))
                a = a if a is not None else fallback
                b = b if b is not None else fallback
                out[i] = a if a is b else A.Ternary(cond, _expr(a), _expr(b))


def _written(env, net):
    """The written bits of ``net``, ``{bit: expr}``, that a write to ``env``,
    a ``ChainMap``, may change: the first write in a branch copies the
    enclosing ones."""
    own = env.maps[0]
    bits = own.get(net)
    if bits is None:
        outer = env.get(net) if len(env.maps) > 1 else None
        bits = own[net] = dict(outer or ())
    return bits


def _expr(e):
    """An entry of a bit list as an expression.  A vector write of ``rhs``
    leaves the tuple ``(rhs, k)`` at its k-th bit, which is
    ``Select(rhs, Num(k))`` when the bit is read, merged or emitted alone."""
    return A.Select(e[0], A.Num(e[1])) if type(e) is tuple else e


def elaborate(ast: A.Ast, top: str, labels: dict) -> ElaboratedDesign:
    """Flatten the design rooted at ``top`` into bit-range assignments.

    ``labels`` maps each input net of ``top`` to 'high' or 'low', as
    ``extract_labels`` gives them.
    """
    if top not in ast.modules:
        raise UnknownSignal(f"module {top}")
    elab = _Elaborator(ast)
    elab.instantiate(ast.modules[top], "", {}, [top])

    driver = {}
    for a in elab.assigns:
        target = a.target
        if target not in elab.nets:
            raise UnknownSignal(target)
        w = elab.nets[target].width
        if not (0 <= a.lsb <= a.msb < w):
            raise WidthMismatch(target, f"range [{a.msb}:{a.lsb}] outside width {w}")
        if elab.nets[target].kind == "input":  # the top's inputs are driven from outside
            raise MultipleDrivers(target, a.lsb)
        for b in range(a.lsb, a.msb + 1):
            if driver.setdefault((target, b), a) is not a:
                raise MultipleDrivers(target, b)

    return ElaboratedDesign(top=top, nets=elab.nets, assigns=elab.assigns,
                            labels=dict(labels), driver=driver)
