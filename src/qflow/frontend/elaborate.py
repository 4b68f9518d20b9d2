"""Elaboration: parameters, generate unrolling, flattening, procedural lowering.

The result is a flat netlist where every assignment targets a bit range of
a single net and every right-hand side refers only to flat net names and
constants.  Procedural blocks are lowered here: blocking assignments are
substituted forward, nonblocking assignments read pre-cycle values, and
if/case control flow becomes ternary expressions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
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
from . import ast_nodes as A

_GENERATE_UNROLL_LIMIT = 1 << 16
# Constants are unbounded ints, so ``a << b`` costs b bits of memory, and
# ``a * b`` the bits of both (squaring a parameter per line would double them).
_CONST_SHIFT_LIMIT = 1 << 16


@dataclass
class FlatNet:
    name: str
    width: int
    kind: str  # input | output | wire | reg


@dataclass(slots=True)
class FlatAssign:
    target: str
    msb: int
    lsb: int
    expr: A.Expr
    sequential: bool = False


@dataclass
class ElaboratedDesign:
    top: str
    nets: dict = field(default_factory=dict)  # name -> FlatNet
    assigns: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)  # input net name -> 'high'|'low'

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
        if expr.op == "<<" and b > _CONST_SHIFT_LIMIT:
            raise UnsupportedConstruct(
                f"constant shift by {b} bits (at most {_CONST_SHIFT_LIMIT})")
        if expr.op == ">>" and a < 0:  # logical in Verilog, over a width not tracked here
            raise UnsupportedConstruct("logical shift of a negative constant")
        if expr.op == "*" and a.bit_length() + b.bit_length() > _CONST_SHIFT_LIMIT:
            raise UnsupportedConstruct(
                f"constant product wider than {_CONST_SHIFT_LIMIT} bits")
        return int(_CONST_BINARY[expr.op](a, b))
    if isinstance(expr, A.Ternary):
        return const_eval(expr.then if const_eval(expr.cond, env) else expr.other, env)
    raise ValueError(f"not a constant expression: {expr!r}")


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
        return m + 1

    def resolve(self, expr, env, scope, benv=None):
        """Substitute parameters/genvars with constants, flatten net names.

        In a procedural block, ``benv`` maps each blocking-assigned net to
        its per-bit expressions, and a read of such a net becomes its
        current value. A bit-select reads one bit's expression when its
        index is constant; part-select bounds and replication counts never
        read ``benv``.
        """
        if isinstance(expr, A.Num):
            return expr
        if isinstance(expr, A.Ident):
            if expr.name in env:
                return A.Num(env[expr.name])
            name = scope.flat(expr.name)
            return self._rebuild(name, benv) if benv and name in benv else A.Ident(name)
        if isinstance(expr, A.Select):
            if expr.base in env:  # parameter indexed as value: unsupported
                raise UnsupportedConstruct(f"bit-select of parameter {expr.base}")
            base = scope.flat(expr.base)
            if benv and base in benv:
                try:
                    idx = const_eval(expr.index, env)
                except ValueError:
                    return A.Select(self._rebuild(base, benv),
                                    self.resolve(expr.index, env, scope, benv))
                bits = benv[base]
                if 0 <= idx < len(bits) and bits[idx] is not None:
                    return bits[idx]
                return A.Select(base, A.Num(idx))
            return A.Select(base, self.resolve(expr.index, env, scope, benv))
        if isinstance(expr, A.PartSelect):
            base = scope.flat(expr.base)
            if benv and base in benv:
                base = self._rebuild(base, benv)
            return A.PartSelect(base, self.resolve(expr.msb, env, scope),
                                self.resolve(expr.lsb, env, scope))
        if isinstance(expr, A.Unary):
            return A.Unary(expr.op, self.resolve(expr.operand, env, scope, benv))
        if isinstance(expr, A.Binary):
            return A.Binary(expr.op, self.resolve(expr.left, env, scope, benv),
                            self.resolve(expr.right, env, scope, benv))
        if isinstance(expr, A.Ternary):
            return A.Ternary(self.resolve(expr.cond, env, scope, benv),
                             self.resolve(expr.then, env, scope, benv),
                             self.resolve(expr.other, env, scope, benv))
        if isinstance(expr, A.Concat):
            return A.Concat(tuple(self.resolve(p, env, scope, benv) for p in expr.parts))
        if isinstance(expr, A.Repl):
            return A.Repl(self.resolve(expr.count, env, scope),
                          self.resolve(expr.value, env, scope, benv))
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
            b = const_eval(target.index, {})
            return target.base, b, b
        if isinstance(target, A.PartSelect):
            if not isinstance(target.base, str):
                raise UnsupportedConstruct("assignment to expression")
            return target.base, const_eval(target.msb, {}), const_eval(target.lsb, {})
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
                label = item.label or f"genblk{loops}"
                for ienv in self._generate_envs(item, env):
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
        for _ in range(_GENERATE_UNROLL_LIMIT):
            ienv = dict(env)
            ienv[gen.genvar] = val
            try:
                if not const_eval(gen.cond, ienv):
                    return envs
                envs.append(ienv)
                val = const_eval(gen.step, ienv)
            except ValueError as e:
                raise NonConstantGenerateBound(f"genvar {gen.genvar}") from e
        raise NonConstantGenerateBound(f"genvar {gen.genvar}: unroll limit exceeded")

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
            overrides[pname] = const_eval(self.resolve(expr, env, scope), {})

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
        sequential = always.sens[0] == "posedge"
        benv: dict = {}  # net -> list of per-bit exprs (blocking view)
        nenv: dict = {}  # net -> list of per-bit exprs (nonblocking targets)
        self._exec(always.body, env, scope, benv, nenv)
        if sequential:
            # blocking targets inside a clocked block infer registers too
            for net, bits in list(benv.items()):
                dst = nenv.setdefault(net, [None] * len(bits))
                for i, e in enumerate(bits):
                    if e is not None and dst[i] is None:
                        dst[i] = e
            emit, seq = nenv, True
        else:
            for net, bits in nenv.items():
                dst = benv.setdefault(net, [None] * len(bits))
                for i, e in enumerate(bits):
                    if e is not None:
                        dst[i] = e
            emit, seq = benv, False
        for net, bits in emit.items():
            for i, e in enumerate(bits):
                if e is not None:
                    self.assigns.append(FlatAssign(net, i, i, e, sequential=seq))

    def _rebuild(self, net, benv):
        """Current value of a net as an expression (MSB-first concat)."""
        bits = benv[net]
        parts = []
        for i in range(len(bits) - 1, -1, -1):
            parts.append(bits[i] if bits[i] is not None else A.Select(net, A.Num(i)))
        if len(parts) == 1:
            return parts[0]
        return A.Concat(tuple(parts))

    def _exec(self, stmt, env, scope, benv, nenv):
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                self._exec(s, env, scope, benv, nenv)
        elif isinstance(stmt, A.ProcAssign):
            target = self.resolve(stmt.target, env, scope)
            rhs = self.resolve(stmt.rhs, env, scope, benv)
            net, msb, lsb = self.target_bits(target)
            if net not in self.nets:
                raise UnknownSignal(net)
            width = msb - lsb + 1
            dest = benv if stmt.blocking else nenv
            bits = dest.setdefault(net, [None] * self.nets[net].width)
            for k in range(width):
                bits[lsb + k] = rhs if width == 1 else A.Select(rhs, A.Num(k))
        elif isinstance(stmt, A.If):
            cond = self.resolve(stmt.cond, env, scope, benv)
            b1 = {n: list(v) for n, v in benv.items()}
            n1 = {n: list(v) for n, v in nenv.items()}
            self._exec(stmt.then, env, scope, b1, n1)
            b2 = {n: list(v) for n, v in benv.items()}
            n2 = {n: list(v) for n, v in nenv.items()}
            if stmt.other is not None:
                self._exec(stmt.other, env, scope, b2, n2)
            self._merge(cond, benv, b1, b2)
            self._merge(cond, nenv, n1, n2)
        else:
            raise UnsupportedConstruct(type(stmt).__name__)

    def _merge(self, cond, dest, e1, e2):
        for net in set(e1) | set(e2):
            v1 = e1.get(net)
            v2 = e2.get(net)
            width = len(v1 if v1 is not None else v2)
            out = dest.setdefault(net, [None] * width)
            pre = list(out)
            for i in range(width):
                a = v1[i] if v1 is not None else None
                b = v2[i] if v2 is not None else None
                if a is b:
                    out[i] = a
                    continue
                # untouched side keeps the pre-branch value (or the stored one)
                fallback = pre[i] if pre[i] is not None else A.Select(net, A.Num(i))
                a = a if a is not None else fallback
                b = b if b is not None else fallback
                out[i] = a if a is b else A.Ternary(cond, a, b)


def elaborate(ast: A.Ast, top: str, labels: dict) -> ElaboratedDesign:
    """Flatten the design rooted at ``top`` into bit-range assignments.

    ``labels`` maps each input net of ``top`` to 'high' or 'low', as
    ``extract_labels`` gives them.
    """
    if top not in ast.modules:
        raise UnknownSignal(f"module {top}")
    elab = _Elaborator(ast)
    elab.instantiate(ast.modules[top], "", {}, [top])

    seen = {}
    for a in elab.assigns:
        if a.target not in elab.nets:
            raise UnknownSignal(a.target)
        w = elab.nets[a.target].width
        if not (0 <= a.lsb <= a.msb < w):
            raise WidthMismatch(a.target, f"range [{a.msb}:{a.lsb}] outside width {w}")
        for b in range(a.lsb, a.msb + 1):
            if (a.target, b) in seen:
                raise MultipleDrivers(a.target, b)
            seen[(a.target, b)] = a

    return ElaboratedDesign(top=top, nets=elab.nets, assigns=elab.assigns,
                            labels=dict(labels))
