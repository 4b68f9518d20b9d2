"""Bit-blasting of the flat netlist into per-bit expression DAGs.

Every top-level output bit and every register bit becomes the root of one
DAG whose leaves are primary input bits, register bits, or constants.
Internal wires are inlined by sharing: every reader of a wire bit gets the
same ``Node``, so a wire read twice is one node with two parents, and
walks over a root (``BindTree.leaves``, ``eval_node`` with a memo, the
channelizer, ``dump_forest``) visit it once.  Comparisons always become
gates.  An adder or subtractor wider than the expansion limit stays as
one width-tagged macro node per sum bit, which the engine models in
closed form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import CombinationalLoop, UnassignedNet, UnsupportedConstruct
from .frontend import ast_nodes as A
from .frontend.elaborate import ElaboratedDesign, const_eval

DEFAULT_EXPAND_LIMIT = 4
_SHIFT_AMOUNT_LIMIT = 16

_MACRO_OPS = ("ADDM", "SUBM")


class BitRef(NamedTuple):
    """One bit of a net, a key of most dicts on the hot path.

    A tuple rather than a frozen dataclass, so hashing and equality run
    in C instead of in generated Python methods.
    """

    net: str
    bit: int
    role: str  # input-high | input-low | register | top-output

    def __str__(self):
        return f"{self.net}[{self.bit}]"


@dataclass(slots=True, eq=False)  # by identity: a shared node is one key
class Node:
    op: str  # const0 const1 leaf AND OR XOR NOT MUX ADDM SUBM
    children: tuple = ()
    ref: object = None  # leaves: a BitRef, or a channel id inside channels
    meta: tuple | None = None  # macros: (width, out_bit)

    def is_macro(self):
        return self.op in _MACRO_OPS


CONST0 = Node("const0")
CONST1 = Node("const1")


@dataclass(slots=True)
class BindTree:
    root: BitRef
    node: Node

    def leaves(self):
        """Leaf refs, one per distinct leaf node; shared subtrees are visited once."""
        out = []
        seen = set()
        stack = [self.node]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n.op == "leaf":
                out.append(n.ref)
            else:
                stack.extend(n.children)
        return out


@dataclass
class DependencyGraph:
    edges: set = field(default_factory=set)  # (root, register root it reads)
    cycles: list = field(default_factory=list)  # SCCs of size>1 and self-loops
    order: list = field(default_factory=list)  # every SCC, dependencies first


def _and(a, b):
    return Node("AND", (a, b))


def _or(a, b):
    return Node("OR", (a, b))


def _xor(a, b):
    return Node("XOR", (a, b))


def _not(a):
    return Node("NOT", (a,))


def _mux(sel, a, b):
    """sel ? a : b"""
    return Node("MUX", (sel, a, b))


class _Blaster:
    def __init__(self, design: ElaboratedDesign, expand_limit=DEFAULT_EXPAND_LIMIT):
        self.design = design
        self.expand_limit = expand_limit
        self.driver = {}
        self.seq_bits = set()
        for a in design.assigns:
            for b in range(a.lsb, a.msb + 1):
                self.driver[(a.target, b)] = a
                if a.sequential:
                    self.seq_bits.add((a.target, b))
        self._net_memo = {}
        self._expr_memo = {}
        self._in_progress = []

    # -- nets --------------------------------------------------------------
    def leaf(self, net, bit):
        kind = self.design.nets[net].kind
        if (net, bit) in self.seq_bits:
            return Node("leaf", ref=BitRef(net, bit, "register"))
        if kind == "input":
            high = self.design.labels.get(net) == "high"
            return Node("leaf", ref=BitRef(net, bit, "input-high" if high else "input-low"))
        return None  # combinational: must be inlined

    def net_bit(self, net, bit):
        if net not in self.design.nets:
            raise UnassignedNet(net)
        if bit >= self.design.nets[net].width:
            return CONST0
        key = (net, bit)
        if key in self._net_memo:
            return self._net_memo[key]
        leaf = self.leaf(net, bit)
        if leaf is not None:
            self._net_memo[key] = leaf
            return leaf
        drv = self.driver.get(key)
        if drv is None:
            raise UnassignedNet(net, bit)
        if key in self._in_progress:
            cycle = self._in_progress[self._in_progress.index(key):]
            raise CombinationalLoop([f"{n}[{b}]" for n, b in cycle])
        self._in_progress.append(key)
        try:
            bits = self.blast(drv.expr)
            pos = bit - drv.lsb
            node = bits[pos] if pos < len(bits) else CONST0
        finally:
            self._in_progress.pop()
        self._net_memo[key] = node
        return node

    # -- expressions -------------------------------------------------------
    def blast(self, expr):
        key = id(expr)
        hit = self._expr_memo.get(key)
        if hit is not None and hit[0] is expr:
            return hit[1]
        bits = self._blast(expr)
        self._expr_memo[key] = (expr, bits)
        return bits

    def _operands(self, left, right):
        """Both operands' bits, the narrower one zero-extended to the wider."""
        ab, bb = self.blast(left), self.blast(right)
        w = max(len(ab), len(bb))
        return ab + [CONST0] * (w - len(ab)), bb + [CONST0] * (w - len(bb))

    def _reduce(self, bits, op):
        acc = bits[0]
        for b in bits[1:]:
            acc = Node(op, (acc, b))
        return acc

    def _bool(self, expr):
        bits = self.blast(expr)
        return self._reduce(bits, "OR") if len(bits) > 1 else bits[0]

    def _shift_dynamic(self, bits, amt_bits, left):
        if len(amt_bits) > _SHIFT_AMOUNT_LIMIT:
            raise UnsupportedConstruct("shift amount wider than 16 bits")
        cur = list(bits)
        for j, sbit in enumerate(amt_bits):
            step = 1 << j
            if left:
                shifted = [cur[i - step] if i - step >= 0 else CONST0
                           for i in range(len(cur))]
            else:
                shifted = [cur[i + step] if i + step < len(cur) else CONST0
                           for i in range(len(cur))]
            cur = [_mux(sbit, s, c) for s, c in zip(shifted, cur)]
        return cur

    def _eq(self, abits, bbits):
        terms = [_not(_xor(x, y)) for x, y in zip(abits, bbits)]
        return self._reduce(terms, "AND")

    def _lt(self, abits, bbits):
        # LSB to MSB; the last processed (MSB) dominates
        lt = CONST0
        for x, y in zip(abits, bbits):
            eq = _not(_xor(x, y))
            lt = _or(_and(_not(x), y), _and(eq, lt))
        return lt

    def _add(self, abits, bbits, subtract):
        out = []
        carry = CONST1 if subtract else CONST0
        for x, y in zip(abits, bbits):
            if subtract:
                y = _not(y)
            s = _xor(_xor(x, y), carry)
            carry = _or(_and(x, y), _and(carry, _xor(x, y)))
            out.append(s)
        return out

    def _blast(self, expr):
        if isinstance(expr, A.Num):
            w = expr.width or max(expr.value.bit_length(), 1)
            return [CONST1 if (expr.value >> i) & 1 else CONST0 for i in range(w)]
        if isinstance(expr, A.Ident):
            w = self.design.nets[expr.name].width if expr.name in self.design.nets else 0
            if w == 0:
                raise UnassignedNet(expr.name)
            return [self.net_bit(expr.name, i) for i in range(w)]
        if isinstance(expr, A.Select):
            try:
                idx = const_eval(expr.index, {})
            except ValueError:
                idx = None
            if idx is not None and isinstance(expr.base, str):
                # only the selected bit: blasting the whole base vector would
                # follow c[i] into c[i+1] on carry chains
                return [self.net_bit(expr.base, idx) if idx >= 0 else CONST0]
            base_bits = (self.blast(A.Ident(expr.base)) if isinstance(expr.base, str)
                         else self.blast(expr.base))
            if idx is None:
                amt = self.blast(expr.index)
                return [self._shift_dynamic(base_bits, amt, left=False)[0]]
            return [base_bits[idx] if 0 <= idx < len(base_bits) else CONST0]
        if isinstance(expr, A.PartSelect):
            msb = const_eval(expr.msb, {})
            lsb = const_eval(expr.lsb, {})
            if isinstance(expr.base, str):
                # only the selected bits, as for a constant Select
                return [self.net_bit(expr.base, i) if i >= 0 else CONST0
                        for i in range(lsb, msb + 1)]
            base_bits = self.blast(expr.base)
            return [base_bits[i] if 0 <= i < len(base_bits) else CONST0
                    for i in range(lsb, msb + 1)]
        if isinstance(expr, A.Unary):
            op = expr.op
            if op == "~":
                return [_not(b) for b in self.blast(expr.operand)]
            if op == "+":
                return self.blast(expr.operand)
            if op == "-":
                bits = self.blast(expr.operand)
                zeros = [CONST0] * len(bits)
                if len(bits) > self.expand_limit:
                    w = len(bits)
                    return [Node("SUBM", tuple(zeros + bits), meta=(w, k))
                            for k in range(w)]
                return self._add(zeros, bits, subtract=True)
            if op == "!":
                return [_not(self._bool(expr.operand))]
            bits = self.blast(expr.operand)
            base = {"&": "AND", "|": "OR", "^": "XOR",
                    "~&": "AND", "~|": "OR", "~^": "XOR"}[op]
            node = self._reduce(bits, base)
            if op.startswith("~"):
                node = _not(node)
            return [node]
        if isinstance(expr, A.Binary):
            op = expr.op
            if op in ("&", "|", "^", "~^"):
                ab, bb = self._operands(expr.left, expr.right)
                if op == "~^":
                    return [_not(_xor(x, y)) for x, y in zip(ab, bb)]
                name = {"&": "AND", "|": "OR", "^": "XOR"}[op]
                return [Node(name, (x, y)) for x, y in zip(ab, bb)]
            if op in ("&&", "||"):
                x = self._bool(expr.left)
                y = self._bool(expr.right)
                return [Node("AND" if op == "&&" else "OR", (x, y))]
            if op in ("==", "!=", "<", "<=", ">", ">="):
                ab, bb = self._operands(expr.left, expr.right)
                if op in (">", "<="):
                    ab, bb = bb, ab  # a>b == b<a ; a<=b == !(b<a) == !(a'<b')
                node = self._eq(ab, bb) if op in ("==", "!=") else self._lt(ab, bb)
                return [node if op in ("==", "<", ">") else _not(node)]
            if op in ("<<", ">>"):
                bits = self.blast(expr.left)
                try:
                    amt = const_eval(expr.right, {})
                except ValueError:
                    return self._shift_dynamic(bits, self.blast(expr.right),
                                               left=op == "<<")
                if op == "<<":
                    return [bits[i - amt] if i - amt >= 0 else CONST0
                            for i in range(len(bits))]
                return [bits[i + amt] if i + amt < len(bits) else CONST0
                        for i in range(len(bits))]
            if op in ("+", "-"):
                ab, bb = self._operands(expr.left, expr.right)
                w = len(ab)
                if w > self.expand_limit:
                    mop = "ADDM" if op == "+" else "SUBM"
                    return [Node(mop, tuple(ab + bb), meta=(w, k)) for k in range(w)]
                return self._add(ab, bb, subtract=op == "-")
            raise UnsupportedConstruct(f"operator {op}")
        if isinstance(expr, A.Ternary):
            sel = self._bool(expr.cond)
            tb, ob = self._operands(expr.then, expr.other)
            return [_mux(sel, t, o) for t, o in zip(tb, ob)]
        if isinstance(expr, A.Concat):
            bits = []
            for part in reversed(expr.parts):  # written MSB-first
                bits.extend(self.blast(part))
            return bits
        if isinstance(expr, A.Repl):
            count = const_eval(expr.count, {})
            vbits = self.blast(expr.value)
            return vbits * count
        raise UnsupportedConstruct(type(expr).__name__)


def bit_blast(design: ElaboratedDesign, expand_limit=DEFAULT_EXPAND_LIMIT):
    """One BindTree per top-output bit and per register bit, stable order."""
    blaster = _Blaster(design, expand_limit)
    roots = []
    for (net, bit) in sorted(blaster.seq_bits):
        roots.append((BitRef(net, bit, "register"), blaster.driver[(net, bit)]))
    for name, bit in design.output_bits():
        if (name, bit) in blaster.seq_bits:
            continue  # already a register root
        drv = blaster.driver.get((name, bit))
        if drv is None:
            raise UnassignedNet(name, bit)
        roots.append((BitRef(name, bit, "top-output"), drv))
    forest = []
    for ref, drv in roots:
        bits = blaster.blast(drv.expr)
        pos = ref.bit - drv.lsb
        node = bits[pos] if pos < len(bits) else CONST0
        forest.append(BindTree(ref, node))
    return forest


def compute_dependencies(forest) -> DependencyGraph:
    """Root-to-root read edges; sequential cycles flagged for the fixpoint."""
    graph = DependencyGraph()
    adj = {}
    for tree in forest:
        adj.setdefault(tree.root, set())
        for leaf in tree.leaves():
            if leaf.role == "register":  # equal to its own tree's root
                graph.edges.add((tree.root, leaf))
                adj[tree.root].add(leaf)
                adj.setdefault(leaf, set())
    graph.order = _sccs(adj)
    for scc in graph.order:
        if len(scc) > 1 or any(v in adj.get(v, ()) for v in scc):
            graph.cycles.append(set(scc))
    return graph


def _sccs(adj):
    """Tarjan, iterative; each SCC comes after every SCC it reaches."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = [0]
    out = []

    for start in adj:
        if start in index:
            continue
        work = [(start, _successors(adj[start]))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, _successors(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                out.append(scc)
    return out


def _successors(succ):
    """An iterator over a successor set, in ``str`` order."""
    return iter(sorted(succ, key=str) if len(succ) > 1 else succ)


def eval_node(node: Node, values, ones=1, memo=None) -> int:
    """Evaluate a node's DAG given leaf values keyed by each leaf's ``ref``.

    With ``ones = 2**n - 1`` and each leaf bound to an n-bit lane mask (see
    ``lane_masks``), one walk evaluates n assignments at once: bit j of the
    result is the node's value under the assignment of lane j.

    ``memo``, a dict owned by the caller, keeps each gate's value by node,
    so a node shared by several parents is evaluated once and a
    reconvergent DAG costs one visit per node.  The caller empties it
    whenever ``values`` change.
    """
    op = node.op
    if op == "leaf":
        return values[node.ref]
    if op == "const0":
        return 0
    if op == "const1":
        return ones
    if memo is not None:
        out = memo.get(node)
        if out is not None:
            return out
    kids = node.children
    if op == "AND":
        out = eval_node(kids[0], values, ones, memo) & eval_node(kids[1], values, ones, memo)
    elif op == "OR":
        out = eval_node(kids[0], values, ones, memo) | eval_node(kids[1], values, ones, memo)
    elif op == "XOR":
        out = eval_node(kids[0], values, ones, memo) ^ eval_node(kids[1], values, ones, memo)
    elif op == "NOT":
        out = ones ^ eval_node(kids[0], values, ones, memo)
    elif op == "MUX":
        sel = eval_node(kids[0], values, ones, memo)
        if sel == ones:
            out = eval_node(kids[1], values, ones, memo)
        elif not sel:
            out = eval_node(kids[2], values, ones, memo)
        else:
            out = ((sel & eval_node(kids[1], values, ones, memo))
                   | ((ones ^ sel) & eval_node(kids[2], values, ones, memo)))
    elif node.is_macro():
        w, out_bit = node.meta
        sub = op == "SUBM"
        carry = ones if sub else 0
        # LSB first, as in _Blaster._add
        for i in range(out_bit + 1):
            x = eval_node(kids[i], values, ones, memo)
            y = eval_node(kids[w + i], values, ones, memo)
            y = ones ^ y if sub else y
            out = x ^ y ^ carry
            carry = (x & y) | (carry & (x ^ y))
    else:
        raise ValueError(f"unknown node op {op}")
    if memo is not None:
        memo[node] = out
    return out


@functools.cache  # n <= 16 (MAX_TABLE_INPUTS, oracle.LANE_BITS): 17 entries
def lane_masks(n):
    """Masks of 2^n lanes, one per input i: bit j is set iff bit i of j is."""
    ones = (1 << (1 << n)) - 1
    return tuple(ones // ((1 << (1 << i)) + 1) << (1 << i) for i in range(n))


def dump_forest(forest) -> str:
    """One stable S-expression per root, for golden tests.

    A gate that one root reaches more than once is written once, as a
    binding ``%n = (...)`` indented under that root's line (each binding
    above the ones it reads), and named ``%n`` wherever it is read; names
    count up through the whole dump.  A tree-shaped root is one line, and
    the dump is linear in DAG size.
    """
    counter = itertools.count()
    shared, names, bindings = set(), {}, []  # of the root being rendered

    def render(node):
        if node.op in ("const0", "const1"):
            return node.op[-1]
        if node.op == "leaf":
            return str(node.ref)
        if node in names:
            return names[node]
        tag = node.op
        if node.is_macro():
            w, out_bit = node.meta
            tag = f"{tag}:{out_bit}/{w}"
        text = f"({tag} " + " ".join(render(c) for c in node.children) + ")"
        if node not in shared:
            return text
        name = names[node] = f"%{next(counter)}"
        bindings.append(f"  {name} = {text}")
        return name

    lines = []
    for tree in sorted(forest, key=lambda t: (t.root.net, t.root.bit)):
        shared, names, bindings = _shared_gates(tree.node), {}, []
        lines.append(f"{tree.root} = {render(tree.node)}")
        lines += reversed(bindings)
    return "\n".join(lines) + "\n"


def _shared_gates(root):
    """The gates that ``root`` reaches along more than one edge."""
    seen, shared = set(), set()
    stack = [root]
    while stack:
        for child in stack.pop().children:
            if child in seen:
                if child.children:
                    shared.add(child)
            else:
                seen.add(child)
                stack.append(child)
    return shared
