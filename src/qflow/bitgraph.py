"""Bit-blasting of the flat netlist into per-bit expression DAGs.

Every top-level output bit and every register bit becomes the root of one
DAG whose leaves are primary input bits, register bits, or constants.
Internal wires are inlined by sharing: every reader of a wire bit gets the
same ``Node``, so a wire read twice is one node with two parents.  Every
consumer of these DAGs (``BindTree.leaves``, ``eval_node``, the
channelizer, ``dump_forest``, the oracle) walks ``postorder``: each node
once, after its children, at any depth.  Comparisons always become
gates.  One method, ``_add``, lowers ``+``, binary ``-`` and unary
``-``: up to ``EXPAND_LIMIT`` bits to gates, wider to one width-tagged
macro node per sum bit, which the engine models in closed form.
``blast`` recurses once per expression level: it blasts each operand
itself and hands bits, never an expression, to the helpers that build
gates.  Its commonest leaf, a net's bit by a number (the parser's fused
``k[3]``), is read straight from ``net_bit``, 0 outside the net, with no
constant evaluation and no memo of its own.  Which register reads which
is a question for the channel graph (``qif_engine.compute_dependencies``),
not for these DAGs.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import NamedTuple

from ._record import Record
from .errors import CombinationalLoop, UnassignedNet, UnsupportedConstruct, WidthMismatch
from .frontend import ast_nodes as A
from .frontend.elaborate import ElaboratedDesign, const_eval, constant
from .frontend.lexer import WIDTH_LIMIT

EXPAND_LIMIT = 4  # the widest adder or subtractor lowered to gates
_SHIFT_AMOUNT_LIMIT = 16

_MACRO_OPS = ("ADDM", "SUBM")
_GATE = {"&": "AND", "|": "OR", "^": "XOR"}  # a bitwise operator's, or a reduction's, gate
_BINARY_OPS = frozenset(("&", "|", "^", "~^", "&&", "||", "==", "!=", "<", "<=", ">", ">=",
                         "<<", ">>", "+", "-"))


class BitRef(NamedTuple):
    """One bit of a net, a key of most dicts on the hot path.

    A tuple rather than a ``Record``, so hashing and equality run in C
    instead of in Python methods.
    """

    net: str
    bit: int
    role: str  # input-high | input-low | register | top-output

    def __str__(self):
        return f"{self.net}[{self.bit}]"


# BitRef((net, bit, role)) without the NamedTuple's Python-level __new__
_bitref = functools.partial(tuple.__new__, BitRef)


class Node:
    """A gate, leaf or constant; equal and hashed by identity: a shared node is one key."""

    __slots__ = ("op", "children", "ref", "meta")
    __repr__ = Record.__repr__

    def __init__(self, op: str, children: tuple = (), ref=None, meta: tuple | None = None):
        self.op = op  # const0 const1 leaf AND OR XOR NOT MUX ADDM SUBM
        self.children = children
        self.ref = ref  # leaves: a BitRef, or a channel id inside channels
        self.meta = meta  # macros: (width, out_bit)

    def is_macro(self):
        return self.op in _MACRO_OPS


CONST0 = Node("const0")
CONST1 = Node("const1")


class BindTree(Record):
    __slots__ = ("root", "node")

    def __init__(self, root: BitRef, node: Node):
        self.root = root
        self.node = node

    def leaves(self):
        """Leaf refs, one per distinct leaf node, in ``postorder``."""
        return [n.ref for n in postorder((self.node,)) if n.op == "leaf"]


def postorder(roots):
    """Each distinct node reachable from ``roots``, each after its children.

    The order is the one in which a left-to-right recursive walk that
    skips the nodes it has already met finishes them.  The walk keeps its
    own stack of (node, iterator over its children), so its depth costs
    no interpreter frames; a childless node, root or child, finishes as
    soon as it is met, without a stack.
    """
    order = []
    seen = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        if not root.children:
            order.append(root)
            continue
        stack = [(root, iter(root.children))]
        while stack:
            node, kids = stack[-1]
            for child in kids:
                if child not in seen:
                    seen.add(child)
                    if child.children:
                        stack.append((child, iter(child.children)))
                        break
                    order.append(child)
            else:
                stack.pop()
                order.append(node)
    return order


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


def _check_width(width, what):
    if width > WIDTH_LIMIT:
        raise UnsupportedConstruct(f"{what} of {width} bits (at most {WIDTH_LIMIT})")


class _Blaster:
    def __init__(self, design: ElaboratedDesign):
        self.design = design
        self.driver = design.driver  # built by ``elaborate`` for its MultipleDrivers check
        self.seq_bits = {key for key, a in self.driver.items() if a.sequential}
        # the leaf role of each input net's bits; a register bit's role is "register"
        self.input_role = {name: "input-high" if design.labels.get(name) == "high"
                           else "input-low"
                           for name, net in design.nets.items() if net.kind == "input"}
        self._net_memo = {}
        self._expr_memo = {}
        self._in_progress = []

    # -- nets --------------------------------------------------------------
    def net_bit(self, net, bit):
        """The node of one net bit: a leaf for a register or input bit, else
        the node its driver blasts to there."""
        key = (net, bit)
        node = self._net_memo.get(key)
        if node is not None:
            return node
        if net not in self.design.nets:
            raise UnassignedNet(net)
        if bit >= self.design.nets[net].width:
            return CONST0
        role = "register" if key in self.seq_bits else self.input_role.get(net)
        if role is not None:
            node = self._net_memo[key] = Node("leaf", (), _bitref((net, bit, role)))
            return node
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
        """The bits of ``expr``, LSB first, memoised by identity; one frame per level."""
        kind = type(expr)
        # a net's bit by a number: ``net_bit`` memoises it, 0 outside the net
        if kind is A.Select and type(expr.index) is A.Num and type(expr.base) is str:
            i = expr.index.value
            return [self.net_bit(expr.base, i) if i >= 0 else CONST0]
        key = id(expr)
        hit = self._expr_memo.get(key)
        if hit is not None and hit[0] is expr:
            return hit[1]
        if kind is A.Num:
            w = expr.width or max(expr.value.bit_length(), 1)
            bits = [CONST1 if (expr.value >> i) & 1 else CONST0 for i in range(w)]
        elif kind is A.Ident:
            name = expr.name
            w = self.design.nets[name].width if name in self.design.nets else 0
            if w == 0:
                raise UnassignedNet(name)
            bits = list(map(self.net_bit, itertools.repeat(name, w), range(w)))
        elif kind is A.Select or kind is A.PartSelect:
            base = expr.base
            if kind is A.PartSelect:
                msb = constant(expr.msb, "part-select bound")
                lsb = constant(expr.lsb, "part-select bound")
                if msb < lsb:
                    raise WidthMismatch(base if type(base) is str else "expression",
                                        f"reversed range [{msb}:{lsb}]")
                _check_width(msb - lsb + 1, "part-select")
                indices = range(lsb, msb + 1)
            else:
                try:
                    indices = (const_eval(expr.index, {}),)
                except ValueError:
                    indices = None
            if indices is None:  # a bit-select by a value: the base shifted down
                bits = self.blast(A.Ident(base) if type(base) is str else base)
                bits = [self._shift_dynamic(bits, self.blast(expr.index), left=False)[0]]
            elif type(base) is str:
                # only the picked bits: the whole vector would follow c[i]
                # into c[i+1] on carry chains
                bits = []
                for i in indices:
                    bits.append(self.net_bit(base, i) if i >= 0 else CONST0)
            else:
                whole = self.blast(base)
                bits = [whole[i] if 0 <= i < len(whole) else CONST0 for i in indices]
        elif kind is A.Unary:
            op = expr.op
            bits = self.blast(expr.operand)
            if op == "~":
                bits = [_not(b) for b in bits]
            elif op == "-":
                bits = self._add([CONST0] * len(bits), bits, subtract=True)
            elif op == "!":
                bits = [_not(self._reduce(bits, "OR"))]
            elif op != "+":  # a reduction; unary + is its operand
                node = self._reduce(bits, _GATE[op.lstrip("~")])
                bits = [_not(node) if op[0] == "~" else node]
        elif kind is A.Binary:
            op = expr.op
            if op not in _BINARY_OPS:
                raise UnsupportedConstruct(f"operator {op}")
            ab = self.blast(expr.left)
            if op == "&&" or op == "||":
                x = self._reduce(ab, "OR")
                y = self._reduce(self.blast(expr.right), "OR")
                bits = [Node("AND" if op == "&&" else "OR", (x, y))]
            elif op == "<<" or op == ">>":
                try:
                    amt = const_eval(expr.right, {})
                except ValueError:
                    bits = self._shift_dynamic(ab, self.blast(expr.right), left=op == "<<")
                else:
                    w = len(ab)
                    if amt < 0:  # the amount is unsigned: every bit is shifted out
                        bits = [CONST0] * w
                    elif op == "<<":
                        bits = [ab[i - amt] if i - amt >= 0 else CONST0 for i in range(w)]
                    else:
                        bits = [ab[i + amt] if i + amt < w else CONST0 for i in range(w)]
            else:
                ab, bb = self._widen(ab, self.blast(expr.right))
                if op in _GATE:
                    bits = [Node(_GATE[op], (x, y)) for x, y in zip(ab, bb)]
                elif op == "~^":
                    bits = [_not(_xor(x, y)) for x, y in zip(ab, bb)]
                elif op == "+" or op == "-":
                    bits = self._add(ab, bb, subtract=op == "-")
                else:
                    if op == ">" or op == "<=":
                        ab, bb = bb, ab  # a>b == b<a ; a<=b == !(b<a) == !(a'<b')
                    node = self._eq(ab, bb) if op in ("==", "!=") else self._lt(ab, bb)
                    bits = [node if op in ("==", "<", ">") else _not(node)]
        elif kind is A.Ternary:
            sel = self._reduce(self.blast(expr.cond), "OR")
            tb, ob = self._widen(self.blast(expr.then), self.blast(expr.other))
            bits = [_mux(sel, t, o) for t, o in zip(tb, ob)]
        elif kind is A.Concat:
            bits = []
            for part in reversed(expr.parts):  # written MSB-first
                bits.extend(self.blast(part))
        elif kind is A.Repl:
            count = constant(expr.count, "replication count")
            if count < 0:
                raise UnsupportedConstruct(f"replication count {count}")
            vbits = self.blast(expr.value)
            _check_width(count * len(vbits), "replication")
            bits = vbits * count
        else:
            raise UnsupportedConstruct(kind.__name__)
        self._expr_memo[key] = (expr, bits)
        return bits

    def _widen(self, ab, bb):
        """Both operands' bits, the narrower one zero-extended to the wider."""
        w = max(len(ab), len(bb))
        return ab + [CONST0] * (w - len(ab)), bb + [CONST0] * (w - len(bb))

    def _reduce(self, bits, op):
        if not bits:  # IEEE 1364 allows a zero width only inside a wider concatenation
            raise UnsupportedConstruct("zero-width operand")
        acc = bits[0]
        for b in bits[1:]:
            acc = Node(op, (acc, b))
        return acc

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
        """The bits of a + b, or of a - b, over operands of one width: a
        ripple-carry chain of gates up to ``EXPAND_LIMIT`` bits, and past
        it one ADDM or SUBM macro node per sum bit."""
        w = len(abits)
        if w > EXPAND_LIMIT:
            op = "SUBM" if subtract else "ADDM"
            kids = tuple(abits + bbits)
            return [Node(op, kids, meta=(w, k)) for k in range(w)]
        out = []
        carry = CONST1 if subtract else CONST0
        for x, y in zip(abits, bbits):
            if subtract:
                y = _not(y)
            s = _xor(_xor(x, y), carry)
            carry = _or(_and(x, y), _and(carry, _xor(x, y)))
            out.append(s)
        return out


def bit_blast(design: ElaboratedDesign):
    """One BindTree per top-output bit and per register bit, stable order."""
    blaster = _Blaster(design)
    driver, seq_bits = blaster.driver, blaster.seq_bits
    roots = [(net, bit, "register") for net, bit in sorted(seq_bits)]
    for key in design.output_bits():
        if key in seq_bits:
            continue  # already a register root
        if key not in driver:
            raise UnassignedNet(*key)
        roots.append((*key, "top-output"))
    forest = []
    last = bits = None  # the driver of the root before, and its bits
    for root in roots:
        drv = driver[root[:2]]
        if drv is not last:  # a vector's bits are adjacent roots
            last, bits = drv, blaster.blast(drv.expr)
        pos = root[1] - drv.lsb
        forest.append(BindTree(_bitref(root), bits[pos] if pos < len(bits) else CONST0))
    return forest


def eval_node(node: Node, values, ones=1) -> int:
    """Evaluate a node's DAG given leaf values keyed by each leaf's ``ref``.

    With ``ones = 2**n - 1`` and each leaf bound to an n-bit lane mask (see
    ``lane_masks``), one walk evaluates n assignments at once: bit j of the
    result is the node's value under the assignment of lane j.  A leaf or
    a constant is its own value, and a gate over leaves and constants
    needs no walk either: its children, then itself, are an evaluation order.
    """
    kids = node.children
    if not kids:
        if node.op == "leaf":
            return values[node.ref]
        return ones if node.op == "const1" else 0
    for kid in kids:
        if kid.children:
            return eval_order(postorder((node,)), values, ones)[node]
    return eval_order((*kids, node), values, ones)[node]


def eval_order(order, values, ones=1) -> dict:
    """Each node of a ``postorder`` list mapped to its value, as in
    ``eval_node``: a node shared by several parents or roots is evaluated once."""
    val = {}
    for node in order:
        op = node.op
        kids = node.children
        if op == "leaf":
            out = values[node.ref]
        elif op == "AND":
            out = val[kids[0]] & val[kids[1]]
        elif op == "XOR":
            out = val[kids[0]] ^ val[kids[1]]
        elif op == "NOT":
            out = ones ^ val[kids[0]]
        elif op == "OR":
            out = val[kids[0]] | val[kids[1]]
        elif op == "MUX":
            sel = val[kids[0]]
            out = (sel & val[kids[1]]) | ((ones ^ sel) & val[kids[2]])
        elif op == "const0":
            out = 0
        elif op == "const1":
            out = ones
        elif op in _MACRO_OPS:
            w, out_bit = node.meta
            sub = op == "SUBM"
            carry = ones if sub else 0
            # LSB first, as in _Blaster._add
            for i in range(out_bit + 1):
                x = val[kids[i]]
                y = ones ^ val[kids[w + i]] if sub else val[kids[w + i]]
                out = x ^ y ^ carry
                carry = (x & y) | (carry & (x ^ y))
        else:
            raise ValueError(f"unknown node op {op}")
        val[node] = out
    return val


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
    the dump is one pass over each root's ``postorder``.
    """
    counter = itertools.count()
    lines = []
    for tree in sorted(forest, key=lambda t: (t.root.net, t.root.bit)):
        order = postorder((tree.node,))
        reads = Counter(c for n in order for c in n.children)
        text, bindings = {}, []  # a text read once is dropped when read
        for node in order:
            if not node.children:  # a leaf or a constant
                text[node] = str(node.ref) if node.op == "leaf" else node.op[-1]
                continue
            tag = node.op
            if node.is_macro():
                w, out_bit = node.meta
                tag = f"{tag}:{out_bit}/{w}"
            body = " ".join(text.pop(c) if reads[c] == 1 else text[c]
                            for c in node.children)
            text[node] = f"({tag} {body})"
            if reads[node] > 1:
                name = f"%{next(counter)}"
                bindings.append(f"  {name} = {text[node]}")
                text[node] = name
        lines.append(f"{tree.root} = {text[tree.node]}")
        lines += reversed(bindings)
    return "\n".join(lines) + "\n"
