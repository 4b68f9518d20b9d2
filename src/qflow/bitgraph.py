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
not for these DAGs.  A wire driven by a concatenation reads only the part
that holds the bit when every part's width is known without blasting, so
``assign w = {w[0], k};`` is no loop.

A *bit-parallel register statement* is sequential, at least 2 bits wide,
and only ``& | ^ ~^`` and ``~`` over operands of exactly its width, an
``Ident`` or a constant ``PartSelect`` of a *leaf net*: an input, a net
of registers, or a whole-net ``assign w = x;`` of one of those.  Bit i's
DAG is then bit 0's with every leaf i bits up, so only bit 0 is blasted;
each other bit is a ``ShiftedTree`` that builds its DAG when first read,
and the channelizer shifts bit 0's channel to it.  Only register targets
qualify, since no other root reaches their gates (a combinational
vector's are shared with its readers), and only when no object of the
expression occurs twice among the design's: the identity memo of
``blast`` would share its gates.
"""

from __future__ import annotations

import bisect
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
_BITWISE = frozenset(("&", "|", "^", "~^"))
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


_TREE_NODE = BindTree.node  # the slot, which ``ShiftedTree.node`` fills when first read


class ShiftedTree(BindTree):
    """Bit ``offset`` of a bit-parallel register statement whose lowest bit
    is the tree ``first``: its DAG is built on the first read of ``node``."""

    __slots__ = ("first", "offset", "_bit_of")

    def __init__(self, root: BitRef, first: BindTree, offset: int, bit_of):
        self.root, self.first, self.offset, self._bit_of = root, first, offset, bit_of

    @property
    def node(self):
        """This bit's DAG, built on the first read and kept."""
        try:
            return _TREE_NODE.__get__(self)
        except AttributeError:
            node = self.build()
            _TREE_NODE.__set__(self, node)
            return node

    def build(self) -> Node:
        """This bit's DAG, not kept: a bare leaf is the blaster's node of that bit."""
        return self._bit_of(self.offset)

    def shift(self, refs) -> tuple:
        """Bits of the first bit's DAG, moved up to this bit's."""
        j = self.offset
        return tuple([_bitref((r.net, r.bit + j, r.role)) for r in refs])


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
        self._measures = {}
        self._leaf_width = {}
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
            expr, pos = drv.expr, bit - drv.lsb
            if type(expr) is A.Concat:
                expr, pos = self._part(expr, pos)
            bits = self.blast(expr)
            node = bits[pos] if pos < len(bits) else CONST0
        finally:
            self._in_progress.pop()
        self._net_memo[key] = node
        return node

    def _part(self, expr, pos):
        """The part of a concatenation, and the bit in it, that holds its
        bit ``pos``, descending while ``_measure`` knows the parts' widths."""
        while type(expr) is A.Concat:
            starts = self._measure(expr)
            if starts is None or pos >= starts[-1]:
                break
            i = bisect.bisect_right(starts, pos) - 1
            expr, pos = expr.parts[-1 - i], pos - starts[i]
        return expr, pos

    def _measure(self, expr):
        """A concatenation's list of each part's lowest bit, LSB first, then
        its width, or any other expression's width, when the form gives
        them without blasting; else None.  Memoised by identity."""
        hit = self._measures.get(id(expr))
        if hit is not None and hit[0] is expr:
            return hit[1]
        kind, m = type(expr), None
        if kind is A.Select:
            m = 1
        elif kind is A.Num:
            m = expr.width or max(expr.value.bit_length(), 1)
        elif kind is A.Ident:
            m = self.design.nets[expr.name].width if expr.name in self.design.nets else None
        elif kind is A.PartSelect and type(expr.msb) is A.Num and type(expr.lsb) is A.Num:
            m = expr.msb.value - expr.lsb.value + 1 if expr.msb.value >= expr.lsb.value else None
        elif kind is not A.PartSelect:
            parts = (expr.parts[::-1] if kind is A.Concat
                     else (expr.operand,) if kind is A.Unary and expr.op == "~"
                     else (expr.left, expr.right) if kind is A.Binary and expr.op in _BITWISE
                     else ())
            widths = [w[-1] if type(w) is list else w for w in map(self._measure, parts)]
            if widths and None not in widths:
                m = (list(itertools.accumulate(widths, initial=0)) if kind is A.Concat
                     else max(widths))
        self._measures[id(expr)] = expr, m
        return m

    # -- bit-parallel register statements ------------------------------------
    def bit_parallel(self, assigns) -> set:
        """The ids of the bit-parallel register statements among ``assigns``."""
        candidates = [(a, ids) for a in assigns if a.sequential and a.msb > a.lsb
                      for ids in (self._bitwise(a.expr, a.msb - a.lsb + 1),) if ids]
        if not candidates:
            return set()
        seen, shared = set(), set()  # the ids met, and those met again; each entered once
        stack = [a.expr for a in assigns]
        while stack:
            e = stack.pop()
            if id(e) in seen:
                shared.add(id(e))
                continue
            seen.add(id(e))
            kind = type(e)
            if kind is A.Binary:
                stack += (e.left, e.right)
            elif kind is A.Concat:
                stack += e.parts
            elif kind is not A.Num and kind is not A.Ident:
                stack += [v for v in map(getattr, itertools.repeat(e), e.__slots__)
                          if isinstance(v, A.Expr)]
        return {id(a) for a, ids in candidates if ids.isdisjoint(shared)}

    def _bitwise(self, expr, width) -> set:
        """The ids of ``expr``'s objects if it is ``& | ^ ~^`` and ``~`` over
        ``width`` bits of leaf nets, each an ``Ident`` or a constant
        ``PartSelect``, with no object twice; else an empty set."""
        stack, ids = [expr], set()
        while stack:
            e = stack.pop()
            if id(e) in ids:
                return set()
            ids.add(id(e))
            kind = type(e)
            if kind is A.Binary and e.op in _BITWISE:
                stack += (e.left, e.right)
            elif kind is A.Unary and e.op == "~":
                stack.append(e.operand)
            elif not (self.leaf_width(e.name) == width if kind is A.Ident else
                      kind is A.PartSelect and type(e.base) is str
                      and type(e.msb) is A.Num and type(e.lsb) is A.Num
                      and e.msb.value - e.lsb.value + 1 == width
                      and 0 <= e.lsb.value and e.msb.value < self.leaf_width(e.base)):
                return set()
        return ids

    def leaf_width(self, name, alias=True) -> int:
        """The width of a leaf net: an input, a net of registers or, with
        ``alias``, a whole-net ``assign w = x;`` of one of those; else 0."""
        w = self._leaf_width.get((name, alias))
        if w is None:
            net, drv = self.design.nets.get(name), self.driver.get((name, 0))
            w = net.width if net is not None else 0
            top = 0  # the bits below top are registers; a driver drives its whole range
            while top < w and (d := self.driver.get((name, top))) is not None and d.sequential:
                top = d.msb + 1
            if not (name in self.input_role or top >= w or (
                    alias and drv is not None and not drv.sequential and type(drv.expr) is A.Ident
                    and drv.lsb == 0 and drv.msb + 1 == w == self.leaf_width(drv.expr.name, False))):
                w = 0
            self._leaf_width[name, alias] = w
        return w

    def bit_of(self, expr, k) -> Node:
        """Bit ``k`` of a bit-parallel statement's ``expr``: what
        ``blast(expr)[k]`` builds, and none of the other bits."""
        kind = type(expr)
        if kind is A.Binary:
            x, y = self.bit_of(expr.left, k), self.bit_of(expr.right, k)
            return _not(_xor(x, y)) if expr.op == "~^" else Node(_GATE[expr.op], (x, y))
        if kind is A.Unary:
            return _not(self.bit_of(expr.operand, k))
        if kind is A.Ident:
            return self.net_bit(expr.name, k)
        return self.net_bit(expr.base, expr.lsb.value + k)

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
    """One BindTree per top-output bit and per register bit, stable order;
    a ``ShiftedTree`` for each bit but the lowest of a bit-parallel
    register statement."""
    blaster = _Blaster(design)
    parallel = blaster.bit_parallel(design.assigns)
    driver, seq_bits = blaster.driver, blaster.seq_bits
    roots = [(net, bit, "register") for net, bit in sorted(seq_bits)]
    for key in design.output_bits():
        if key in seq_bits:
            continue  # already a register root
        if key not in driver:
            raise UnassignedNet(*key)
        roots.append((*key, "top-output"))
    forest = []
    last = bits = first = None  # the driver of the root before, its bits or its first bit's tree
    for root in roots:
        drv = driver[root[:2]]
        pos = root[1] - drv.lsb
        if drv is not last:  # a vector's bits are adjacent roots
            last = drv
            if id(drv) in parallel and pos == 0:
                bit_of = functools.partial(blaster.bit_of, drv.expr)
                first = BindTree(_bitref(root), bit_of(0))
                forest.append(first)
                continue
            first, bits = None, blaster.blast(drv.expr)
        if first is not None:
            forest.append(ShiftedTree(_bitref(root), first, pos, bit_of))
        else:
            forest.append(BindTree(_bitref(root), bits[pos] if pos < len(bits) else CONST0))
    return forest


def eval_node(node: Node, values, ones=1) -> int:
    """Evaluate a node's DAG given leaf values keyed by each leaf's ``ref``.

    With ``ones = 2**n - 1`` and each leaf bound to an n-bit lane mask (see
    ``lane_masks``), one walk evaluates n assignments at once: bit j of the
    result is the node's value under the assignment of lane j.  A leaf or
    a constant is its own value, and a node no more than two levels deep
    needs no walk either: each child after its own children, then the
    node, is an evaluation order (a node listed twice gets one value).
    """
    kids = node.children
    if not kids:
        if node.op == "leaf":
            return values[node.ref]
        return ones if node.op == "const1" else 0
    order = []
    for kid in kids:
        grandkids = kid.children
        if grandkids:
            for g in grandkids:
                if g.children:  # deeper: one walk
                    return eval_order(postorder((node,)), values, ones)[node]
            order += grandkids
        order.append(kid)
    order.append(node)
    return eval_order(order, values, ones)[node]


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
            if node.op in _MACRO_OPS:
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
