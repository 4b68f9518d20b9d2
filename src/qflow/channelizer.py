"""Greedy bottom-up merging of bind-DAG nodes into bounded channels.

``bit_blast`` shares a node among all its readers, so the bind trees
form one DAG.  The merger walks one ``postorder`` of all roots, in
sorted-root order, building each node's piece from its children's stored
pieces: a node read twice, by one root or by two, is built once, and if
it is sealed, it is one channel that all its readers take as the same
input.  A root's channel is sealed once its node is built, so roots that
are one node share it; a channel's ``root`` is the root whose walk cut it.

A table channel is a Boolean function over at most ``max_channel_inputs``
distinct input bits (single-node channels may exceed the bound by their
own arity, since a binary gate cannot have fewer than two inputs).
A table is filled by one bit-parallel ``eval_node`` over lane masks and
kept packed as an int: bit ``a`` is the output under assignment ``a``,
whose bit ``i`` is the value of ``inputs[i]``.  A piece that is one
gate over distinct leaves has its children, in order, as its inputs, so
its table depends on the gate's kind and arity alone: each ``merge``
evaluates it once per kind and reuses it.
ADD/SUB macro nodes become standalone macro channels that keep their
macro node instead of a table.
"""

from __future__ import annotations

from ._record import Record
from .bitgraph import BitRef, Node, eval_node, lane_masks, postorder
from .errors import ArityMismatch

DEFAULT_MAX_CHANNEL_INPUTS = 5
MAX_TABLE_INPUTS = 16  # 2^16 table entries


class Channel(Record):
    __slots__ = ("cid", "inputs", "table", "macro", "root")

    def __init__(self, cid: int, inputs: tuple, table: int | None, macro: Node | None,
                 root: BitRef):
        self.cid = cid
        # distinct, stable order: a leaf BitRef, or the id of a derived channel
        self.inputs = inputs
        self.table = table  # packed: bit a = output when input i is bit i of a
        self.macro = macro  # ADDM | SUBM; leaves are inputs or constants
        self.root = root  # the root whose walk cut this channel


class ChannelGraph(Record):
    __slots__ = ("channels", "root_channel")

    def __init__(self):
        self.channels = []
        self.root_channel = {}  # root BitRef -> cid, sorted by root


def input_label(ci) -> str:
    """``H key[3]``, ``L low[0]``, ``R tmp4[0]`` for bits, ``D 7`` for channel ids."""
    if isinstance(ci, int):
        return f"D {ci}"
    tag = {"input-high": "H", "input-low": "L", "register": "R"}[ci.role]
    return f"{tag} {ci}"


def _table(inputs, node) -> int:
    """The packed table of ``node`` over ``inputs``, from one bit-parallel walk."""
    return eval_node(node, dict(zip(inputs, lane_masks(len(inputs)))),
                     (1 << (1 << len(inputs))) - 1)


# A piece is (inputs, node): a node whose leaves are exactly ``inputs``,
# ordered by first use, with each derived channel as Node("leaf", ref=cid).
# Where nothing below a gate was sealed, the gate itself is its piece's node.

class _Merger:
    def __init__(self, graph: ChannelGraph, bound: int, trees):
        self.graph = graph
        self.bound = bound
        # over the whole forest, by node identity: node -> piece, piece node -> cid
        self.built = {}
        self.sealed = {}
        # (op, arity) -> the table of one gate over distinct leaves, in child order
        self.gate_tables = {}
        self.trees = trees  # sorted by root
        self.nxt = 0  # the tree whose walk is under way: the first whose node is not built

    def add(self, inputs, table, macro) -> int:
        cid = len(self.graph.channels)
        # positional: keywords double the cost of the call
        self.graph.channels.append(Channel(cid, tuple(inputs), table, macro,
                                           self.trees[self.nxt].root))
        return cid

    def seal(self, piece) -> int:
        """Materialize a piece as a table channel: one gate over distinct
        leaves takes its kind's table, filled once per ``merge``; any other
        piece is evaluated by one bit-parallel walk."""
        inputs, node = piece
        cid = self.sealed.get(node)
        if cid is None:
            kids = node.children
            if node.op == "leaf":  # the identity of its one input
                table = 0b10
            elif len(inputs) == len(kids) and all(k.op == "leaf" for k in kids):
                # one gate over distinct leaves: its inputs are its children in
                # order, so its table is its kind's
                key = node.op, len(kids)
                table = self.gate_tables.get(key)
                if table is None:
                    table = self.gate_tables[key] = _table(inputs, node)
            else:
                table = _table(inputs, node)
            cid = self.add(inputs, table, None)
            self.sealed[node] = cid
        return cid

    def derived(self, cid):
        return [cid], Node("leaf", (), cid)

    def build(self):
        """Each node's piece from its children's, in one walk of every root;
        each root's piece is sealed, in order, once its node is built."""
        built, trees, nodes = self.built, self.trees, [t.node for t in self.trees]
        bound, root_channel, seal = self.bound, self.graph.root_channel, self.seal
        waiting = nodes[0] if nodes else None  # the node of tree nxt
        for node in postorder(nodes):
            kids = node.children
            if not kids:  # a leaf or a constant
                built[node] = ([node.ref] if node.op == "leaf" else []), node
            elif node.is_macro():
                built[node] = self.macro_piece(node)
            else:
                pieces = [built[c] for c in kids]
                inputs = []
                for p in pieces:
                    inputs += p[0]
                inputs = list(dict.fromkeys(inputs))
                if len(inputs) > bound:
                    inputs = self.cut(pieces, inputs)
                new = tuple([p[1] for p in pieces])
                built[node] = inputs, node if new == kids else Node(node.op, new)
            if node is not waiting:
                continue  # the walk of tree nxt goes on
            while waiting in built:
                root_channel[trees[self.nxt].root] = seal(built[waiting])
                self.nxt += 1
                if self.nxt == len(trees):
                    break
                waiting = nodes[self.nxt]

    def cut(self, pieces, inputs):
        """Seal children of a gate until the union of their inputs, which
        ``inputs`` holds, meets the bound; return the union.

        Sealing goes largest-child-first so cheap leaves stay direct inputs;
        ties break toward the lexicographically smaller first input label
        for determinism.  A fully sealed gate always fits (its arity is the
        floor on channel size).
        """
        while len(inputs) > self.bound:
            candidates = [i for i, p in enumerate(pieces) if len(p[0]) > 1]
            if not candidates:
                break  # all single-input: arity floor, accept over-bound
            candidates.sort(key=lambda i: (-len(pieces[i][0]),
                                           input_label(pieces[i][0][0])))
            i = candidates[0]
            pieces[i] = self.derived(self.seal(pieces[i]))
            inputs = list(dict.fromkeys(ci for p in pieces for ci in p[0]))
        return inputs

    def macro_piece(self, node: Node):
        """A standalone macro channel; each non-leaf operand bit is sealed first."""
        kids = []
        for child in node.children:
            piece = self.built[child]
            if piece[1].op not in ("const0", "const1", "leaf"):  # a nested macro is a leaf
                piece = self.derived(self.seal(piece))
            kids.append(piece[1])
        inputs = dict.fromkeys(c.ref for c in kids if c.op == "leaf")
        macro = Node(node.op, tuple(kids), meta=node.meta)
        return self.derived(self.add(inputs, None, macro))


def merge(forest, max_channel_inputs=DEFAULT_MAX_CHANNEL_INPUTS) -> ChannelGraph:
    """Channelize the forest in one walk; channels are topologically ordered by id."""
    if not 1 <= max_channel_inputs <= MAX_TABLE_INPUTS:
        raise ValueError(f"max_channel_inputs must be in [1, {MAX_TABLE_INPUTS}]")
    graph = ChannelGraph()
    trees = sorted(forest, key=lambda t: (t.root.net, t.root.bit))
    _Merger(graph, max_channel_inputs, trees).build()
    return graph


def channel_function_eval(channel: Channel, bits) -> int:
    """Evaluate one channel on its input bits, in ``inputs`` order."""
    bits = list(bits)
    if len(bits) != len(channel.inputs):
        raise ArityMismatch(
            f"channel {channel.cid} takes {len(channel.inputs)} inputs, "
            f"got {len(bits)}")
    if channel.table is not None:
        return (channel.table >> sum(b << i for i, b in enumerate(bits))) & 1
    return eval_node(channel.macro, dict(zip(channel.inputs, bits)))


def dump_channels(graph: ChannelGraph) -> str:
    """Stable textual channel list with hex truth tables, for golden tests."""
    outs = {}  # cid -> " out=" and the roots it outputs, in sorted-root order
    for root, cid in graph.root_channel.items():
        outs[cid] = f"{outs[cid]},{root}" if cid in outs else f" out={root}"
    lines = []
    for ch in graph.channels:
        ins = ", ".join(input_label(ci) for ci in ch.inputs)
        if ch.table is not None:
            body = f"table=0x{ch.table:x}/{len(ch.inputs)}"
        else:
            width, out_bit = ch.macro.meta
            body = f"macro={ch.macro.op}/{width}:{out_bit}"
        lines.append(f"c{ch.cid} root={ch.root}{outs.get(ch.cid, '')} inputs=[{ins}] {body}")
    return "\n".join(lines) + "\n"
