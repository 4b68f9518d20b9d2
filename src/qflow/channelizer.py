"""Greedy bottom-up merging of bind-DAG nodes into bounded channels.

``bit_blast`` shares a node among all its readers, so the bind trees
form one DAG.  The merger walks one ``postorder`` of all roots, in
sorted-root order, building each node's piece from its children's stored
pieces: a node read twice, by one root or by two, is built once, and if
it is sealed, it is one channel that all its readers take as the same
input.  A root's channel is sealed once its node is built, so roots that
are one node share it; a channel's ``root`` is the root whose walk cut it.

A piece is (inputs, node): a node whose leaves, a derived channel being
``Node("leaf", ref=cid)``, are exactly ``inputs``, a dict used as an
ordered set that is never changed once built: a binary gate's is its
children's ``a | b``, and a one-child gate's is its child's own.  Over
the bound, ``cut`` seals the largest child piece first; a tie goes to
the smaller first input label as a string (``D 10`` before ``D 9``), and
only a tie formats labels.

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

The other bits of a bit-parallel register statement (``bitgraph``'s
``ShiftedTree``) are not walked when its first bit's walk cuts nothing:
when that bit is a leaf, one gate over leaves, or reads at most the
bound's leaves.  Right after the first bit's channel is sealed, each gets
that table over its inputs moved up by its offset, which is the channel
and id its walk would give, since roots go in sorted order and its gates
are private; its DAG is not built.  A buffer's bit takes the channel of
its leaf, sealed once per leaf, so two buffers of one register share it.
"""

from __future__ import annotations

import functools
import operator

from ._record import Record
from .bitgraph import BitRef, Node, ShiftedTree, eval_node, lane_masks, postorder
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


class _Merger:
    def __init__(self, graph: ChannelGraph, bound: int):
        self.channels = graph.channels
        self.root_channel = graph.root_channel
        self.bound = bound
        # over the whole forest, by node identity: node -> piece, piece node -> cid
        self.built = {}
        self.sealed = {}
        # (op, arity) -> the table of one gate over distinct leaves, in child order
        self.gate_tables = {}
        self.root = None  # the root whose walk is under way: its cuts are its channels

    def seal(self, piece) -> int:
        """Materialize a piece as a table channel: one gate over distinct
        leaves takes its kind's table, filled once per ``merge``; any other
        piece is evaluated by one bit-parallel walk."""
        inputs, node = piece
        if node in self.sealed:
            return self.sealed[node]
        kids = node.children
        if node.op == "leaf":  # the identity of its one input
            table = 0b10
        else:
            key = None  # a gate over distinct leaves has them, in order, as inputs
            if len(inputs) == len(kids):
                for kid in kids:
                    if kid.op != "leaf":
                        break
                else:
                    key = node.op, len(kids)
            table = self.gate_tables.get(key)
            if table is None:
                table = _table(inputs, node)
                if key:
                    self.gate_tables[key] = table
        cid = self.sealed[node] = len(self.channels)
        # positional: keywords double the cost of the call
        self.channels.append(Channel(cid, tuple(inputs), table, None, self.root))
        return cid

    def derived(self, cid):
        return {cid: None}, Node("leaf", (), cid)

    def plan(self, trees):
        """The trees to walk, and the shifted trees to stamp instead, keyed
        by the index among the walked of their first bit, for each first
        bit whose walk cuts nothing."""
        if ShiftedTree not in set(map(type, trees)):
            return trees, {}
        walked, runs = [], {}
        i, n = 0, len(trees)
        while i < n:
            first = trees[i]
            walked.append(first)
            i = j = i + 1
            while j < n and type(trees[j]) is ShiftedTree and trees[j].first is first:
                j += 1
            # a leaf, one gate over leaves, or at most ``bound`` leaves: no cut
            if j > i and (all(kid.op == "leaf" for kid in first.node.children)
                          or len(first.leaves()) <= self.bound):
                runs[len(walked) - 1] = trees[i:j]
                i = j
        return walked, runs

    def stamp(self, first, run):
        """Give each shifted tree of ``run`` the channel its walk would seal,
        after ``first``'s: a buffer's bit its leaf's, sealed once per leaf,
        and any other bit ``first``'s table over its inputs shifted up."""
        channels, root_channel = self.channels, self.root_channel
        if first.node.op == "leaf":
            for tree in run:
                self.root = tree.root
                leaf = tree.build()
                root_channel[tree.root] = self.seal(({leaf.ref: None}, leaf))
            return
        model = channels[root_channel[first.root]]
        for tree in run:
            cid = root_channel[tree.root] = len(channels)
            channels.append(Channel(cid, tree.shift(model.inputs), model.table, None, tree.root))

    def build(self, trees):
        """Each node's piece from its children's, in one walk of every root;
        each root's piece is sealed, in order, once its node is built, and
        the shifted trees of its run stamped right after it."""
        built, bound, seal, root_channel = self.built, self.bound, self.seal, self.root_channel
        trees, runs = self.plan(trees)
        nodes = [t.node for t in trees]
        nxt = 0  # tree nxt's walk is under way
        waiting, self.root = (nodes[0], trees[0].root) if trees else (None, None)
        for node in postorder(nodes):
            kids = node.children
            if not kids:  # a leaf or a constant
                built[node] = ({node.ref: None} if node.op == "leaf" else {}), node
            elif node.op == "ADDM" or node.op == "SUBM":
                built[node] = self.macro_piece(node)
            elif len(kids) == 2:  # the commonest gate: no list of pieces
                a, b = kids
                pa, pb = built[a], built[b]
                inputs = pa[0] | pb[0]
                if len(inputs) > bound:
                    pieces = [pa, pb]
                    inputs = self.cut(pieces, inputs)
                    pa, pb = pieces
                built[node] = inputs, (node if pa[1] is a and pb[1] is b
                                       else Node(node.op, (pa[1], pb[1])))
            else:
                pieces = [built[c] for c in kids]
                inputs = functools.reduce(operator.or_, [p[0] for p in pieces])
                if len(inputs) > bound:
                    inputs = self.cut(pieces, inputs)
                new = tuple([p[1] for p in pieces])
                built[node] = inputs, node if new == kids else Node(node.op, new)
            if node is not waiting:
                continue  # the walk of tree nxt goes on
            while waiting in built:
                root_channel[self.root] = seal(built[waiting])
                if nxt in runs:
                    self.stamp(trees[nxt], runs[nxt])
                nxt += 1
                if nxt == len(trees):
                    break
                waiting, self.root = nodes[nxt], trees[nxt].root

    def cut(self, pieces, inputs):
        """Seal children of a gate until the union of their inputs, which
        ``inputs`` holds, meets the bound; return the union.

        Sealing goes largest-child-first so cheap leaves stay direct inputs;
        ties break toward the lexicographically smaller first input label,
        then the earlier child, for determinism.  A fully sealed gate always
        fits (its arity is the floor on channel size).
        """
        while len(inputs) > self.bound:
            sizes = [len(p[0]) for p in pieces]
            top = max(sizes)
            if top < 2:
                break  # all single-input: arity floor, accept over-bound
            i = sizes.index(top)
            if sizes.count(top) > 1:  # only a tie needs the labels
                i = min((j for j, n in enumerate(sizes) if n == top),
                        key=lambda j: input_label(next(iter(pieces[j][0]))))
            pieces[i] = self.derived(self.seal(pieces[i]))
            inputs = functools.reduce(operator.or_, [p[0] for p in pieces])
        return inputs

    def macro_piece(self, node: Node):
        """A standalone macro channel; each non-leaf operand bit is sealed first."""
        kids = []
        for child in node.children:
            piece = self.built[child]
            if piece[1].op not in ("const0", "const1", "leaf"):  # a nested macro is a leaf
                piece = self.derived(self.seal(piece))
            kids.append(piece[1])
        inputs = tuple(dict.fromkeys(c.ref for c in kids if c.op == "leaf"))
        macro = Node(node.op, tuple(kids), meta=node.meta)
        self.channels.append(Channel(len(self.channels), inputs, None, macro, self.root))
        return self.derived(len(self.channels) - 1)


def merge(forest, max_channel_inputs=DEFAULT_MAX_CHANNEL_INPUTS) -> ChannelGraph:
    """Channelize the forest in one walk; channels are topologically ordered by id."""
    if not 1 <= max_channel_inputs <= MAX_TABLE_INPUTS:
        raise ValueError(f"max_channel_inputs must be in [1, {MAX_TABLE_INPUTS}]")
    graph = ChannelGraph()
    trees = sorted(forest, key=lambda t: (t.root.net, t.root.bit))
    _Merger(graph, max_channel_inputs).build(trees)
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
