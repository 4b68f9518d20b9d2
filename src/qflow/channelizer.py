"""Greedy bottom-up merging of bind-DAG nodes into bounded channels.

``bit_blast`` shares a node among all its readers, so each bind tree is a
DAG.  The merger visits each of its nodes once per tree: a node read
twice is built once, and if it is sealed, it is one channel that both
readers take as the same input.  Sharing never crosses trees, so each
channel's ``root`` is the one tree it was cut from.

A table channel is a Boolean function over at most ``max_channel_inputs``
distinct input bits (single-node channels may exceed the bound by their
own arity, since a binary gate cannot have fewer than two inputs).
A table is filled by one bit-parallel ``eval_node`` walk over lane masks
and kept packed as an int: bit ``a`` is the output under assignment ``a``,
whose bit ``i`` is the value of ``inputs[i]``.
ADD/SUB macro nodes become standalone macro channels that keep their
macro node instead of a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bitgraph import BitRef, Node, eval_node, lane_masks
from .errors import ArityMismatch

DEFAULT_MAX_CHANNEL_INPUTS = 5
MAX_TABLE_INPUTS = 16  # 2^16 table entries


@dataclass(slots=True)
class Channel:
    cid: int
    # distinct, stable order: a leaf BitRef, or the id of a derived channel
    inputs: tuple
    table: int | None  # packed: bit a = output when input i is bit i of a
    macro: Node | None  # ADDM | SUBM; leaves are inputs or constants
    output: BitRef | None  # root bit for final channels, None for internal
    root: BitRef  # which tree this channel was cut from


@dataclass
class ChannelGraph:
    channels: list = field(default_factory=list)
    root_channel: dict = field(default_factory=dict)  # root BitRef -> cid


def input_label(ci) -> str:
    """``H key[3]``, ``L low[0]``, ``R tmp4[0]`` for bits, ``D 7`` for channel ids."""
    if isinstance(ci, int):
        return f"D {ci}"
    tag = {"input-high": "H", "input-low": "L", "register": "R"}[ci.role]
    return f"{tag} {ci}"


# A piece is (inputs, node): a node whose leaves are exactly ``inputs``,
# ordered by first use, with each derived channel as Node("leaf", ref=cid).

class _Merger:
    def __init__(self, graph: ChannelGraph, bound: int):
        self.graph = graph
        self.bound = bound
        # per bind tree, by node identity: node -> piece, piece node -> cid
        self.built = {}
        self.sealed = {}

    def start(self, root):
        """Forget the last tree: sharing, and each channel's ``root``, stay
        within one tree."""
        self.root = root
        self.built.clear()
        self.sealed.clear()
        # a piece can read a node twice only after build() met one twice
        self.shared = False

    def add(self, inputs, table, macro) -> int:
        cid = len(self.graph.channels)
        self.graph.channels.append(Channel(
            cid=cid, inputs=tuple(inputs), table=table, macro=macro,
            output=None, root=self.root))
        return cid

    def seal(self, piece) -> int:
        """Materialize a piece as a table channel from one bit-parallel walk."""
        inputs, node = piece
        cid = self.sealed.get(node)
        if cid is None:
            table = eval_node(node, dict(zip(inputs, lane_masks(len(inputs)))),
                              (1 << (1 << len(inputs))) - 1,
                              memo={} if self.shared else None)
            cid = self.add(inputs, table, None)
            self.sealed[node] = cid
        return cid

    def derived(self, cid):
        return [cid], Node("leaf", ref=cid)

    def build(self, node: Node):
        if node.op in ("const0", "const1"):
            return [], node
        if node.op == "leaf":
            return [node.ref], node
        piece = self.built.get(node)
        if piece is not None:
            self.shared = True
        else:
            if node.is_macro():
                piece = self.macro_piece(node)
            else:
                # a loop, not a comprehension: before 3.12 a comprehension
                # is one more frame per DAG level, halving the depth reached
                pieces = []
                for child in node.children:
                    pieces.append(self.build(child))
                inputs, kids = self.merge(pieces)
                piece = inputs, Node(node.op, tuple(kids))
            self.built[node] = piece
        return piece

    def merge(self, pieces):
        """Union child input sets; seal children until the bound is met.

        Sealing goes largest-child-first so cheap leaves stay direct inputs;
        ties break toward the lexicographically smaller first input label
        for determinism.  A fully sealed gate always fits (its arity is the
        floor on channel size).
        """
        def union_size(ps):
            return len({ci for inputs, _node in ps for ci in inputs})

        while union_size(pieces) > self.bound:
            candidates = [i for i, p in enumerate(pieces) if len(p[0]) > 1]
            if not candidates:
                break  # all single-input: arity floor, accept over-bound
            candidates.sort(key=lambda i: (-len(pieces[i][0]),
                                           input_label(pieces[i][0][0])))
            i = candidates[0]
            pieces[i] = self.derived(self.seal(pieces[i]))

        inputs = list(dict.fromkeys(ci for p in pieces for ci in p[0]))
        return inputs, [node for _inputs, node in pieces]

    def macro_piece(self, node: Node):
        """A standalone macro channel; each non-leaf operand bit is sealed first."""
        kids = []
        for child in node.children:
            if child.op not in ("const0", "const1", "leaf"):
                piece = self.build(child)
                if piece[1].op != "leaf":  # a gate; a nested macro is already a leaf
                    piece = self.derived(self.seal(piece))
                child = piece[1]
            kids.append(child)
        inputs = dict.fromkeys(c.ref for c in kids if c.op == "leaf")
        macro = Node(node.op, tuple(kids), meta=node.meta)
        return self.derived(self.add(inputs, None, macro))


def merge(forest, max_channel_inputs=DEFAULT_MAX_CHANNEL_INPUTS) -> ChannelGraph:
    """Channelize every bind tree; channels are topologically ordered by id."""
    if not 1 <= max_channel_inputs <= MAX_TABLE_INPUTS:
        raise ValueError(f"max_channel_inputs must be in [1, {MAX_TABLE_INPUTS}]")
    graph = ChannelGraph()
    merger = _Merger(graph, max_channel_inputs)
    for tree in sorted(forest, key=lambda t: (t.root.net, t.root.bit)):
        merger.start(tree.root)
        cid = merger.seal(merger.build(tree.node))
        graph.channels[cid].output = tree.root
        graph.root_channel[tree.root] = cid
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
    lines = []
    for ch in graph.channels:
        ins = ", ".join(input_label(ci) for ci in ch.inputs)
        if ch.table is not None:
            body = f"table=0x{ch.table:x}/{len(ch.inputs)}"
        else:
            width, out_bit = ch.macro.meta
            body = f"macro={ch.macro.op}/{width}:{out_bit}"
        out = f" out={ch.output}" if ch.output is not None else ""
        lines.append(f"c{ch.cid} root={ch.root}{out} inputs=[{ins}] {body}")
    return "\n".join(lines) + "\n"
