"""Seeded generators of Verilog designs with known verdicts.

Every generator takes a ``random.Random`` and one size parameter and
returns a ``Design``: the Verilog text qflow receives, and the answer
the generator knows from how it built the design.  Nothing here imports
qflow, so generating a workload costs the same on every commit.

Answers come in three kinds:

* ``exact``: every secret bit has an expected class and leakage.  Bits
  routed to an output through XOR with observable bits, NOT or plain
  buffers leak exactly 1.0 bit (``leak``); bits that reach no output
  leak 0.0 (``ok``).
* ``structural``: the design is reconvergent, so the estimate is not
  fixed by construction.  The check is only that the analysis ends,
  reports every secret bit, and keeps each total in [0, 1] bit.
* ``read_once`` (oracle_diff only): every secret bit that reaches no
  output is ``ok`` at 0.0, every other one has a positive estimate, and
  the uncapped estimate is at least the exact leakage.  The oracle is
  the answer here; ``reconvergent`` designs of that family are measured
  against it but cannot fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Seed-independent size ranges.  Each pool holds every size of its range
# equally often, so the seed changes the designs but not the mix of
# sizes, and throughput stays comparable between seeds.
CHAIN_STAGES = (9, 10, 11)
PIPELINE_DEPTHS = (12, 20, 28, 36)
PIPELINE_KEY_BITS = 64
DATAPATH_WIDTHS = (320, 384, 448)
ORACLE_INPUT_BITS = (12, 13, 14)
ORACLE_CHAIN_STAGES = (4, 5)  # 2 * (stages + 1) <= 12 input bits
# The channel bound of qflow's differential harness (``oracle-diff``),
# under which read-once circuits are claimed to be dominated.  Only the
# read-once circuits use it; the reconvergent chains keep qflow's default.
ORACLE_CHANNEL_BOUND = 2
READ_ONCE_OUTPUTS = 3

CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "qflow" / "corpus"
# (files, top, nets marked High from the command line); key[0..63] of
# each bundled Trojan reaches the 64-bit output, key[64..127] does not.
CORPUS_TROJANS = (
    (("aes_t2100.v",), "TSC", ("key",)),
    (("aes_t2200.v",), "TSC", ("key",)),
    (("aes_t2300.v", "aes_t2300_top.v"), "top", ()),
)


@dataclass
class Design:
    name: str
    files: list  # [(path, text)]
    top: str
    kind: str  # exact | structural | read_once | reconvergent
    high_overrides: tuple = ()
    # (net, bit) -> (class, leakage bits); for read_once and reconvergent
    # designs only the bits that reach no output are listed, as ('ok', 0.0)
    expected: dict = field(default_factory=dict)
    secret_bits: tuple = ()  # every (net, bit) the report must contain
    size: int = 0  # the family's size parameter
    unroll: int = 0  # cycles the exact oracle needs to see every output
    max_channel_inputs: int = 5  # qflow's default channel bound


# --------------------------------------------------------------------------
# reconvergent_chain

_CHAIN_GATES = ("&", "|", "^")


def _chain_step(rng, w, k, l, invert):
    """w' reads w twice: (w op1 k) op2 (w op3 l), ops drawn per stage.

    Which stages invert is fixed, so a chain's node count, and with it
    the tree walk's cost, depends on its length alone.
    """
    op1, op2, op3 = (rng.choice(_CHAIN_GATES) for _ in range(3))
    if op1 == op3 == op2 == "^":
        op2 = "&"  # keep both reads of w alive
    a = f"{w} {op1} {k}"
    b = f"{w} {op3} {l}"
    if invert:
        a = f"~({a})"
    return f"({a}) {op2} ({b})"


def reconvergent_chain(rng: random.Random, stages: int, name="chain") -> Design:
    """One combinational chain of ``stages`` reconvergent steps.

    Each ``w{i+1}`` reads ``w{i}`` twice, so the bit-blast DAG is linear
    but a tree walk over it doubles with every stage.
    """
    n = stages + 1
    wires = ", ".join(f"w{i}" for i in range(n + 1))
    lines = [f"module {name}(",
             f"High input [{n - 1}:0] k,",
             f"input [{n - 1}:0] l,",
             "output y);",
             f"wire {wires};"]
    lines.append("assign w0 = k[0] ^ l[0];")
    for i in range(stages):
        expr = _chain_step(rng, f"w{i}", f"k[{i + 1}]", f"l[{i + 1}]", i % 4 == 3)
        lines.append(f"assign w{i + 1} = {expr};")
    lines += [f"assign y = w{stages};", "endmodule", ""]
    return Design(name=f"{name}_s{stages}", files=[(f"{name}.v", "\n".join(lines))],
                  top=name, kind="structural",
                  secret_bits=tuple(("k", b) for b in range(n)), size=stages)


# --------------------------------------------------------------------------
# trojan_pipeline

def _routed_subset(rng, n_bits):
    """A seeded half of the bits; a fixed share keeps sizes seed-independent."""
    return sorted(rng.sample(range(n_bits), n_bits // 2))


def trojan_pipeline(rng: random.Random, depth: int, key_bits: int,
                    per_bit: bool = False, name="TSC") -> Design:
    """A key-leaking register pipeline in the style of aes_t2100/aes_t2300.

    A seeded subset of ``key`` is gathered into ``s0`` and shifted
    through ``depth`` register stages; each stage XORs the observable
    ``in`` bus, inverts, or buffers.  The stages are whole-vector
    statements (aes_t2300), or with ``per_bit`` one nonblocking
    assignment per bit inside a generate loop (aes_t2100).
    """
    k = key_bits
    routed = _routed_subset(rng, k)
    r = len(routed)
    gather = "{" + ", ".join(f"key[{b}]" for b in reversed(routed)) + "}"
    regs = ", ".join(f"s{i}" for i in range(depth))
    lines = [f"module {name}(",
             "input clk,",
             f"High input [{k - 1}:0] key,",
             f"input [{r - 1}:0] in,",
             f"output reg [{r - 1}:0] load);",
             f"wire [{r - 1}:0] sel;",
             f"reg [{r - 1}:0] {regs};",
             f"assign sel = {gather};"]
    # a seeded order of a fixed mix (3/5 XOR), so a design's cost
    # depends on its depth and style alone
    stage_ops = ["xor"] * (3 * depth // 5) + ["not"] * (depth // 5)
    stage_ops += ["buf"] * (depth - len(stage_ops))
    rng.shuffle(stage_ops)
    if not per_bit:
        lines.append("always @(posedge clk) begin")
        lines.append(" s0 <= sel ^ in;")
        for i in range(1, depth):
            src = f"s{i - 1}"
            rhs = {"xor": f"{src} ^ in", "not": f"~{src}", "buf": src}[stage_ops[i]]
            lines.append(f" s{i} <= {rhs};")
        lines.append(f" load <= s{depth - 1};")
        lines.append("end")
    else:
        lines += ["genvar i;", "generate",
                  f"for (i = 0; i < {r}; i = i + 1) begin",
                  "always @(posedge clk) begin",
                  " s0[i] <= sel[i] ^ in[i];"]
        for i in range(1, depth):
            src = f"s{i - 1}[i]"
            rhs = {"xor": f"{src} ^ in[i]", "not": f"~{src}", "buf": src}[stage_ops[i]]
            lines.append(f" s{i}[i] <= {rhs};")
        lines += [f" load[i] <= s{depth - 1}[i];", "end", "end", "endgenerate"]
    lines += ["endmodule", ""]
    routed_set = set(routed)
    expected = {("key", b): ("leak", 1.0) if b in routed_set else ("ok", 0.0)
                for b in range(k)}
    style = "bit" if per_bit else "vec"
    return Design(name=f"{name}_{style}_k{k}_d{depth}", files=[(f"{name}.v", "\n".join(lines))],
                  top=name, kind="exact", expected=expected,
                  secret_bits=tuple(sorted(expected)), size=depth, unroll=depth + 2)


def corpus_trojans() -> list:
    """The three bundled Trojans with their known answers."""
    out = []
    for files, top, highs in CORPUS_TROJANS:
        texts = [(f, (CORPUS_DIR / f).read_text(encoding="utf-8")) for f in files]
        expected = {("key", b): ("leak", 1.0) if b < 64 else ("ok", 0.0)
                    for b in range(128)}
        out.append(Design(name=files[0][:-2], files=texts, top=top, kind="exact",
                          high_overrides=highs, expected=expected,
                          secret_bits=tuple(sorted(expected)), size=0))
    return out


# --------------------------------------------------------------------------
# bitsliced_datapath

def bitsliced_datapath(rng: random.Random, width: int, name="dp") -> Design:
    """``width`` plain per-bit assigns ``o[i] = ...k[i]...``.

    Routed bits pass ``k[i]`` through XOR with observable data, NOT or a
    buffer; the other output bits read only observable data.
    """
    routed = set(_routed_subset(rng, width))
    lines = [f"module {name}(",
             f"High input [{width - 1}:0] k,",
             f"input [{width - 1}:0] a,",
             f"input [{width - 1}:0] b,",
             f"output [{width - 1}:0] o);"]
    for i in range(width):
        if i in routed:
            rhs = rng.choice((f"k[{i}] ^ a[{i}]", f"~k[{i}] ^ (a[{i}] & b[{i}])",
                              f"k[{i}] ^ a[{i}] ^ b[{i}]", f"~k[{i}]", f"k[{i}]"))
        else:
            rhs = rng.choice((f"a[{i}] & b[{i}]", f"a[{i}] | ~b[{i}]",
                              f"a[{i}] ^ b[{i}]"))
        lines.append(f"assign o[{i}] = {rhs};")
    lines += ["endmodule", ""]
    expected = {("k", b): ("leak", 1.0) if b in routed else ("ok", 0.0)
                for b in range(width)}
    return Design(name=f"{name}_w{width}", files=[(f"{name}.v", "\n".join(lines))],
                  top=name, kind="exact", expected=expected,
                  secret_bits=tuple(sorted(expected)), size=width)


# --------------------------------------------------------------------------
# oracle_diff

def _read_once_tree(rng, highs, lows):
    """Random read-once tree; low bits mix in through XOR only."""
    nodes = [(h, True) for h in highs] + [(l, False) for l in lows]
    while len(nodes) > 1:
        a, ta = nodes.pop(rng.randrange(len(nodes)))
        b, tb = nodes.pop(rng.randrange(len(nodes)))
        op = rng.choice(("&", "|", "^")) if ta and tb else "^"
        expr = f"({a} {op} {b})"
        if rng.random() < 0.2:
            expr = f"~{expr}"
        nodes.append((expr, ta or tb))
    return nodes[0][0]


def read_once_circuit(rng: random.Random, input_bits: int, name="ro") -> Design:
    """Three read-once outputs over ``input_bits`` used input bits.

    As in ``qflow.oracle.random_forest``: each output reads an input bit
    at most once, outputs share bits freely, and low bits enter only
    through XOR.  ``o[0]`` reads every input bit and the others a seeded
    half of the highs and of the lows, so the oracle's work depends on
    ``input_bits`` alone.  ``h`` has two spare bits that no output reads.
    """
    n_high = 2 * input_bits // 5
    n_low = input_bits - n_high
    highs = [f"h[{i}]" for i in range(n_high)]
    lows = [f"l[{i}]" for i in range(n_low)]
    trees = [_read_once_tree(rng, highs, lows)]
    for _ in range(READ_ONCE_OUTPUTS - 1):
        trees.append(_read_once_tree(rng, rng.sample(highs, (n_high + 1) // 2),
                                     rng.sample(lows, n_low // 2)))
    spare = 2
    lines = [f"module {name}(",
             f"High input [{n_high + spare - 1}:0] h,",
             f"input [{n_low - 1}:0] l,",
             f"output [{READ_ONCE_OUTPUTS - 1}:0] o);"]
    lines += [f"assign o[{j}] = {t};" for j, t in enumerate(trees)]
    lines += ["endmodule", ""]
    expected = {("h", b): ("ok", 0.0) for b in range(n_high, n_high + spare)}
    return Design(name=f"{name}_n{input_bits}", files=[(f"{name}.v", "\n".join(lines))],
                  top=name, kind="read_once", expected=expected,
                  secret_bits=tuple(("h", b) for b in range(n_high + spare)),
                  size=input_bits, max_channel_inputs=ORACLE_CHANNEL_BOUND)


def oracle_chain(rng: random.Random, stages: int) -> Design:
    """A reconvergent chain small enough for the exact oracle.

    It is analysed at qflow's default channel bound, as ``qflow analyze``
    does; the read-once argument for bound 2 does not cover it.
    """
    d = reconvergent_chain(rng, stages, name="rc")
    d.kind = "reconvergent"
    return d


# --------------------------------------------------------------------------
# workload pools

def _rounds(rng, sizes, rounds):
    """Every size once per round, in a seeded order within each round."""
    order = []
    for _ in range(rounds):
        r = list(sizes)
        rng.shuffle(r)
        order += r
    return order


def pool_reconvergent_chain(rng):
    return [reconvergent_chain(rng, s) for s in _rounds(rng, CHAIN_STAGES, 2)]


def pool_trojan_pipeline(rng):
    """Three 64-bit-key pipelines per depth, one of them per-bit except
    at the deepest, and the bundled Trojans (five cost classes)."""
    sizes = [(d, False) for d in PIPELINE_DEPTHS for _ in range(2)]
    # a per-bit pipeline costs more than a whole-vector one of its depth,
    # so the deepest class keeps whole-vector designs of one cost
    sizes += [(d, d != PIPELINE_DEPTHS[-1]) for d in PIPELINE_DEPTHS]
    pool = [trojan_pipeline(rng, d, PIPELINE_KEY_BITS, per_bit)
            for d, per_bit in _rounds(rng, sizes, 1)]
    return pool + corpus_trojans()


def pool_bitsliced_datapath(rng):
    return [bitsliced_datapath(rng, w) for w in _rounds(rng, DATAPATH_WIDTHS, 3)]


def pool_oracle_diff(rng):
    """Read-once circuits, three per size, with a small chain after each of the first four.

    Three designs of the costliest size keep the tail percentile among
    them even when a slow host halves the passes of a run.
    """
    chains = [oracle_chain(rng, s) for s in _rounds(rng, ORACLE_CHAIN_STAGES, 2)]
    pool = []
    for n in _rounds(rng, ORACLE_INPUT_BITS, 3):
        pool.append(read_once_circuit(rng, n))
        if chains:
            pool.append(chains.pop(0))
    return pool


POOLS = {
    "reconvergent_chain": pool_reconvergent_chain,
    "trojan_pipeline": pool_trojan_pipeline,
    "bitsliced_datapath": pool_bitsliced_datapath,
    "oracle_diff": pool_oracle_diff,
}


def workload_pool(workload: str, seed: int) -> list:
    """The designs one run cycles through, from the workload's seed."""
    return POOLS[workload](random.Random(f"{workload}:{seed}"))
