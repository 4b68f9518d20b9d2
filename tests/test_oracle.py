"""Exact exhaustive QIF computation and the differential harness."""

import math
import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import oracle
from qflow.bitgraph import BindTree, BitRef, Node, bit_blast, eval_order, postorder
from qflow.errors import TooLarge, TooManyObservations
from qflow.frontend import SourceUnit, elaborate, extract_labels, parse
from qflow.oracle import (
    differential_run,
    exact_multiplicative_leakage,
    exact_posterior_vulnerability,
    exact_prior_vulnerability,
    flatten_forest,
    random_forest,
    synthetic_design,
)

from conftest import analyze_corpus, analyze_source
from test_pinned_outputs import HELD_IN_CYCLE
from test_qif_engine import CYCLE_DESIGNS, LOOP_REG, STICKY


def flat(src, top):
    ast = parse(SourceUnit([("<t>", src)], top))
    design = elaborate(ast, top, extract_labels(ast, top))
    forest = bit_blast(design)
    return flatten_forest(forest, design), design


def reference_posterior(f, probs=None):
    """Posterior vulnerability one assignment at a time, through ``f.eval``."""
    probs = probs or {}
    nh, nl = len(f.high_inputs), len(f.low_inputs)
    hp = [probs.get((r.net, r.bit), 0.5) for r in f.high_inputs]
    lp = [probs.get((r.net, r.bit), 0.5) for r in f.low_inputs]
    best = {}
    for la in range(1 << nl):
        l_bits = tuple((la >> i) & 1 for i in range(nl))
        lmass = 1.0
        for i, b in enumerate(l_bits):
            lmass *= lp[i] if b else 1.0 - lp[i]
        if lmass == 0.0:
            continue
        for ha in range(1 << nh):
            h_bits = tuple((ha >> i) & 1 for i in range(nh))
            mass = lmass
            for i, b in enumerate(h_bits):
                mass *= hp[i] if b else 1.0 - hp[i]
            if mass == 0.0:
                continue
            key = (f.eval(h_bits, l_bits), l_bits)
            if mass > best.get(key, 0.0):
                best[key] = mass
    return sum(best.values())


def random_priors(rng, f):
    """Independent bit priors mixing 0.0, 1.0, 0.5 and arbitrary values."""
    return {(r.net, r.bit): rng.choice((0.0, 1.0, 0.5, rng.random(), rng.random()))
            for r in f.high_inputs + f.low_inputs}


def known_other_bits(f, secret):
    """Every secret bit but ``secret`` known to be 0."""
    return {(r.net, r.bit): 0.0 for r in f.high_inputs if (r.net, r.bit) != secret}


def test_prior_vulnerability():
    assert exact_prior_vulnerability([0.5, 0.5]) == 0.25
    assert exact_prior_vulnerability([0.75, 0.5]) == 0.375
    assert exact_prior_vulnerability([]) == 1.0
    with pytest.raises(TooLarge):
        exact_prior_vulnerability([0.5] * 25)


def test_and_gate_posterior():
    f, _ = flat("""module m(High input [1:0] h, output y);
assign y = h[0] & h[1];
endmodule
""", "m")
    assert abs(exact_posterior_vulnerability(f) - 0.5) < 1e-12
    ratio, bits = exact_multiplicative_leakage(f)
    assert abs(ratio - 2.0) < 1e-12
    assert abs(bits - 1.0) < 1e-12


def test_xor_with_low_ratio():
    f, _ = flat("""module m(High input h, input l, output y);
assign y = h ^ l;
endmodule
""", "m")
    ratio, bits = exact_multiplicative_leakage(f)
    assert abs(ratio - 2.0) < 1e-12
    assert abs(bits - 1.0) < 1e-12


def test_example_exact_leakage():
    a = analyze_corpus("example.v", "example")
    f = flatten_forest(a.forest, a.design)
    assert abs(exact_posterior_vulnerability(f) - 0.375) < 1e-12
    ratio, bits = exact_multiplicative_leakage(f)
    assert abs(ratio - 1.5) < 1e-12
    assert abs(bits - 0.5849625007211562) < 1e-12


# two-stage shift: the secret reaches the output on the second cycle
SHIFT = """module m(input clk, High input h, output reg q);
reg s;
always @(posedge clk) begin
s <= h;
q <= s;
end
endmodule
"""


def test_sequential_unroll():
    f, _ = flat(SHIFT, "m")
    assert f.eval((1,), ()) != f.eval((0,), ())
    _, bits = exact_multiplicative_leakage(f)
    assert bits == 1.0


def test_nonuniform_prior():
    f, _ = flat("""module m(High input h, output y);
assign y = h;
endmodule
""", "m")
    probs = {("h", 0): 0.9}
    ratio, bits = exact_multiplicative_leakage(f, probs)
    # posterior 1.0 over prior 0.9
    assert abs(ratio - 1.0 / 0.9) < 1e-12
    assert abs(bits - math.log2(1.0 / 0.9)) < 1e-12


@pytest.mark.parametrize("p_high", [0.3, 0.9])
def test_wide_compare_estimate_at_least_exact(p_high):
    """Comparisons of 5-8 bits against a low operand or a constant: off
    uniform priors the uncapped estimate of the gate form is never below
    the exact leakage."""
    for w in range(5, 9):
        for rhs in ("b", f"{w}'h{0xA5 & ((1 << w) - 1):x}"):
            for op in ("==", "!=", "<", "<=", ">", ">="):
                a = analyze_source(
                    f"module m(High input [{w-1}:0] a, input [{w-1}:0] b, output y);\n"
                    f"assign y = a {op} {rhs};\nendmodule\n",
                    "m", p_high=p_high, cap=False)
                probs = {(n, b): p_high for n, b, _sid in a.design.high_bits()}
                _, exact = exact_multiplicative_leakage(
                    flatten_forest(a.forest, a.design), probs)
                assert sum(a.totals.values()) + 1e-9 >= exact, (w, op, rhs)


def test_posterior_at_least_prior():
    f, _ = flat("""module m(High input [2:0] h, input l, output y);
assign y = (h[0] & h[1]) ^ (h[2] | l);
endmodule
""", "m")
    prior = exact_prior_vulnerability([0.5] * 3)
    assert exact_posterior_vulnerability(f) >= prior - 1e-12


def test_differential_run_smoke():
    records = differential_run(seed=7, count=40)
    assert len(records) == 40
    assert all(r.dominated for r in records)
    assert all(r.exact_bits >= -1e-12 for r in records)


def test_differential_records_fields():
    records = differential_run(seed=3, count=5)
    for r in records:
        assert r.qmodel_bits + 1e-9 >= r.exact_bits


def test_posterior_matches_reference_on_random_forests():
    rng = random.Random(42)
    for _ in range(200):
        forest, design = random_forest(rng)
        f = flatten_forest(forest, design)
        assert exact_posterior_vulnerability(f) == reference_posterior(f)
        probs = random_priors(rng, f)
        assert exact_posterior_vulnerability(f, probs) == pytest.approx(
            reference_posterior(f, probs), abs=1e-12)
        secret = (f.high_inputs[0].net, f.high_inputs[0].bit)
        probs = known_other_bits(f, secret)
        assert exact_posterior_vulnerability(f, probs) == reference_posterior(f, probs)


@pytest.mark.parametrize("lane_bits", (0, 2, 3))
def test_lane_blocks_match_reference(monkeypatch, lane_bits):
    # narrow blocks, so that the outer loop binds high and low bits alike
    monkeypatch.setattr(oracle, "LANE_BITS", lane_bits)
    rng = random.Random(lane_bits)
    for _ in range(40):
        forest, design = random_forest(rng)
        f = flatten_forest(forest, design)
        assert exact_posterior_vulnerability(f) == reference_posterior(f)
        probs = random_priors(rng, f)
        assert exact_posterior_vulnerability(f, probs) == pytest.approx(
            reference_posterior(f, probs), abs=1e-12)


SEQUENTIAL = dict(CYCLE_DESIGNS, shift=SHIFT)


@pytest.mark.parametrize("name", sorted(SEQUENTIAL))
def test_posterior_matches_reference_on_sequential_designs(name):
    f, _ = flat(SEQUENTIAL[name], "m")
    rng = random.Random(name)
    if name == "lfsr":
        # 16 input bits: fix half of them so the reference stays quick
        fixed = {("key", b): 0.0 for b in range(4)}
        fixed.update({("a", b): 1.0 for b in range(4)})
    else:
        fixed = {}
        assert exact_posterior_vulnerability(f) == reference_posterior(f)
    probs = {**random_priors(rng, f), **fixed}
    assert exact_posterior_vulnerability(f, probs) == pytest.approx(
        reference_posterior(f, probs), abs=1e-12)
    for r in f.high_inputs:
        probs = {**known_other_bits(f, (r.net, r.bit)), **fixed}
        assert exact_posterior_vulnerability(f, probs) == reference_posterior(f, probs)


def reference_unroll(forest, design, cycles, values, ones):
    """The cycle-by-cycle state machine that ``flatten_forest`` unrolls.

    Registers start at 0 and inputs are held constant.  Each cycle
    evaluates the next-state roots, loads the new state into the register
    leaves, then evaluates the output roots; an output register reads the
    new state.  Returns every output bit of every cycle.
    """
    values = dict(values)
    registers = sorted({n.ref for n in postorder(t.node for t in forest)
                        if n.op == "leaf" and n.ref.role == "register"})
    next_state = {(t.root.net, t.root.bit): t.node for t in forest
                  if t.root.role == "register"}
    comb = {(t.root.net, t.root.bit): t.node for t in forest if t.root.role == "top-output"}
    next_order, comb_order = postorder(next_state.values()), postorder(comb.values())
    state = dict.fromkeys(next_state, 0)
    obs = []
    for _ in range(cycles if next_state else 1):
        values.update((ref, state[(ref.net, ref.bit)]) for ref in registers)
        val = eval_order(next_order, values, ones)
        state = {key: val[node] for key, node in next_state.items()}
        values.update((ref, state[(ref.net, ref.bit)]) for ref in registers)
        val = eval_order(comb_order, values, ones)
        obs += [state[key] if key in state else val[comb[key]]
                for key in design.output_bits()]
    return obs


UNROLLED = {**{name: ("<t>", src, "m") for name, src in CYCLE_DESIGNS.items()},
            "toy_spn": ("toy_spn.v", None, "toy_spn"), "shift": ("<t>", SHIFT, "m")}


@pytest.mark.parametrize("cycles", (1, 3, 8))
@pytest.mark.parametrize("name", sorted(UNROLLED))
def test_unroll_matches_the_cycle_by_cycle_reference(name, cycles):
    path, src, top = UNROLLED[name]
    a = analyze_source(src, top) if src else analyze_corpus(path, top)
    f = flatten_forest(a.forest, a.design, cycles)
    assert len(f.observations) == cycles * len(a.design.output_bits())
    rng = random.Random(f"{name}:{cycles}")
    lanes = 64
    ones = (1 << lanes) - 1
    for _ in range(4):
        values = {r: rng.getrandbits(lanes) for r in f.high_inputs + f.low_inputs}
        assert f.unroll(values, ones) == reference_unroll(a.forest, a.design, cycles,
                                                          values, ones)


def test_too_large_before_any_lane_is_built():
    highs = [BitRef("h", i, "input-high") for i in range(13)]
    lows = [BitRef("l", i, "input-low") for i in range(12)]
    node = Node("leaf", ref=highs[0])
    for ref in highs[1:] + lows:
        node = Node("XOR", (node, Node("leaf", ref=ref)))
    forest = [BindTree(BitRef("o0", 0, "top-output"), node)]
    f = flatten_forest(forest, synthetic_design(13, 12, 1))
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        exact_multiplicative_leakage(f)
    assert time.perf_counter() - start < 0.1


def reconvergent_chain(stages):
    """``w{i+1}`` reads ``w{i}`` twice: 2^stages paths through ``stages`` gates."""
    wires = ", ".join(f"w{i}" for i in range(stages + 1))
    lines = ["module m(High input h, input l, output y);", f"wire {wires};",
             "assign w0 = h ^ l;"]
    lines += [f"assign w{i + 1} = (w{i} & h) ^ (w{i} | l);" for i in range(stages)]
    lines += [f"assign y = w{stages};", "endmodule", ""]
    return "\n".join(lines)


def test_reconvergent_chain_is_linear():
    start = time.perf_counter()
    f, _ = flat(reconvergent_chain(20), "m")
    exact_multiplicative_leakage(f)
    assert time.perf_counter() - start < 1.0
    f, _ = flat(reconvergent_chain(6), "m")
    assert exact_posterior_vulnerability(f) == reference_posterior(f)


def injective(bits):
    """``y = h`` over ``bits`` secret bits: every assignment is its own observation."""
    return flat(f"module m(High input [{bits - 1}:0] h, output [{bits - 1}:0] y);\n"
                "assign y = h;\nendmodule\n", "m")[0]


# bound on the tracemalloc peak of the cap test (65.1 MiB measured on 3.10-3.13)
KEY_CAP_PEAK = 80 << 20


def test_key_cap_bounds_memory():
    # 2^20 keys in one group fit under the cap
    assert exact_multiplicative_leakage(injective(20))[1] == 20.0
    f = injective(22)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyObservations) as err:
            exact_posterior_vulnerability(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the cap is checked after each block of 2^LANE_BITS lanes
    keys = oracle.KEY_CAP + (1 << oracle.LANE_BITS)
    assert (err.value.keys, err.value.cap) == (keys, oracle.KEY_CAP)
    assert str(err.value) == (f"exhaustive enumeration found {keys} distinct (output, low) "
                              f"keys in one group, past the cap of {oracle.KEY_CAP}")
    assert isinstance(err.value, TooLarge)
    assert peak < KEY_CAP_PEAK, peak


def test_key_cap_holds_under_nonuniform_priors(monkeypatch):
    monkeypatch.setattr(oracle, "KEY_CAP", 100)
    f = injective(8)
    probs = {("h", b): 0.3 for b in range(8)}
    with pytest.raises(TooManyObservations):
        exact_posterior_vulnerability(f, probs)
    # known bits are not enumerated, so they add no keys
    probs.update({("h", b): 1.0 for b in range(2)})
    assert exact_posterior_vulnerability(f, probs) == pytest.approx(1.0, abs=1e-12)


LFSR_FIXED = {**{("key", b): 0.0 for b in range(4)}, **{("a", b): 1.0 for b in range(4)}}


@st.composite
def circuits(draw):
    """A flattened ``random_forest`` circuit or ``CYCLE_DESIGNS`` design,
    with the priors it must keep (half of the LFSR's 16 bits known)."""
    name = draw(st.sampled_from(["random_forest", *sorted(CYCLE_DESIGNS)]))
    if name == "random_forest":
        forest, design = random_forest(random.Random(draw(st.integers(0, 2**32 - 1))))
        return flatten_forest(forest, design), {}
    return flat(CYCLE_DESIGNS[name], "m")[0], LFSR_FIXED if name == "lfsr" else {}


@st.composite
def cases(draw):
    """(circuit, uniform priors, random priors)."""
    f, fixed = draw(circuits())
    prior = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
    probs = {(r.net, r.bit): draw(prior) for r in f.high_inputs + f.low_inputs}
    return f, fixed, {**probs, **fixed}


def posterior(f, probs, lane_bits, class_bits=oracle.CLASS_BITS):
    """The posterior with class masks up to ``class_bits`` observed bits, keys past."""
    with mock.patch.object(oracle, "LANE_BITS", lane_bits), \
            mock.patch.object(oracle, "CLASS_BITS", class_bits):
        return exact_posterior_vulnerability(f, probs)


@settings(max_examples=80, deadline=None)
@given(cases(), st.sampled_from((0, 2, 3, 16)))
def test_posterior_exact_at_any_lane_width(case, lane_bits):
    """Uniform priors count keys: bit-identical to the assignment-at-a-time
    reference; other priors add best masses, within 1e-12 of it."""
    f, fixed, probs = case
    assert posterior(f, fixed, lane_bits) == reference_posterior(f, fixed)
    assert posterior(f, probs, lane_bits) == pytest.approx(
        reference_posterior(f, probs), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(cases(), cases(), st.sampled_from(((0, 16), (2, 3), (3, 0), (16, 2))))
def test_calls_share_no_packed_columns(first, second, lane_bits):
    """Two calls of other lane layouts, in a row and again, each give what
    the reference gives for it alone."""
    runs = [(first, lane_bits[0]), (second, lane_bits[1])] * 2
    results = [[posterior(f, p, k) for p in (fixed, probs)]
               for (f, fixed, probs), k in runs]
    assert results[2:] == results[:2]
    for (f, fixed, probs), (uniform, other) in zip((first, second), results):
        assert uniform == reference_posterior(f, fixed)
        assert other == pytest.approx(reference_posterior(f, probs), abs=1e-12)


def random_gates(rng, outputs, max_bits=10):
    """A random combinational circuit with ``outputs`` observed bits.

    Gates of every op read any earlier node, so lows mix in through any
    gate, outputs share subcircuits, and an input may be read by none.
    """
    n_high = rng.randint(1, max_bits - 1)
    n_low = rng.randint(0, max_bits - n_high)
    highs = [BitRef("h", i, "input-high") for i in range(n_high)]
    lows = [BitRef("l", i, "input-low") for i in range(n_low)]
    nodes = [Node("leaf", ref=r) for r in highs + lows]
    arity = {"NOT": 1, "MUX": 3}
    for _ in range(rng.randint(0, 12)):
        op = rng.choice(("AND", "OR", "XOR", "NOT", "MUX"))
        nodes.append(Node(op, tuple(rng.choice(nodes) for _ in range(arity.get(op, 2)))))
    observations = [rng.choice(nodes) for _ in range(outputs)]
    return oracle.FlatFunction(highs, lows, observations, postorder(observations))


@pytest.mark.parametrize("lane_bits", (0, 2, 3, 16))
@pytest.mark.parametrize("outputs", (6, 7))
def test_class_masks_match_keys_and_reference(outputs, lane_bits):
    # lane widths 0-3 bind highs and lows in the outer loop: groups of several unrolls
    rng = random.Random(f"{outputs}:{lane_bits}")
    for _ in range(25):
        f = random_gates(rng, outputs)
        fixed = {(r.net, r.bit): rng.choice((0.0, 1.0, 0.5))
                 for r in f.high_inputs + f.low_inputs}
        for probs in ({}, fixed):
            want = reference_posterior(f, probs)
            assert posterior(f, probs, lane_bits, outputs) == want
            assert posterior(f, probs, lane_bits, 0) == want


def feedback_ring(n):
    """``s0 <= s{n-1} ^ key; s{i} <= s{i-1} ^ a``: one register cycle of n."""
    body = f"s0 <= s{n - 1} ^ key;\n" + "".join(f"s{i} <= s{i - 1} ^ a;\n" for i in range(1, n))
    return (f"module m(input clk, High input key, input a, output y);\n"
            f"reg {', '.join(f's{i}' for i in range(n))};\n"
            f"always @(posedge clk) begin\n{body}end\nassign y = s{n - 1};\nendmodule\n")


def assert_at_or_above_exact(src, p_high=None, bound=5):
    a = analyze_source(src, "m", p_high=p_high, max_channel_inputs=bound, cap=False)
    probs = {(n, b): p_high for n, b, _sid in a.design.high_bits()} if p_high is not None else {}
    _, exact = exact_multiplicative_leakage(flatten_forest(a.forest, a.design), probs)
    assert sum(a.totals.values()) >= exact - 1e-9


FEEDBACK = dict(CYCLE_DESIGNS, loop_reg=LOOP_REG, held_in_cycle=HELD_IN_CYCLE, sticky=STICKY)


@pytest.mark.parametrize("bound", (1, 2, 5))
@pytest.mark.parametrize("p_high", (None, 0.9, 0.3))
@pytest.mark.parametrize("name", sorted(FEEDBACK))
def test_register_cycles_at_or_above_exact(name, p_high, bound):
    """Each register a cycle reads back enters it at every entering
    secret's cap, so no uncapped total falls below the oracle's 8 cycles."""
    assert_at_or_above_exact(FEEDBACK[name], p_high, bound)


def test_feedback_rings_at_or_above_exact():
    # past 8 registers the key reaches y only after the horizon, and the exact value is 0
    for n in range(1, 51):
        assert_at_or_above_exact(feedback_ring(n))


@pytest.mark.parametrize("lane_bits", (0, 2, 3, 16))
@pytest.mark.parametrize("name", sorted(CYCLE_DESIGNS))
def test_class_masks_on_one_cycle_of_a_sequential_design(name, lane_bits):
    a = analyze_source(CYCLE_DESIGNS[name], "m")
    f = flatten_forest(a.forest, a.design, cycles=1)
    probs = LFSR_FIXED if name == "lfsr" else {}
    want = reference_posterior(f, probs)
    assert posterior(f, probs, lane_bits, len(f.observations)) == want
    assert posterior(f, probs, lane_bits, 0) == want


@pytest.mark.parametrize("outputs", (1, 6, 7))
def test_class_masks_only_at_uniform_priors_and_few_observed_bits(outputs):
    f = random_gates(random.Random(outputs), outputs)
    nonuniform = {(r.net, r.bit): 0.3 for r in f.high_inputs}
    for probs, keys in (({}, outputs > oracle.CLASS_BITS), (nonuniform, True)):
        with mock.patch.object(oracle, "_lane_keys", wraps=oracle._lane_keys) as lane_keys:
            exact_posterior_vulnerability(f, probs)
        assert lane_keys.called == keys


def read_once_outputs(n_high, n_low, outputs):
    """``outputs`` read-once trees, each over half of the highs and of the lows."""
    rng = random.Random(f"{n_high}/{n_low}/{outputs}")
    highs = [BitRef("h", i, "input-high") for i in range(n_high)]
    lows = [BitRef("l", i, "input-low") for i in range(n_low)]
    observations = [oracle._random_tree(rng, rng.sample(highs, n_high // 2),
                                        rng.sample(lows, n_low // 2))
                    for _ in range(outputs)]
    return oracle.FlatFunction(highs, lows, observations, postorder(observations))


@pytest.mark.parametrize("shape", ((8, 8, 6), (16, 0, 6), (4, 12, 6), (18, 4, 5), (20, 0, 2)))
def test_class_masks_no_slower_than_keys(shape):
    # (highs, lows, outputs) at 16 lane bits: blocks of 256, 2^16 and 16 lanes,
    # then groups of 4 and 16 unrolls (about 0.4x to 0.02x of the key path's time)
    f = read_once_outputs(*shape)

    def best(class_bits):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            result = posterior(f, None, 16, class_bits)
            times.append(time.perf_counter() - start)
        return min(times), result

    (masks, by_masks), (keys, by_keys) = best(oracle.CLASS_BITS), best(0)
    assert by_masks == by_keys
    assert masks <= 1.1 * keys, (masks, keys)


# bound on the tracemalloc peak of the class masks at 16 lane bits and 6
# outputs (1.3 MiB measured on 3.11; the key path peaks at 4.3 MiB)
CLASS_MASK_PEAK = 2 << 20


def test_class_masks_bound_memory():
    # every (observation, low) pair distinct: 2^16 of them in 64 classes
    f, _ = flat("""module m(High input [3:0] h, input [11:0] l, output [5:0] y);
assign y = {h[1:0] ^ l[5:4], h ^ l[3:0]} ^ {3{l[11:10] & l[7:6]}} ^ l[9:8];
endmodule
""", "m")
    assert (len(f.high_inputs) + len(f.low_inputs), len(f.observations)) == (16, 6)
    tracemalloc.start()
    try:
        by_masks = exact_posterior_vulnerability(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert by_masks == posterior(f, None, oracle.LANE_BITS, 0) == 1.0
    assert peak < CLASS_MASK_PEAK, peak
