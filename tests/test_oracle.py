"""Exact exhaustive QIF computation and the differential harness."""

import math
import random
import time

import pytest

from qflow import oracle
from qflow.bitgraph import BindTree, BitRef, Node, bit_blast, compute_dependencies
from qflow.errors import TooLarge
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
from test_qif_engine import CYCLE_DESIGNS


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
