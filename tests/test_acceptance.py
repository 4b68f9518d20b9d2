"""Acceptance gate: eight criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import math
import os
import random
import time

import pytest

from qflow import corpus
from qflow.oracle import differential_run, exact_multiplicative_leakage, flatten_forest
from qflow.pipeline import Config, analyze
from qflow.qif_engine import channel_prob_pbv
from qflow.report import DEFAULT_DETECT, DEFAULT_WARN, Thresholds, classify_value

from conftest import analyze_corpus, analyze_source
from test_qif_engine import enum_macro, enum_pbv, enum_prob, macro_design, random_table_channel


def check(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    a = analyze_corpus("example.v", "example", max_channel_inputs=3)
    by_out = {str(root): a.graph.channels[cid]
              for root, cid in a.graph.root_channel.items()}
    pbv0 = a.annotated.chan_pbv[by_out["o[0]"].cid]
    totals_ok = all(abs(v - 0.625) < 1e-9 for v in a.totals.values())
    flat = flatten_forest(a.forest, a.design)
    _, exact_bits = exact_multiplicative_leakage(flat)
    uncapped = analyze_corpus("example.v", "example", max_channel_inputs=3,
                              cap=False)
    dominated = sum(uncapped.totals.values()) + 1e-9 >= exact_bits
    elapsed = time.perf_counter() - t0
    check(1, "worked example: per-channel PBV, totals, exact oracle, domination",
          abs(pbv0 - 0.375) < 1e-9 and totals_ok
          and abs(exact_bits - 0.5849625007211562) < 1e-9
          and dominated and elapsed < 1.0,
          f"pbv={pbv0:.6g} exact={exact_bits:.6g} {elapsed:.2f}s")


def test_criterion_2_trojan_benchmarks():
    ok = True
    details = []
    for name, top, extra in (
            ("aes_t2100.v", "TSC", ()),
            ("aes_t2200.v", "TSC", ()),
            ("aes_t2300_top.v", "top", ("aes_t2300.v",))):
        t0 = time.perf_counter()
        files = [corpus.path(n) for n in (*extra, name)]
        cfg = Config(files=files, top=top,
                     high_overrides=() if top == "top" else ("key",))
        a = analyze(cfg)
        elapsed = time.perf_counter() - t0
        leak_bits = [v for v in a.totals.values()
                     if abs(v - 1.0) < 1e-6
                     and classify_value(v, Thresholds()) == "leak"]
        total = sum(a.totals.values())
        this_ok = (len(leak_bits) == 64 and abs(total - 64.0) < 1e-6
                   and elapsed < 10.0)
        ok = ok and this_ok
        details.append(f"{name}:{len(leak_bits)}x1.0 {elapsed:.1f}s")
    check(2, "64 key bits flagged leak at 1.0 bit on all three Trojan designs",
          ok, " ".join(details))


def test_criterion_3_thresholds():
    t = Thresholds()
    ok = (DEFAULT_WARN == 2.89154e-3 and DEFAULT_DETECT == 1.53939e-2
          and classify_value(1.0, t) == "leak"
          and classify_value(2.66e-4, t) == "ok")
    check(3, "default two-threshold classification constants and examples", ok)


def test_criterion_4_probability_sweep():
    t0 = time.perf_counter()
    ps = [i / 10 for i in range(11)]
    totals = []
    for p in ps:
        a = analyze_corpus("aes_t2100.v", "TSC", high_overrides=("key",),
                           p_high=p)
        totals.append(sum(a.totals.values()))
    elapsed = time.perf_counter() - t0
    symmetric = all(abs(a - b) < 1e-9 for a, b in zip(totals, reversed(totals)))
    ok = (totals[0] == 0.0 and totals[-1] == 0.0
          and max(totals) == totals[5] and symmetric and elapsed < 30.0)
    check(4, "leakage sweep over p_high: zero at endpoints, peak at 0.5, symmetric",
          ok, f"peak={totals[5]:.4g} {elapsed:.1f}s")


def test_criterion_5_merge_bound_sweep():
    t0 = time.perf_counter()
    means = []
    for bound in range(1, 6):
        a = analyze_corpus("toy_spn.v", "toy_spn", max_channel_inputs=bound)
        means.append(sum(a.totals.values()) / len(a.totals))
    elapsed = time.perf_counter() - t0
    non_increasing = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    check(5, "mean estimate non-increasing as the merge bound grows 1..5",
          non_increasing and elapsed < 30.0,
          " ".join(f"{m:.4f}" for m in means) + f" {elapsed:.1f}s")


def test_criterion_6_differential_oracle():
    t0 = time.perf_counter()
    records = differential_run(seed=42, count=200)
    elapsed = time.perf_counter() - t0
    violations = [r for r in records if not r.dominated]
    check(6, "differential harness: 200 seeded circuits, zero domination violations",
          len(records) == 200 and not violations and elapsed < 120.0,
          f"{len(violations)} violations {elapsed:.1f}s")


def test_criterion_7_channel_exactness():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    ok = True
    for _ in range(1000):
        ch = random_table_channel(rng, rng.randint(1, 5))
        probs = [rng.random() for _ in ch.inputs]
        p1, pbv = channel_prob_pbv(ch, probs)
        if (abs(p1 - enum_prob(ch, probs)) >= 1e-12
                or abs(pbv - enum_pbv(ch, probs)) >= 1e-12):
            ok = False
            break
    for w in range(2, 7):
        for expr in ("a + b", "a - b"):
            _forest, graph = macro_design(expr, w)
            for ch in graph.channels:
                probs = [rng.random() for _ in ch.inputs]
                p1, _pbv = channel_prob_pbv(ch, probs)
                if abs(p1 - enum_macro(ch, probs)) >= 1e-12:
                    ok = False
    elapsed = time.perf_counter() - t0
    check(7, "1000 random channels and the add/sub closed forms match enumeration",
          ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_8_external_benchmarks():
    root = os.environ.get("QFLOW_TRUSTHUB_DIR")
    if not root:
        print("[SKIP] criterion 8: external benchmark suite "
              "(set QFLOW_TRUSTHUB_DIR to enable)")
        pytest.skip("QFLOW_TRUSTHUB_DIR not set")
    ok = True
    details = []
    t100 = os.path.join(root, "AES-T100.v")
    if os.path.exists(t100):
        cfg = Config(files=[t100], top="top", high_overrides=("key",))
        a = analyze(cfg)
        ones = [v for v in a.totals.values() if abs(v - 1.0) < 1e-6]
        ok = ok and len(ones) == 8
        details.append(f"T100:{len(ones)}x1.0")
    t1600 = os.path.join(root, "AES-T1600.v")
    if os.path.exists(t1600):
        cfg = Config(files=[t1600], top="top", high_overrides=("key",))
        a = analyze(cfg)
        leaking = [v for v in a.totals.values() if v > 0]
        mean = sum(leaking) / len(leaking) if leaking else 0.0
        ok = ok and abs(mean - 0.22) <= 0.2 * 0.22
        details.append(f"T1600:mean={mean:.3f}")
    check(8, "external benchmark spot checks", ok, " ".join(details))
