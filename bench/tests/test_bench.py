"""The generators' known answers, checked against qflow's exact oracle.

Run with ``python3 -m pytest -q bench/tests`` from the repository root.
"""

import random

import pytest

import calibrate
import families
import run
import tracing
from qflow.oracle import exact_multiplicative_leakage, flatten_forest
from qflow.pipeline import Config, analyze


def analyse(design):
    cfg = Config(files=[p for p, _ in design.files], top=design.top,
                 high_overrides=design.high_overrides,
                 max_channel_inputs=design.max_channel_inputs)
    return analyze(cfg, file_texts=design.files)


def exact_bit_leakage(flat, net, bit):
    """Exact leakage about one secret bit while every other secret bit is known."""
    probs = {(r.net, r.bit): 0.0 for r in flat.high_inputs
             if (r.net, r.bit) != (net, bit)}
    return exact_multiplicative_leakage(flat, probs)[1]


def assert_exact_answers(design):
    """Each expected class matches the oracle: leak is 1 bit, ok is 0 bits."""
    a = analyse(design)
    flat = flatten_forest(a.forest, a.design, cycles=max(design.unroll, 1))
    read = {(r.net, r.bit) for r in flat.high_inputs}
    for (net, bit), (cls, value) in design.expected.items():
        exact = exact_bit_leakage(flat, net, bit) if (net, bit) in read else 0.0
        assert exact == pytest.approx(value, abs=1e-9), (design.name, net, bit, cls)
        assert cls == ("leak" if value else "ok")


def run_check(design):
    runner = run.Runner(run.load_qflow())
    _t, _a, rendered, uncapped, _flat, exact = runner.op(design)
    return run.check(design, run.verdicts_of(rendered), uncapped, exact)


@pytest.mark.parametrize("seed", range(4))
def test_bitsliced_datapath_answers(seed):
    design = families.bitsliced_datapath(random.Random(seed), 8)
    assert_exact_answers(design)
    assert run_check(design) is None


@pytest.mark.parametrize("per_bit", (False, True))
@pytest.mark.parametrize("seed", range(3))
def test_trojan_pipeline_answers(seed, per_bit):
    design = families.trojan_pipeline(random.Random(seed), 3, 6, per_bit)
    assert ("generate" in design.files[0][1]) == per_bit
    assert_exact_answers(design)
    assert run_check(design) is None


def test_corpus_trojans_pass_the_checks():
    for design in families.corpus_trojans():
        assert run_check(design) is None


@pytest.mark.parametrize("seed", range(6))
def test_read_once_circuit_dominated_and_spares_ok(seed):
    design = families.read_once_circuit(random.Random(seed), 8)
    a = analyse(design)
    flat = flatten_forest(a.forest, a.design)
    assert len(flat.high_inputs) + len(flat.low_inputs) == 8
    assert {(r.net, r.bit) for r in flat.high_inputs}.isdisjoint(design.expected)
    assert run_check(design) is None


def test_chains_pass_the_structural_check():
    for stages in (3, 6):
        assert run_check(families.reconvergent_chain(random.Random(stages), stages)) is None
        assert run_check(families.oracle_chain(random.Random(stages), stages)) is None


def test_only_read_once_circuits_use_the_harness_bound():
    pool = families.workload_pool("oracle_diff", 1)
    bounds = {d.kind: {x.max_channel_inputs for x in pool if x.kind == d.kind} for d in pool}
    assert bounds == {"read_once": {families.ORACLE_CHANNEL_BOUND},
                      "reconvergent": {families.Design.max_channel_inputs}}


def test_setup_is_timed_in_fresh_interpreters():
    scaled_s, raw_s = run.setup_seconds("reconvergent_chain", 1)
    assert 0.0 < scaled_s < 60.0 and 0.0 < raw_s < 60.0


def test_scaled_time_is_given_against_the_reference_loop():
    reference = calibrate.REFERENCE_MS * 1e-3
    assert calibrate.scaled(0.5, reference) == pytest.approx(0.5)
    assert calibrate.scaled(0.5, 2 * reference) == pytest.approx(0.25)
    assert 0.0 < calibrate.reference_seconds() < 1.0


def test_check_rejects_a_wrong_verdict():
    design = families.bitsliced_datapath(random.Random(0), 8)
    key = next(k for k, (cls, _v) in design.expected.items() if cls == "leak")
    design.expected[key] = ("ok", 0.0)
    assert "expected ok" in run_check(design)


@pytest.mark.parametrize("workload", families.POOLS)
def test_one_seed_gives_one_text(workload):
    def texts(seed):
        return [d.files for d in families.workload_pool(workload, seed)]
    assert texts(3) == texts(3)
    assert texts(3) != texts(4)
    sizes = [sorted(d.size for d in families.workload_pool(workload, s)) for s in (3, 4)]
    assert sizes[0] == sizes[1]


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(list(range(100))) == (90, 89)
    assert run.tail_percentile(list(range(40))) == (75, 29)
    assert run.tail_percentile(list(range(12)))[0] == 50


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    parse = tracer._wrap("parse", lambda x: x)
    analyze = tracer._wrap("analyze", lambda x: parse(x))
    assert analyze(5) == 5
    spans = {s[0]: s for s in tracer.spans}
    assert spans["parse"][3] == 0 and spans["analyze"][3] is None
    whole = (spans["analyze"][2] - spans["analyze"][1]) * 1e3
    inner = (spans["parse"][2] - spans["parse"][1]) * 1e3
    times = tracer.self_times_ms()
    assert times["frontend.parse_ms"] == pytest.approx(inner)
    assert times["pipeline.glue_ms"] == pytest.approx(whole - inner)


def test_install_traces_every_stage_and_uninstall_restores():
    mods = run.load_qflow()
    pipeline, oracle = mods["pipeline"], mods["oracle"]
    before = {name: getattr(pipeline, name) for name, _m in tracing.PIPELINE_SPANS}
    tracer = tracing.Tracer()
    tracer.install(pipeline, oracle)
    try:
        run.Runner(mods).op(families.read_once_circuit(random.Random(0), 6))
    finally:
        tracer.uninstall()
    assert {s[0] for s in tracer.spans} == set(tracing.SPAN_METRIC)
    assert all(getattr(pipeline, n) is fn for n, fn in before.items())
