"""`pipeline.analyze`: the collector pause, the promotion of its survivors
and the no-reference-cycle contract."""

import gc
import weakref

import pytest

from qflow import corpus
from qflow.errors import DesignTooDeep, UnknownSignal
from qflow.pipeline import Config, analyze, render_report

from conftest import analyze_source
from test_channelizer import chain_source

CORPUS = (("example.v", "example", (), ()), ("toy_spn.v", "toy_spn", (), ()),
          ("aes_t2100.v", "TSC", ("key",), ()), ("aes_t2200.v", "TSC", ("key",), ()),
          ("aes_t2300_top.v", "top", (), ("aes_t2300.v",)))

# eight register stages after a feedback register
PIPELINE = """module m(input clk, High input [3:0] key, input [3:0] a, output [3:0] y);
reg [3:0] acc, s0, s1, s2, s3, s4, s5, s6, s7;
always @(posedge clk) begin
acc <= acc ^ key;
s0 <= acc & a;
s1 <= ~s0 ^ a; s2 <= s1 | key; s3 <= ~s2 ^ a;
s4 <= s3 & a; s5 <= ~s4 ^ key; s6 <= s5 | a; s7 <= ~s6 ^ a;
end
assign y = s7;
endmodule
"""


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_analyze_leaves_collector_state(restore_gc, enabled):
    (gc.enable if enabled else gc.disable)()
    analyze_source(PIPELINE, "m")
    assert gc.isenabled() is enabled
    with pytest.raises(UnknownSignal):
        analyze_source(PIPELINE, "nope")
    assert gc.isenabled() is enabled
    with pytest.raises(DesignTooDeep):  # about 250 stages on every supported Python
        analyze_source(chain_source(600), "chain")
    assert gc.isenabled() is enabled


def per_bit_pipeline(stages, width):
    """``width`` key bits through ``stages`` registers, one nonblocking
    assignment per bit and stage inside a generate loop."""
    regs = ", ".join(f"s{j}" for j in range(stages))
    lines = [f"module p(input clk, High input [{width - 1}:0] key, input [{width - 1}:0] in,",
             f"output reg [{width - 1}:0] y);", f"reg [{width - 1}:0] {regs};",
             "genvar i;", "generate", f"for (i = 0; i < {width}; i = i + 1) begin",
             "always @(posedge clk) begin", " s0[i] <= key[i] ^ in[i];"]
    lines += [f" s{j}[i] <= ~s{j - 1}[i] ^ in[i];" for j in range(1, stages)]
    lines += [f" y[i] <= s{stages - 1}[i];", "end", "end", "endgenerate", "endmodule", ""]
    return "\n".join(lines)


# CPython 3.12.1 starts with 375 objects frozen (the base and MRO tuples of
# its static types), and analyze keeps any frozen set as it is
@pytest.mark.skipif(gc.get_freeze_count() != 0,
                    reason="objects frozen at start-up: analyze does not promote")
def test_no_collection_scans_a_finished_analysis(restore_gc):
    """The allocations the paused collector counted are not charged to the
    caller: no collection starts inside ``analyze``, nor at the next
    allocations, although the analysis leaves thousands of tracked objects."""
    gc.enable()
    gc.collect()
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        analysis = analyze_source(per_bit_pipeline(28, 32), "p")  # alive below
        lists = [[] for _ in range(100)]
    finally:
        gc.callbacks.remove(hook)
    assert gc.get_threshold()[0] > len(lists) + 1  # these alone start none
    assert starts == []
    assert analysis.totals == dict.fromkeys(range(32), 1.0)


def test_analyze_keeps_the_callers_frozen_objects(restore_gc):
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        analyze_source(PIPELINE, "m")
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_a_callers_reference_cycle_is_still_reclaimed(restore_gc):
    class Cell:
        pass

    gc.enable()
    cell = Cell()
    cell.self = cell
    ref = weakref.ref(cell)
    del cell
    analyze_source(PIPELINE, "m")
    gc.collect()
    assert ref() is None


def test_analysis_and_rendering_make_no_reference_cycles(restore_gc):
    configs = [(name, Config(files=[corpus.path(n) for n in (*extra, name)],
                             top=top, high_overrides=hi), None)
               for name, top, hi, extra in CORPUS]
    configs += [(name, Config(files=["<test>"], top=top), [("<test>", src)])
                for name, top, src in (("pipeline", "m", PIPELINE),
                                       ("chain", "chain", chain_source(12)))]
    gc.disable()
    gc.collect()
    found = {}
    for name, config, files in configs:
        analysis = analyze(config, file_texts=files)
        for fmt in ("json", "text", "csv"):
            render_report(analysis, fmt)
        del analysis
        found[name] = gc.collect()
    assert found == dict.fromkeys(found, 0)
