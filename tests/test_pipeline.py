"""`pipeline.analyze`: the collector pause and the no-reference-cycle contract."""

import gc

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
