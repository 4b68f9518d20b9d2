"""Every analysis output pinned by digest: dumps, schedule, annotations, reports.

Each case hashes one text that holds, labelled, ``dump_forest``,
``dump_channels``, ``deps.order``, the ``repr`` of every
``ProbAnnotatedGraph`` field (dicts in insertion order) and the JSON,
text and CSV reports with the runtime zeroed.  The digests were recorded
before the back end's per-bit hot paths were rewritten; a rewrite that
changes any value, any order or any float's last bit changes one.  CI
also runs this module under two fixed ``PYTHONHASHSEED`` values, so an
output that depends on set order fails there.
"""

import hashlib

import pytest

from qflow import corpus
from qflow.bitgraph import dump_forest
from qflow.channelizer import dump_channels
from qflow.pipeline import Config, analyze, render_report
from qflow.qif_engine import ProbAnnotatedGraph

from test_frontend import datapath_source, reconvergent_source, register_pipeline_source
from test_pipeline import CORPUS
from test_qif_engine import CYCLE_DESIGNS

CONFIGS = {"default": {}, "bound2": {"max_channel_inputs": 2}, "p0.9": {"p_high": 0.9}}
# One channel of the r0/r1 cycle holds c0 and t0, the other c1 and t1, and
# the cycle reads neither: those registers take their values in the cycle's
# sweeps, yet enter the annotations in the component's order, c1 first.
HELD_IN_CYCLE = """module m(input clk, High input k, input a, output y);
reg r0, r1, c0, c1, t0, t1;
always @(posedge clk) begin
t0 = r1 ^ k;
t1 = r0 & a;
r0 <= t0;
r1 <= t1;
c0 <= t0;
c1 <= t1;
end
assign y = c0 ^ c1;
endmodule
"""
CYCLES = dict(CYCLE_DESIGNS, held_in_cycle=HELD_IN_CYCLE)
INLINE = {"datapath": (datapath_source, "dp"), "reconvergent": (reconvergent_source, "chain"),
          "register_pipeline": (register_pipeline_source, "TSC")}


def outputs_text(analysis):
    """The labelled text that a case's digest covers."""
    parts = [("forest", dump_forest(analysis.forest)),
             ("channels", dump_channels(analysis.graph)),
             ("order", repr(analysis.deps.order))]
    parts += [(name, repr(getattr(analysis.annotated, name)))
              for name in ProbAnnotatedGraph.__slots__]
    analysis.report.runtime_seconds = 0.0
    parts += [(fmt, render_report(analysis, fmt).decode()) for fmt in ("json", "text", "csv")]
    return "".join(f"== {label}\n{text}\n" for label, text in parts)


def case(name):
    """(Config, file texts or None) of one pinned case."""
    design, _, config = name.partition("@")
    for file, top, high, extra in CORPUS:
        if file[:-2] == design:
            return Config(files=[corpus.path(n) for n in (*extra, file)], top=top,
                          high_overrides=high, **CONFIGS[config]), None
    if design in CYCLES:
        src, top = CYCLES[design], "m"
    else:
        source, top = INLINE[design]
        src = source()
    return Config(files=["<test>"], top=top, **CONFIGS[config]), [("<test>", src)]


def digest(name):
    config, files = case(name)
    return hashlib.sha256(outputs_text(analyze(config, file_texts=files)).encode()).hexdigest()


# recorded at 8dd75c9; the register-cycle designs (accumulator, downstream,
# held_in_cycle, lfsr, ring) re-recorded when cycles moved to the 8-cycle horizon
PINNED = {
    "accumulator@bound2":
        "e81689fd49b8b6af3dda669d4b10c43267435a055d3ff986f70246f30763f90d",
    "accumulator@default":
        "42fe4442f1fdce5d17c8d4ea15b1c3aefcd566ff293cf0d7ffd93d4f869a3ba8",
    "accumulator@p0.9":
        "346e82395a8b69425d61c3fea47ff64b698a9c11e030b42b31d0f2e082318b04",
    "aes_t2100@bound2":
        "487b01e5ab4eb7d78e6fb9a1b7e83c179a58964ed61a707967cea3311d21b676",
    "aes_t2100@default":
        "d011f8fb15000e3fe4c1c480845736ed7fbc4c7874367f3f5a5b87dc0a96286e",
    "aes_t2100@p0.9":
        "42c8761bdcbff1dfc89ac40033ce13d5649b6b1349ac74ee1b5da45dfc1d0a34",
    "aes_t2200@bound2":
        "7ca455d7c373711a098d8f9c6d9ed6d37cfcda8c80e9b6ca823319f71099acf5",
    "aes_t2200@default":
        "3cf65b8dd9255c4b70e847bf3d19f5f33e6dcc81e85a4ef2858ec333ae4ea709",
    "aes_t2200@p0.9":
        "a56389117be0215fa4df39d3623c66b4350b00ade09a72ca8b80ac4b5c50ad01",
    "aes_t2300_top@bound2":
        "efe61e4e4eea040b3060986c602efcb5e5e207913f5a1e6b330e5a3dbdf9d8c0",
    "aes_t2300_top@default":
        "2841ac1fa1609630616a52d14701e7e49dfea54d939e907180917b4260288ac5",
    "aes_t2300_top@p0.9":
        "32620b47dc3e82c3d32b9ef785d361c7725c4b84322b8972c1b993372e602b74",
    "datapath@default":
        "75c3ebe9429d4af97152c2b41b0bc4521089475eeb4706683bb65e6b749ba3d7",
    "downstream@bound2":
        "3eb167610f495686b484439ae211663de5cac41bd5058641bc591b6ac81a4d92",
    "downstream@default":
        "4af03caba92d332c8898329bc72c7f0dbc5215cc9e1021333c5eaedf05bc4c3b",
    "downstream@p0.9":
        "142d76fb895a2ef8ac4efbf66c1f05200f3cb994133f3f67a731bb008f9e85db",
    "example@bound2":
        "1309b341db980ce159e2ee63492b3067354fe1c265656eef86fe36b3db9cddc4",
    "example@default":
        "4dbb3b473f88f9dc3fae3fcbadffbbbd592d536bafe21f949dc62fc4931f2b1f",
    "example@p0.9":
        "8ba02ab7ab259bbe7e1128d55057edd472f498dd4f2c381b1cfe58d3968a7d37",
    "held_in_cycle@bound2":
        "3d7a7bd28f8357fa544c36f309dc6c36a6bd6cda0ad40a6ff5a24c75681a2b60",
    "held_in_cycle@default":
        "5ee7d800bfcb0302812ecffb1d47f3202f0bdf6beeff0ea6cd99bc14f82ba390",
    "held_in_cycle@p0.9":
        "74ff38fd90daef6642a9f2948a08aae3b4c687854d4d088d047b406c2ded2bb8",
    "lfsr@bound2":
        "7cd234594cd3baf55c7ddb99883afa06a7a1fde9bff6621b048494d537af31b8",
    "lfsr@default":
        "d758cf1dd61ca678ec064d44d1e5d90cafb53145f9c9ff7a04dfc57ecda68441",
    "lfsr@p0.9":
        "d4efa39275f7aee294fd83e15883024e02d88c61c6d75eb8e7be4aee75630d35",
    "reconvergent@default":
        "bea56e1aa2c15a8de8eea4018c116d01226aac992d1bb2c938464bbf1f624098",
    "register_pipeline@default":
        "04a9b5a47ca9757efdc448b3217b0d1f1673ac0c35be99aed102d21548e977fc",
    "ring@bound2":
        "ca52130c0c9ab81ea29ca0e67c7147812d747cceb03b00c24b5c4d6a4e94488b",
    "ring@default":
        "16b4b11bd8a08e1258a5f9cf1eb18a9da90984047f998043d1e2aa7ed60f3c1b",
    "ring@p0.9":
        "a2a3993938478d21b21506385694d4bd116004545efebb7df823de38d23ed055",
    "toy_spn@bound2":
        "956dd03ca0fd50c547871d2e97757c0e17222f5a9be0174972bf8a753c0cc256",
    "toy_spn@default":
        "758a963aa2e670290832ac33d767590edd2902fbf674e8fb33d7a358cc8fe5a9",
    "toy_spn@p0.9":
        "3088c3112a4c4a170d2a23f29ef720306538235d554fe6f0905a6e7bc86bd588",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_analysis_outputs_pinned(name):
    assert digest(name) == PINNED[name]


def test_every_case_pinned():
    # every design of CYCLES gets a report in all three configurations
    assert set(PINNED) == ({f"{design}@{config}" for config in CONFIGS
                            for design in (*(f[:-2] for f, *_ in CORPUS), *CYCLES)}
                           | {f"{design}@default" for design in INLINE})
