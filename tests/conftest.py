"""Shared helpers for the test suite."""

import pytest

from qflow import corpus
from qflow.bitgraph import dump_forest
from qflow.channelizer import dump_channels
from qflow.pipeline import Config, analyze, render_report


def analyze_source(src, top, **kwargs):
    """Run the full pipeline on an in-memory Verilog snippet."""
    cfg = Config(files=["<test>"], top=top, **kwargs)
    return analyze(cfg, file_texts=[("<test>", src)])


def analysis_outputs(src, bound, p_high):
    """The forest and channel dumps, the dependency order, every field of
    the annotated graph and the three reports (runtime zeroed) of ``src``."""
    a = analyze_source(src, "m", max_channel_inputs=bound, p_high=p_high)
    a.report.runtime_seconds = 0.0
    return (dump_forest(a.forest), dump_channels(a.graph), repr(a.deps.order),
            [repr(getattr(a.annotated, name)) for name in a.annotated.__slots__],
            [render_report(a, fmt) for fmt in ("json", "text", "csv")])


def analyze_corpus(name, top, **kwargs):
    cfg = Config(files=[corpus.path(name)], top=top, **kwargs)
    return analyze(cfg)


@pytest.fixture
def corpus_path():
    return corpus.path
