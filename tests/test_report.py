"""Classification thresholds, calibration, and rendering."""

import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qflow.report import (
    DEFAULT_DETECT,
    DEFAULT_WARN,
    Report,
    SecretEntry,
    Thresholds,
    _render_json,
    calibrate_thresholds,
    classify,
    classify_value,
    render,
)


def test_default_constants():
    assert DEFAULT_WARN == 2.89154e-3
    assert DEFAULT_DETECT == 1.53939e-2
    t = Thresholds()
    assert t.warn == DEFAULT_WARN and t.detect == DEFAULT_DETECT


def test_classification_boundaries():
    t = Thresholds()
    assert classify_value(1.0, t) == "leak"
    assert classify_value(2.66e-4, t) == "ok"
    # strict comparisons: totals equal to a threshold stay below it
    assert classify_value(DEFAULT_WARN, t) == "ok"
    assert classify_value(DEFAULT_WARN * 1.0001, t) == "warn"
    assert classify_value(DEFAULT_DETECT, t) == "warn"
    assert classify_value(DEFAULT_DETECT * 1.0001, t) == "leak"
    assert classify_value(0.0, t) == "ok"


def test_threshold_order_validated():
    with pytest.raises(ValueError):
        Thresholds(warn=0.5, detect=0.1)
    with pytest.raises(ValueError):
        Thresholds(warn=-1.0, detect=0.1)


def test_calibration_min_mean():
    t = calibrate_thresholds({0: 0.2, 1: 0.4, 2: 0.9})
    assert t.warn == 0.2
    assert abs(t.detect - 0.5) < 1e-12


def test_calibration_symmetric_equal():
    t = calibrate_thresholds({0: 1.0, 1: 1.0})
    assert t.warn == t.detect == 1.0


def test_calibration_needs_two_bits():
    with pytest.raises(ValueError):
        calibrate_thresholds({0: 1.0})


def sample_report():
    secrets = [(0, "k", 0, 0.5), (1, "k", 1, 0.5), (2, "k", 2, 0.5)]
    totals = {0: 1.0, 1: 5e-3, 2: 0.0}
    contributions = [("o", 0, {0: 1.0, 1: 5e-3})]
    return classify(totals, Thresholds(), secrets, contributions,
                    design_meta={"top": "m", "max_channel_inputs": 5, "cap": True},
                    runtime_seconds=0.125)


def test_classify_and_exit_codes():
    rep = sample_report()
    assert [s.cls for s in rep.secrets] == ["leak", "warn", "ok"]
    assert rep.counts() == {"leak": 1, "warn": 1, "ok": 1}
    assert rep.exit_code() == 2
    warn_only = Report(design={}, thresholds=Thresholds(),
                       secrets=[SecretEntry("k", 0, 5e-3, "warn", [])])
    assert warn_only.exit_code() == 1
    clean = Report(design={}, thresholds=Thresholds(),
                   secrets=[SecretEntry("k", 0, 0.0, "ok", [])])
    assert clean.exit_code() == 0


def test_json_schema_round_trip():
    doc = json.loads(render(sample_report(), "json"))
    assert doc["schema"] == 1
    assert doc["design"] == {"top": "m", "max_channel_inputs": 5, "cap": True}
    assert doc["thresholds"] == {"warn": DEFAULT_WARN, "detect": DEFAULT_DETECT}
    assert len(doc["secrets"]) == 3
    first = doc["secrets"][0]
    assert first["net"] == "k" and first["bit"] == 0
    assert first["class"] == "leak"
    assert first["paths"] == [
        {"output_net": "o", "output_bit": 0, "leakage_bits": 1.0}]
    assert doc["secrets"][2]["paths"] == []
    assert doc["runtime_seconds"] == 0.125


def test_csv_rows():
    lines = render(sample_report(), "csv").decode().strip().splitlines()
    assert lines[0] == "secret_bit_index,leakage"
    assert len(lines) == 4
    assert lines[1] == "0,1.0"
    # repr round-trips floats exactly
    assert float(lines[2].split(",")[1]) == 5e-3


def test_text_summary():
    text = render(sample_report(), "text").decode()
    assert "1 leak, 1 warn, 1 ok" in text
    assert "k[0]" in text


def test_unknown_format():
    with pytest.raises(ValueError):
        render(sample_report(), "yaml")


# -- JSON bytes: the hand-written layout against json.dumps ------------------

def json_dumps_reference(report):
    doc = {
        "schema": 1,
        "design": {key: report.design.get(key)
                   for key in ("top", "max_channel_inputs", "cap")},
        "thresholds": {"warn": report.thresholds.warn,
                       "detect": report.thresholds.detect},
        "secrets": [
            {"net": s.net, "bit": s.bit, "leakage_bits": s.leakage_bits,
             "class": s.cls,
             "paths": [{"output_net": n, "output_bit": b, "leakage_bits": v}
                       for n, b, v in s.paths]}
            for s in report.secrets],
        "runtime_seconds": report.runtime_seconds,
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


# -0.0, subnormals, NaN and the infinities included
FLOATS = st.floats()
INTS = st.integers(-(1 << 70), 1 << 70)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | st.text()


@st.composite
def thresholds(draw):
    a, b = sorted(draw(st.floats(0.0, math.inf)) for _ in range(2))
    return Thresholds(warn=a, detect=b)


SECRETS = st.builds(
    SecretEntry, net=st.text(), bit=INTS, leakage_bits=FLOATS,
    cls=st.sampled_from(["leak", "warn", "ok"]) | st.text(),
    paths=st.lists(st.tuples(st.text(), INTS, FLOATS), max_size=3))
REPORTS = st.builds(
    Report,
    design=st.dictionaries(
        st.sampled_from(["top", "max_channel_inputs", "cap", "other"]), SCALARS),
    thresholds=thresholds(), secrets=st.lists(SECRETS, max_size=4),
    runtime_seconds=FLOATS | INTS)

EDGE_CASES = Report(
    design={"top": 'k\u00e9y "\\q"\n\u2603\U0001F600', "max_channel_inputs": 5,
            "cap": False},
    thresholds=Thresholds(warn=5e-324, detect=math.inf),
    secrets=[SecretEntry("k\u00e9", 0, -0.0, "ok", []),
             SecretEntry('"q"', 1, 2.2250738585072014e-308, "warn",
                         [("o\\", 2, 1e300), ("\u00f8", 0, float("nan"))])],
    runtime_seconds=-0.0)


@given(REPORTS)
@example(Report(design={}, thresholds=Thresholds(), secrets=[]))
@example(Report(design={"top": None, "cap": False}, thresholds=Thresholds(),
                secrets=[SecretEntry("k", 0, 0.0, "ok", [])]))
@example(EDGE_CASES)
def test_render_json_bytes_match_json_dumps(report):
    assert _render_json(report) == json_dumps_reference(report)


def test_render_json_bytes_on_classified_report():
    report = sample_report()
    assert render(report, "json") == json_dumps_reference(report)
