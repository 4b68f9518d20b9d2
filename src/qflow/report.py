"""Threshold classification, calibration, and report rendering."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

from ._record import Record

# Defaults from the fully-diffusing reference calibration:
# warning = smallest per-bit leakage, detection = mean per-bit leakage.
DEFAULT_WARN = 2.89154e-3
DEFAULT_DETECT = 1.53939e-2


class Thresholds(Record):
    """Immutable and hashable, so one value can be shared."""

    __slots__ = ("warn", "detect")

    def __init__(self, warn: float = DEFAULT_WARN, detect: float = DEFAULT_DETECT):
        if not (0.0 <= warn <= detect):
            raise ValueError(f"thresholds must satisfy 0 <= warn <= detect, "
                             f"got warn={warn} detect={detect}")
        object.__setattr__(self, "warn", warn)
        object.__setattr__(self, "detect", detect)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash((self.warn, self.detect))


class SecretEntry(Record):
    __slots__ = ("net", "bit", "leakage_bits", "cls", "paths")

    def __init__(self, net: str, bit: int, leakage_bits: float, cls: str, paths: list):
        self.net = net
        self.bit = bit
        self.leakage_bits = leakage_bits
        self.cls = cls  # leak | warn | ok
        self.paths = paths  # (output_net, output_bit, leakage_bits), nonzero only


class Report(Record):
    __slots__ = ("design", "thresholds", "secrets", "runtime_seconds")

    def __init__(self, design: dict, thresholds: Thresholds, secrets: list,
                 runtime_seconds: float = 0.0):
        self.design = design  # top, max_channel_inputs, cap
        self.thresholds = thresholds
        self.secrets = secrets  # SecretEntry, ordered by secret id
        self.runtime_seconds = runtime_seconds

    def counts(self):
        c = {"leak": 0, "warn": 0, "ok": 0}
        for s in self.secrets:
            c[s.cls] += 1
        return c

    def exit_code(self):
        c = self.counts()
        if c["leak"]:
            return 2
        if c["warn"]:
            return 1
        return 0


def classify_value(total: float, t: Thresholds) -> str:
    if total > t.detect:
        return "leak"
    if total > t.warn:
        return "warn"
    return "ok"


def classify(totals, t: Thresholds, secrets, contributions=None,
             design_meta=None, runtime_seconds=0.0) -> Report:
    """Three-way partition of per-secret-bit totals.

    ``secrets`` is the engine's (sid, net, bit, p) list; ``contributions``
    the per-output-bit leakage vectors used for path reporting.
    """
    paths = {}  # sid -> its nonzero contributions, in output order
    for out_net, out_bit, vec in contributions or ():
        for sid, val in vec.items():
            if val > 0.0:
                paths.setdefault(sid, []).append((out_net, out_bit, val))
    entries = []
    for sid, net, bit, _p in sorted(secrets):
        total = totals.get(sid, 0.0)
        entries.append(SecretEntry(net, bit, total, classify_value(total, t),
                                   paths.get(sid, [])))
    return Report(design=design_meta or {}, thresholds=t, secrets=entries,
                  runtime_seconds=runtime_seconds)


def calibrate_thresholds(totals) -> Thresholds:
    """warn = min per-bit total, detect = mean per-bit total."""
    values = list(totals.values())
    if len(values) < 2:
        raise ValueError("calibration needs a design with at least 2 secret bits")
    return Thresholds(warn=min(values), detect=math.fsum(values) / len(values))


def render(report: Report, fmt: str) -> bytes:
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def _json_scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it, through C where it can."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)  # None, bools, NaN, infinities


def _json_array(items, indent: int) -> str:
    """Indented items as an ``indent=2`` JSON array closed at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def _render_json(report: Report) -> bytes:
    """Schema 1, byte for byte as ``json.dumps(doc, indent=2)`` lays it out.

    The layout is written here because ``json.dumps`` with ``indent`` runs
    the pure-Python encoder, whose closures also leave reference cycles
    behind.  Every value in the document is a scalar.
    """
    q = _json_scalar
    design, t = report.design, report.thresholds
    secrets = [
        f'    {{\n      "net": {q(s.net)},\n      "bit": {q(s.bit)},\n'
        f'      "leakage_bits": {q(s.leakage_bits)},\n      "class": {q(s.cls)},\n'
        '      "paths": ' + _json_array([
            f'        {{\n          "output_net": {q(n)},\n'
            f'          "output_bit": {q(b)},\n'
            f'          "leakage_bits": {q(v)}\n        }}'
            for n, b, v in s.paths], 6) + "\n    }"
        for s in report.secrets]
    return (
        '{\n  "schema": 1,\n  "design": {\n'
        f'    "top": {q(design.get("top"))},\n'
        f'    "max_channel_inputs": {q(design.get("max_channel_inputs"))},\n'
        f'    "cap": {q(design.get("cap"))}\n  }},\n'
        f'  "thresholds": {{\n    "warn": {q(t.warn)},\n'
        f'    "detect": {q(t.detect)}\n  }},\n'
        f'  "secrets": {_json_array(secrets, 2)},\n'
        f'  "runtime_seconds": {q(report.runtime_seconds)}\n}}\n').encode()


def _render_csv(report: Report) -> bytes:
    lines = ["secret_bit_index,leakage"]
    for i, s in enumerate(report.secrets):
        lines.append(f"{i},{s.leakage_bits!r}")
    return ("\n".join(lines) + "\n").encode()


def _render_text(report: Report) -> bytes:
    lines = []
    top = report.design.get("top", "?")
    lines.append(f"design {top}  "
                 f"(max_channel_inputs={report.design.get('max_channel_inputs')}, "
                 f"cap={'on' if report.design.get('cap') else 'off'})")
    lines.append(f"thresholds: warn={report.thresholds.warn:g} "
                 f"detect={report.thresholds.detect:g}")
    lines.append(f"{'secret bit':<24}{'leakage (bit)':>16}  class")
    for s in report.secrets:
        lines.append(f"{s.net + '[' + str(s.bit) + ']':<24}"
                     f"{s.leakage_bits:>16.9f}  {s.cls}")
    c = report.counts()
    lines.append(f"summary: {c['leak']} leak, {c['warn']} warn, {c['ok']} ok "
                 f"({report.runtime_seconds:.3f}s)")
    return ("\n".join(lines) + "\n").encode()
