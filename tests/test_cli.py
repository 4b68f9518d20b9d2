"""End-to-end command-line behavior and exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qflow
from qflow import cli, corpus
from qflow.cli import main
from qflow.errors import DesignTooDeep
from qflow.pipeline import Config, analyze

IDENTITY = """module m(High input [1:0] h, output [1:0] y);
assign y = h;
endmodule
"""

SAFE = """module m(High input h, input l, output y);
assign y = l;
endmodule
"""


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "qflow.cli", *args],
                          capture_output=True, **kw)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_leak_exit_code(tmp_path):
    src = write(tmp_path, "m.v", IDENTITY)
    r = run_cli(["analyze", "--top", "m", src])
    assert r.returncode == 2
    assert b"leak" in r.stdout


def test_clean_exit_code(tmp_path):
    src = write(tmp_path, "m.v", SAFE)
    r = run_cli(["analyze", "--top", "m", src])
    assert r.returncode == 0


def test_warn_exit_code(tmp_path):
    # min-entropy of p=0.996 lands between the two default thresholds
    src = write(tmp_path, "m.v", IDENTITY)
    r = run_cli(["analyze", "--top", "m", "--p-high", "0.996", src])
    assert r.returncode == 1


def test_error_exit_codes(tmp_path):
    src = write(tmp_path, "m.v", IDENTITY)
    assert run_cli(["analyze", "--top", "nope", src]).returncode == 3
    assert run_cli(["analyze", "--top", "m", "/nonexistent.v"]).returncode == 3
    assert run_cli(["analyze", src]).returncode == 3  # missing --top
    assert run_cli(["analyze", "--top", "m", "--format", "xml", src]).returncode == 3
    assert run_cli(["analyze", "--top", "m", "--max-channel-inputs", "99",
                    src]).returncode == 3


def test_benchmark_detection():
    r = run_cli(["analyze", "--top", "TSC", "--high", "key", "--format", "csv",
                 corpus.path("aes_t2100.v")])
    assert r.returncode == 2
    rows = r.stdout.decode().strip().splitlines()[1:]
    assert len(rows) == 128
    assert sum(1 for row in rows if row.endswith(",1.0")) == 64


def test_json_determinism(tmp_path):
    src = write(tmp_path, "m.v", IDENTITY)
    outs = []
    for _ in range(2):
        r = run_cli(["analyze", "--top", "m", "--format", "json", src])
        doc = json.loads(r.stdout)
        doc["runtime_seconds"] = None
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_probability_file(tmp_path):
    src = write(tmp_path, "m.v", IDENTITY)
    probs = write(tmp_path, "p.txt",
                  "# per-net then per-bit\nh = 1.0\nh[1] = 0.5\n")
    r = run_cli(["analyze", "--top", "m", "--probs", probs, "--format",
                 "csv", src])
    rows = r.stdout.decode().strip().splitlines()[1:]
    assert rows[0] == "0,0.0"
    assert rows[1] == "1,1.0"


def test_no_cap_flag(tmp_path):
    src = write(tmp_path, "m.v", """module m(High input h, output [1:0] y);
assign y = {h, h};
endmodule
""")
    r = run_cli(["analyze", "--top", "m", "--no-cap", "--format", "csv", src])
    assert r.stdout.decode().strip().splitlines()[1] == "0,2.0"


def test_custom_thresholds(tmp_path):
    src = write(tmp_path, "m.v", IDENTITY)
    r = run_cli(["analyze", "--top", "m", "--warn", "0.5", "--detect", "2.0", src])
    assert r.returncode == 1  # 1.0 is warn-only under the raised thresholds


def test_calibrate_output(tmp_path):
    r = run_cli(["calibrate", "--top", "toy_spn", corpus.path("toy_spn.v")])
    assert r.returncode == 0
    lines = r.stdout.decode().strip().splitlines()
    warn = float(lines[0].split("=")[1])
    detect = float(lines[1].split("=")[1])
    assert 0.0 < warn <= detect


def test_calibrate_sweep_output():
    args = ["--top", "toy_spn", corpus.path("toy_spn.v")]
    sweep = run_cli(["calibrate", "--sweep", *args])
    plain = run_cli(["calibrate", *args])
    assert sweep.returncode == plain.returncode == 0
    _header, *rows = sweep.stdout.decode().strip().splitlines()
    assert [int(row.split()[0]) for row in rows] == [1, 2, 3, 4, 5]
    warn, detect = (float(line.split("=")[1]) for line in plain.stdout.decode().split())
    # the plain command's default bound is 5
    assert rows[-1].split()[1:] == [f"{warn:.9f}", f"{detect:.9f}"]


def test_oracle_diff_cli():
    r = run_cli(["oracle-diff", "--seed", "11", "--count", "10"])
    assert r.returncode == 0
    assert b"10 circuits, 0 violations" in r.stdout


def test_dump_flags(tmp_path):
    src = write(tmp_path, "m.v", IDENTITY)
    r = run_cli(["analyze", "--top", "m", "--dump-trees", "--dump-channels", src])
    assert b"y[0]" in r.stderr
    assert b"table=" in r.stderr or b"inputs=" in r.stderr


STICKY = """module m(input clk, High input k, input a, output y);
reg r;
always @(posedge clk) begin
r <= r | a;
end
assign y = r & k;
endmodule
"""


@pytest.mark.parametrize("source,probs,message", [
    (STICKY, "a = 0.01\n", b"sequential fixpoint did not converge over registers: r[0]"),
    (IDENTITY.replace("module m(", "module m #(parameter A = &3) ("), None,
     b"unsupported construct: operator & in a constant expression"),
], ids=["unsettled_fixpoint", "reduction_in_parameter"])
def test_typed_error_exits_without_traceback(tmp_path, source, probs, message):
    args = ["analyze", "--top", "m", write(tmp_path, "m.v", source)]
    if probs is not None:
        args += ["--probs", write(tmp_path, "p.txt", probs)]
    r = run_cli(args)
    assert r.returncode == 3
    assert b"Traceback" not in r.stderr
    assert message in r.stderr


def test_main_callable_in_process(tmp_path, capsys):
    src = write(tmp_path, "m.v", SAFE)
    code = main(["analyze", "--top", "m", src])
    assert code == 0


def test_public_names_resolve():
    missing = [name for name in qflow.__all__ if not hasattr(qflow, name)]
    assert not missing and len(set(qflow.__all__)) == len(qflow.__all__)


def reconvergent_chain(stages, monkeypatch):
    """The benchmark's reconvergent chain: each stage reads the last twice."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import families
    return families.reconvergent_chain(random.Random(1), stages).files[0][1]


def nested_parentheses(levels):
    expr = "k[0]"
    for i in range(1, levels + 1):
        expr = f"({expr} ^ k[{i % 8}])"
    return f"module m(High input [7:0] k, output y);\nassign y = {expr};\nendmodule\n"


def long_xor(terms):
    expr = " ^ ".join(f"k[{i}]" for i in range(terms))
    return (f"module m(High input [{terms - 1}:0] k, output y);\n"
            f"assign y = {expr};\nendmodule\n")


# Each fails in a different recursive walker: bit-blasting, the parser,
# and elaboration's ``resolve``.
@pytest.mark.parametrize("top, make", [
    ("chain", lambda mp: reconvergent_chain(600, mp)),
    ("m", lambda _mp: nested_parentheses(250)),
    ("m", lambda _mp: long_xor(1200)),
], ids=["chain-600", "parentheses-250", "xor-1200"])
def test_too_deep_design_is_an_error(tmp_path, capsys, monkeypatch, top, make):
    src = write(tmp_path, "deep.v", make(monkeypatch))
    assert main(["analyze", "--top", top, "--format", "json", src]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qflow: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    with pytest.raises(DesignTooDeep):
        analyze(Config(files=[src], top=top))


def test_too_deep_dump_is_an_error(tmp_path, capsys, monkeypatch):
    def too_deep(_forest):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(cli, "dump_forest", too_deep)
    src = write(tmp_path, "m.v", IDENTITY)
    assert main(["analyze", "--top", "m", "--dump-trees", src]) == 3
    assert capsys.readouterr().err.startswith("qflow: error: design is nested too deeply")
