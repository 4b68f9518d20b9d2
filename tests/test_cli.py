"""End-to-end command-line behavior and exit codes."""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qflow
import qflow.cli
from qflow import corpus
from qflow.cli import main
from qflow.errors import DesignTooDeep
from qflow.oracle import exact_multiplicative_leakage, flatten_forest
from qflow.pipeline import Config, analyze

from conftest import analyze_source
from test_frontend import INPUT_WRITES, input_write_source
from test_qif_engine import STICKY

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


NON_CONSTANT = "module m(input [3:0] k, // qflow: high\ninput [3:0] a,\noutput reg [3:0] y);\n"
SUB = "module sub #(parameter P = 1) (input [3:0] x, output [3:0] z);\nassign z = x;\nendmodule\n"


@pytest.mark.parametrize("source,message", [
    (IDENTITY.replace("module m(", "module m #(parameter A = &3) ("),
     b"unsupported construct: operator & in a constant expression"),
    (NON_CONSTANT + "assign y = k[a:0];\nendmodule\n",
     b"unsupported construct: non-constant part-select bound"),
    (NON_CONSTANT + "assign y = {a{k}};\nendmodule\n",
     b"unsupported construct: non-constant replication count"),
    (NON_CONSTANT + "assign y = k[a[1:0]:0];\nendmodule\n",
     b"unsupported construct: non-constant part-select bound"),
    (NON_CONSTANT + "assign y[a[1:0]] = k[0];\nendmodule\n",
     b"unsupported construct: non-constant bit-select in an assignment target at y"),
    (NON_CONSTANT + "always @* y[a[1:0]] = k[0];\nendmodule\n",
     b"unsupported construct: non-constant bit-select in an assignment target at y"),
    (SUB + NON_CONSTANT + "sub #(.P(a)) u(.x(k), .z(y));\nendmodule\n",
     b"unsupported construct: non-constant override of parameter P at u"),
], ids=["reduction_in_parameter", "part_select_bound", "replication_count",
        "part_select_bound_select", "target_index", "procedural_target_index",
        "parameter_override"])
def test_typed_error_exits_without_traceback(tmp_path, source, message):
    r = run_cli(["analyze", "--top", "m", write(tmp_path, "m.v", source)])
    assert r.returncode == 3
    assert b"Traceback" not in r.stderr
    assert r.stderr == b"qflow: error: " + message + b"\n"


@pytest.mark.parametrize("name", INPUT_WRITES)
def test_write_to_top_input_exits_3(tmp_path, name):
    r = run_cli(["analyze", "--top", "m",
                 write(tmp_path, "m.v", input_write_source(INPUT_WRITES[name]))])
    assert r.returncode == 3
    assert b"Traceback" not in r.stderr
    assert b"multiple drivers for k[0]" in r.stderr


def test_slow_register_cycle_gets_a_verdict_at_or_above_exact(tmp_path):
    # P(r) rises toward 1 by 1% of the gap per cycle; the verdict covers
    # the oracle's 8 cycles from reset
    probs = write(tmp_path, "p.txt", "a = 0.01\n")
    a = analyze_source(STICKY, "m", prob_file=probs)
    _, exact = exact_multiplicative_leakage(flatten_forest(a.forest, a.design), {("a", 0): 0.01})
    r = run_cli(["analyze", "--top", "m", "--format", "json", "--probs", probs,
                 write(tmp_path, "m.v", STICKY)])
    assert r.returncode == 2
    (secret,) = json.loads(r.stdout)["secrets"]
    assert secret["class"] == "leak"
    assert secret["leakage_bits"] >= exact > 0.0


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


def last_bit_chain(n):
    """``w[i+1] = w[i] ^ k[i]`` with only ``w[n]`` observed: one chain n deep."""
    return (f"module m(High input [{n - 1}:0] k, output y);\nwire [{n}:0] w;\n"
            "assign w[0] = 1'b0;\ngenvar i;\ngenerate\n"
            f"for (i = 0; i < {n}; i = i + 1) begin\nassign w[i+1] = w[i] ^ k[i];\nend\n"
            f"endgenerate\nassign y = w[{n}];\nendmodule\n")


def case_arms(n):
    """A ``case`` of n arms: its value is a ternary chain n deep."""
    arms = "".join(f"{i}: y = k ^ 8'd{i % 256};\n" for i in range(n))
    return ("module m(High input [7:0] k, input [11:0] sel, output reg [7:0] y);\n"
            f"always @* begin\ncase (sel)\n{arms}default: y = 8'd0;\nendcase\nend\n"
            "endmodule\n")


def nested_selects(n):
    """``k[k[...k[0]...]]``, n selects deep."""
    return ("module m(High input [3:0] k, output y);\nassign y = "
            + "k[" * n + "0" + "]" * n + ";\nendmodule\n")


# The bit-blaster takes one frame per expression level, and the parser two
# per parenthesis and three per nested select, alike on every supported
# Python version, so these sizes get a verdict on each.
@pytest.mark.parametrize("top, make", [
    ("m", lambda _mp: last_bit_chain(250)),
    ("chain", lambda mp: reconvergent_chain(180, mp)),
    ("m", lambda _mp: case_arms(700)),
    ("m", lambda _mp: long_xor(700)),
    ("m", lambda _mp: nested_parentheses(350)),
    ("m", lambda _mp: nested_selects(280)),
], ids=["last-bit-chain-250", "chain-180", "case-700", "xor-700", "parentheses-350",
        "selects-280"])
def test_deep_designs_get_a_verdict(tmp_path, capsys, monkeypatch, top, make):
    src = write(tmp_path, "deep.v", make(monkeypatch))
    assert main(["analyze", "--top", top, "--format", "json", src]) in (0, 1, 2)
    assert json.loads(capsys.readouterr().out)["design"]["top"] == top


# Each fails in a different recursive walker: bit-blasting, the parser,
# and elaboration's ``resolve``.
@pytest.mark.parametrize("top, make", [
    ("chain", lambda mp: reconvergent_chain(600, mp)),
    ("m", lambda _mp: nested_parentheses(600)),
    ("m", lambda _mp: long_xor(1200)),
], ids=["chain-600", "parentheses-600", "xor-1200"])
def test_too_deep_design_is_an_error(tmp_path, capsys, monkeypatch, top, make):
    src = write(tmp_path, "deep.v", make(monkeypatch))
    assert main(["analyze", "--top", top, "--format", "json", src]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qflow: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    with pytest.raises(DesignTooDeep):
        analyze(Config(files=[src], top=top))


@pytest.mark.parametrize("op", ["<", "=="])
def test_wide_comparator_gets_a_verdict_with_dumps(tmp_path, capsys, op):
    # ``<`` is two DAG levels per bit: 2,048, past the default recursion limit
    src = write(tmp_path, "cmp.v", "module cmp(input [1023:0] a, // qflow: high\n"
                f"input [1023:0] b,\noutput y);\nassign y = a {op} b;\nendmodule\n")
    code = main(["analyze", "--top", "cmp", "--dump-trees", "--dump-channels",
                 "--format", "json", src])
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    assert err.startswith("y[0] = ") and "c0 root=y[0]" in err


@pytest.mark.parametrize("probs,message", [
    ("i[7] = 0.9\n", "qflow: error: unknown signal: i[7]\n"),
    ("o = 0.9\n", "qflow: error: input probability given for non-input signal: o\n"),
    ("o[1] = 0.9\n", "qflow: error: input probability given for non-input signal: o\n"),
], ids=["bit_outside_width", "non_input_net", "non_input_bit"])
def test_probability_entry_must_name_an_input_bit(tmp_path, capsys, probs, message):
    args = ["analyze", "--top", "example", "--probs", write(tmp_path, "p.txt", probs),
            corpus.path("example.v")]
    assert main(args) == 3
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("bits", ["1", "0", "-3"])
def test_oracle_diff_rejects_max_bits_below_two(capsys, bits):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-diff", "--max-bits", bits, "--count", "1"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: qflow")
    assert err.endswith("qflow: error: argument --max-bits: must be at least 2\n")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_oracle_diff_rejects_count_below_one(capsys, count):
    # a run over no circuit would print "0 circuits, 0 violations" and pass
    with pytest.raises(SystemExit) as exc:
        main(["oracle-diff", "--count", count])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: qflow")
    assert err.endswith("qflow: error: argument --count: must be at least 1\n")


def test_oracle_diff_script_rejects_count_below_one():
    script = Path(__file__).resolve().parent.parent / "scripts" / "oracle_diff.py"
    env = dict(os.environ, PYTHONPATH=str(Path(qflow.__file__).resolve().parent.parent))
    r = subprocess.run([sys.executable, str(script), "--count", "0"],
                       capture_output=True, env=env)
    assert r.returncode == 2  # argparse's usage error
    assert b"Traceback" not in r.stderr
    assert r.stderr.endswith(b"error: argument --count: must be at least 1\n")


@pytest.mark.parametrize("seeds", ["", "1,,2", "1,x"])
def test_oracle_diff_script_rejects_a_bad_seed_list(seeds):
    # the whole list is parsed before seed 1 runs: no output, a usage error
    script = Path(__file__).resolve().parent.parent / "scripts" / "oracle_diff.py"
    env = dict(os.environ, PYTHONPATH=str(Path(qflow.__file__).resolve().parent.parent))
    r = subprocess.run([sys.executable, str(script), "--seeds", seeds, "--count", "1"],
                       capture_output=True, env=env)
    assert r.returncode == 2  # argparse's usage error
    assert r.stdout == b""
    assert b"Traceback" not in r.stderr
    assert r.stderr.endswith(b"error: argument --seeds: not a comma-separated list "
                             b"of integers: " + repr(seeds).encode() + b"\n")


@pytest.mark.parametrize("value", ["1e", ".", "+-", "1e-"])
def test_probability_file_value_float_rejects(tmp_path, capsys, value):
    probs = write(tmp_path, "p.txt", f"# per-net\ni = {value}\n")
    args = ["analyze", "--top", "example", "--probs", probs, corpus.path("example.v")]
    assert main(args) == 3
    assert capsys.readouterr().err == (
        f"qflow: error: probability file line 2: cannot parse 'i = {value}'\n")


def test_reversed_part_select_is_an_error(tmp_path):
    # k[0:3] on the left of an assign is a width mismatch; on the right it
    # used to blast to no bits, zero-extended, and report "0 leak, 0 warn, 4 ok"
    src = write(tmp_path, "m.v", "module m(input [3:0] k, // qflow: high\n"
                "output [3:0] y);\nassign y = k[0:3];\nendmodule\n")
    r = run_cli(["analyze", "--top", "m", src])
    assert r.returncode == 3
    assert r.stderr == b"qflow: error: width mismatch at k: reversed range [0:3]\n"


ZERO_WIDTH = "module m(input [3:0] k, // qflow: high\ninput [3:0] a,\noutput [3:0] y);\n"


@pytest.mark.parametrize("expr", ["|{0{k}}", "^{0{k}}", "!{0{k}}", "{0{k}} && k",
                                  "{0{k}} == {0{a}}", "{0{k}} ? k : 4'd0"])
def test_zero_width_condition_or_reduction_is_an_error(tmp_path, capsys, expr):
    # IEEE 1364-2005 allows a zero replication only inside a wider concatenation
    src = write(tmp_path, "m.v", f"{ZERO_WIDTH}assign y = {expr};\nendmodule\n")
    assert main(["analyze", "--top", "m", src]) == 3
    assert capsys.readouterr().err == "qflow: error: unsupported construct: zero-width operand\n"


@pytest.mark.parametrize("expr", ["{k, {0{a}}}", "{0{k}} + k", "{0{k}}"])
def test_zero_width_value_gets_a_verdict(tmp_path, capsys, expr):
    src = write(tmp_path, "m.v", f"{ZERO_WIDTH}assign y = {expr};\nendmodule\n")
    assert main(["analyze", "--top", "m", src]) in (0, 1, 2)
    assert capsys.readouterr().err == ""


def _limit_memory():
    # an unchecked width would allocate gigabytes: fail fast instead
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("decl, expr, message", [
    ("[99999999:0] k", "k[0]", "net of 100000000 bits (at most 65536) at m.k"),
    ("[3:0] k", "^k[100000000:0]", "part-select of 100000001 bits (at most 65536)"),
    ("[3:0] k", "^{100000000{k}}", "replication of 400000000 bits (at most 65536)"),
    ("[3:0] k", "^(k ^ 100000000'd0)", "literal of 100000000 bits (at most 65536) at "),
    ("[3:0] k", "^{-1{k}}", "replication count -1"),
], ids=["net", "part_select", "replication", "literal", "negative_count"])
def test_oversize_width_is_a_typed_error(tmp_path, decl, expr, message):
    src = write(tmp_path, "m.v", f"module m(input {decl}, // qflow: high\n"
                f"output y);\nassign y = {expr};\nendmodule\n")
    r = run_cli(["analyze", "--top", "m", src], preexec_fn=_limit_memory, timeout=60)
    assert r.returncode == 3
    assert r.stderr.startswith(b"qflow: error: unsupported construct: " + message.encode())
    assert r.stderr.count(b"\n") == 1


def test_import_loads_no_dataclasses():
    # building the record classes with dataclasses took a quarter of the import;
    # modules loaded before qflow, by ``site`` for one, do not count
    code = ("import sys\nbefore = set(sys.modules)\nimport qflow.cli\n"
            "print(sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(qflow.__file__).resolve().parent.parent))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                       text=True, check=True)
    assert "'qflow.cli'" in r.stdout and "'dataclasses'" not in r.stdout


def test_crash_exits_with_the_error_code(tmp_path, capsys, monkeypatch):
    """An unexpected exception is an error (3) with its traceback, never the
    warnings code 1 that Python's own exit would give it."""
    def crash(config):
        raise RuntimeError("stage crashed")
    monkeypatch.setattr(qflow.cli, "analyze", crash)
    assert main(["analyze", "--top", "m", write(tmp_path, "m.v", SAFE)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("RuntimeError: stage crashed\n")


def test_misplaced_high_comment_exits_with_an_error(tmp_path, capsys):
    src = write(tmp_path, "m.v", "module m(k, y);\n// qflow: high\ninput [3:0] k;\n"
                "output y;\nassign y = ^k;\nendmodule\n")
    assert main(["analyze", "--top", "m", src]) == 3
    assert capsys.readouterr().err == (f"qflow: error: {src}:2:1: '// qflow: high' trails "
                                       "no input declaration\n")
