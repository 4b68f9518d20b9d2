"""The sweep drivers: `scripts/sweep_probability.py`, `scripts/sweep_merge_bound.py`
and `qflow calibrate --sweep`.  Their stdout is pinned, each parses its
design once per sweep, and a bad argument is a usage error, not a traceback."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import qflow
from qflow import corpus, pipeline
from qflow.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SWEEP_PROBABILITY = """p_high,total_leakage_bits
0.000,0.000000
0.050,4.736037
0.100,9.728198
0.150,15.005776
0.200,20.603398
0.250,26.562400
0.300,32.932683
0.350,39.775256
0.400,47.165798
0.450,55.199774
0.500,64.000000
0.550,55.199774
0.600,47.165798
0.650,39.775256
0.700,32.932683
0.750,26.562400
0.800,20.603398
0.850,15.005776
0.900,9.728198
0.950,4.736037
1.000,0.000000
"""
SWEEP_MERGE_BOUND = """merge_bound,mean_leakage_bits,max_leakage_bits
1,0.896484,1.000000
2,0.896484,1.000000
3,0.820190,1.000000
4,0.797974,1.000000
5,0.797974,1.000000
"""
CALIBRATE_SWEEP = """max_channel_inputs      min (warn)   mean (detect)
                 1     0.574218750     0.896484375
                 2     0.574218750     0.896484375
                 3     0.298828125     0.820190430
                 4     0.249023438     0.797973633
                 5     0.249023438     0.797973633
"""


def run_script(monkeypatch, name, *args):
    """Run a script's ``main`` in this process, as ``python3 scripts/NAME ARGS``."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def calibrate_sweep(monkeypatch):
    assert main(["calibrate", "--sweep", "--top", "toy_spn", corpus.path("toy_spn.v")]) == 0


DRIVERS = {
    "sweep_probability": (lambda mp: run_script(mp, "sweep_probability.py"), SWEEP_PROBABILITY),
    "sweep_merge_bound": (lambda mp: run_script(mp, "sweep_merge_bound.py"), SWEEP_MERGE_BOUND),
    "calibrate_sweep": (calibrate_sweep, CALIBRATE_SWEEP),
}


@pytest.mark.parametrize("driver", DRIVERS)
def test_sweep_stdout_is_pinned(monkeypatch, capsys, driver):
    run, expected = DRIVERS[driver]
    run(monkeypatch)
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("driver", DRIVERS)
def test_a_sweep_parses_its_design_once(monkeypatch, capsys, driver):
    units = []
    parse = pipeline.parse
    monkeypatch.setattr(pipeline, "parse", lambda unit: units.append(unit) or parse(unit))
    DRIVERS[driver][0](monkeypatch)
    assert len(units) == 1


def run_script_process(name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(qflow.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, env=env)


@pytest.mark.parametrize("name,args,message", [
    ("sweep_probability.py", ("--steps", "0"), b"argument --steps: must be at least 1"),
    ("sweep_probability.py", ("--steps", "-1"), b"argument --steps: must be at least 1"),
    ("sweep_merge_bound.py", ("--max-bound", "0"), b"argument --max-bound: must be in [1, 16]"),
    ("sweep_merge_bound.py", ("--max-bound", "17"), b"argument --max-bound: must be in [1, 16]"),
], ids=["steps-0", "steps-minus-1", "max-bound-0", "max-bound-17"])
def test_sweep_script_rejects_a_bad_argument(name, args, message):
    r = run_script_process(name, *args)
    assert r.returncode == 2  # argparse's usage error
    assert r.stdout == b""
    assert b"Traceback" not in r.stderr
    assert r.stderr.endswith(b"error: " + message + b"\n")


def test_merge_bound_sweep_of_a_design_with_no_secret_bit():
    # the Trojan benchmarks mark their key only with --high, which this script lacks
    r = run_script_process("sweep_merge_bound.py", "--design", "aes_t2100.v", "--top", "TSC")
    assert r.returncode == 1
    assert r.stdout == b""
    assert r.stderr == b"sweep_merge_bound.py: error: TSC in aes_t2100.v has no secret bit\n"


@pytest.mark.parametrize("name", ["sweep_merge_bound.py", "sweep_probability.py"])
def test_sweep_of_a_missing_design_is_one_error_line(name):
    r = run_script_process(name, "--design", "nope.v")
    assert r.returncode == 1
    assert r.stdout == b""
    assert r.stderr == name.encode() + b": error: nope.v: No such file or directory\n"
