"""Import qflow from this checkout, and time one set-up of the benchmark.

``load_qflow`` is the import every benchmark run uses.  Run as a script,
this module times one set-up in a fresh interpreter, so that the import
pays for every module qflow needs, then times the reference loop of
``calibrate.py``, and prints both in seconds:

    python3 bench/qflow_setup.py WORKLOAD SEED

A set-up is importing qflow and generating the workload's Verilog text
from its seed.
"""

import time

START = time.perf_counter()  # as a script: before any other import

import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("pipeline", "oracle", "frontend.lexer")


class BenchError(Exception):
    """The checkout cannot be benchmarked (for instance, no qflow source)."""


def load_qflow():
    """The qflow modules the benchmark calls, imported from this checkout's ``src``."""
    if not (SRC / "qflow" / "__init__.py").is_file():
        raise BenchError(f"no qflow package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {n: importlib.import_module(f"qflow.{n}") for n in MODULES}
    if not Path(mods["pipeline"].__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"qflow imported from outside {SRC}")
    return mods


def main(workload, seed):
    import families

    load_qflow()
    families.workload_pool(workload, int(seed))
    seconds = time.perf_counter() - START
    import calibrate

    print(seconds, calibrate.reference_seconds())


if __name__ == "__main__":
    main(*sys.argv[1:])
