"""Bundled Verilog designs used by the tests and example scripts."""

from importlib import resources


def read(name: str) -> str:
    """Text of a bundled design, e.g. read('example.v')."""
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")


def path(name: str) -> str:
    """Filesystem path of a bundled design (packages installed unzipped)."""
    return str(resources.files(__package__).joinpath(name))
