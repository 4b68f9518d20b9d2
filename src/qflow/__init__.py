"""Static quantitative information-flow analysis for Verilog designs."""

from .bitgraph import bit_blast
from .channelizer import merge
from .errors import QFlowError
from .frontend import SourceUnit, elaborate, extract_labels, parse
from .oracle import (
    differential_run,
    exact_multiplicative_leakage,
    exact_posterior_vulnerability,
    exact_prior_vulnerability,
    flatten_forest,
)
from .pipeline import Analysis, Config, analyze, build, evaluate, render_report
from .qif_engine import (
    accumulate_totals,
    channel_prob_pbv,
    compute_dependencies,
    output_contributions,
    propagate,
    source_leakage,
)
from .report import Report, Thresholds, calibrate_thresholds, classify

__version__ = "0.3.0"

__all__ = [
    "Analysis",
    "Config",
    "QFlowError",
    "Report",
    "SourceUnit",
    "Thresholds",
    "accumulate_totals",
    "analyze",
    "bit_blast",
    "build",
    "calibrate_thresholds",
    "channel_prob_pbv",
    "classify",
    "compute_dependencies",
    "differential_run",
    "elaborate",
    "evaluate",
    "exact_multiplicative_leakage",
    "exact_posterior_vulnerability",
    "exact_prior_vulnerability",
    "extract_labels",
    "flatten_forest",
    "merge",
    "output_contributions",
    "parse",
    "propagate",
    "render_report",
    "source_leakage",
]
