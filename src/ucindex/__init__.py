"""Integral correlation indicators over enterprise process time series.

The package models an enterprise as a multivariate process series, overlays
a competency-compliance mapping under a resource budget, computes
lag-window Gram-correlation matrices and per-period integral indicators,
and compares the basic management mode against the universal-competencies
mode. See the README for the CLI and file formats.

The names in ``_EXPORTS`` are the library surface; ``import ucindex`` loads
each from its submodule (and numpy with it) on first use. Everything else is
importable from its submodule (``ucindex.io_formats``, ``ucindex.report``, ...).
"""

import importlib

from ._version import __version__

_EXPORTS = {
    "process_model": ("ProcessSeries",),
    "competencies": ("ComplianceMatrix", "ResourceBudget", "DerivationRule", "check_budget",
                     "derive_mode_series"),
    "indicator": ("WindowConfig", "gram_matrix", "gram_matrix_bruteforce", "indicator_series",
                  "scalar_per_period", "ingest_precomputed", "compare_modes"),
    "scenario": ("generate_series", "reference_scenario"),
    "io_formats": ("read_series_csv", "load_mode_fixture"),
    "report": ("emit_report",),
    "errors": ("UcindexError", "DimensionMismatch", "NonFiniteValue", "WindowOutOfRange",
               "BadWindow", "SeriesTooShort", "ConfigMismatch", "NegativeIndicator",
               "InvalidScenario", "ParseError", "NonMonotonicTime", "RaggedRow", "NonBinaryEntry"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_HOME]


def __getattr__(name):
    # PEP 562: looked up on every access and not cached, so a name rebound in its submodule is
    # seen here too; a name outside the table (a submodule's name, say) raises AttributeError
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
