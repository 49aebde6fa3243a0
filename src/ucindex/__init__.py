"""Integral correlation indicators over enterprise process time series.

The package models an enterprise as a multivariate process series, overlays
a competency-compliance mapping under a resource budget, computes
lag-window Gram-correlation matrices and per-period integral indicators,
and compares the basic management mode against the universal-competencies
mode. See the README for the CLI and file formats.

The names below are the library surface; everything else is importable
from its submodule (``ucindex.io_formats``, ``ucindex.report``, ...).
"""

from ._version import __version__
from .competencies import (
    ComplianceMatrix,
    DerivationRule,
    ResourceBudget,
    check_budget,
    derive_mode_series,
)
from .errors import (
    BadWindow,
    ConfigMismatch,
    DimensionMismatch,
    DuplicateId,
    GapInIds,
    InvalidScenario,
    NegativeIndicator,
    NonBinaryEntry,
    NonFiniteValue,
    NonMonotonicTime,
    ParseError,
    RaggedRow,
    SeriesTooShort,
    UcindexError,
    WindowOutOfRange,
)
from .indicator import (
    WindowConfig,
    compare_modes,
    gram_matrix,
    gram_matrix_bruteforce,
    indicator_series,
    ingest_precomputed,
    scalar_per_period,
)
from .io_formats import default_catalog, load_mode_fixture, read_series_csv
from .process_model import ProcessSeries
from .report import emit_report
from .scenario import generate_series, reference_scenario

__all__ = [
    "__version__",
    # model, competencies and indicators
    "ProcessSeries",
    "ComplianceMatrix",
    "ResourceBudget",
    "DerivationRule",
    "check_budget",
    "default_catalog",
    "derive_mode_series",
    "WindowConfig",
    "gram_matrix",
    "gram_matrix_bruteforce",
    "indicator_series",
    "scalar_per_period",
    "ingest_precomputed",
    "compare_modes",
    # scenario, files and report
    "generate_series",
    "reference_scenario",
    "read_series_csv",
    "load_mode_fixture",
    "emit_report",
    # errors
    "UcindexError",
    "DimensionMismatch",
    "NonFiniteValue",
    "WindowOutOfRange",
    "BadWindow",
    "SeriesTooShort",
    "ConfigMismatch",
    "NegativeIndicator",
    "InvalidScenario",
    "ParseError",
    "NonMonotonicTime",
    "RaggedRow",
    "NonBinaryEntry",
    "DuplicateId",
    "GapInIds",
]
