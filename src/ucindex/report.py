"""Mode-comparison report and plot-data emitters.

Reports are deterministic: identical comparisons render to byte-identical
documents. Numbers in the table body are printed at two decimals; the CSV
variant repeats every value at full round-trip precision in extra columns.
A metadata block (fixed key order, no timestamps unless explicitly stamped)
is appended as comment lines so a report is self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from ._version import __version__
from .indicator import INDICATOR_UNIT, ModeComparison, WindowConfig
from .io_formats import atomic_write_text


class ReportFormat(str, Enum):
    TABLE = "table"
    CSV = "csv"


@dataclass(frozen=True)
class ReportTable:
    """Renderable mode-comparison table: a comparison plus its metadata.

    The renderers read the per-period rows and the totals footer from the
    comparison at full precision; rounding happens only at render time.
    """

    comparison: ModeComparison
    metadata: tuple[tuple[str, str], ...]


def window_metadata(config: WindowConfig | None) -> list[tuple[str, str]]:
    """The window metadata entries of an output; ``config`` is None for precomputed scalars."""
    if config is None:
        return [("window_k", "none"), ("standardize", "n/a"), ("warmup", "n/a")]
    return [
        ("window_k", str(config.k)),
        ("standardize", "true" if config.standardize else "false"),
        ("warmup", config.warmup.value),
    ]


def build_report_table(
    comparison: ModeComparison,
    derivation: str | None = None,
    stamp: bool = False,
) -> ReportTable:
    """Assemble the report table for a comparison.

    ``derivation`` names the rule used to derive the competency series from
    a compliance matrix, when one was used; it is echoed in the metadata so
    the report is auditable.
    """
    first_defined = comparison.periods[0]
    excluded = "none" if first_defined <= 1 else f"1..{first_defined - 1}"

    metadata = [
        ("tool", f"ucindex {__version__}"),
        ("mode_basic", comparison.basic.mode_label),
        ("mode_competency", comparison.competency.mode_label),
        *window_metadata(comparison.basic.config),
        ("warmup_excluded", excluded),
        ("derivation", derivation if derivation else "none"),
        ("unit", INDICATOR_UNIT),
    ]
    if stamp:
        now = datetime.now(timezone.utc).replace(microsecond=0)
        metadata.append(("generated", now.isoformat()))
    return ReportTable(comparison, tuple(metadata))


def _fmt2(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def render_report(table: ReportTable, fmt: ReportFormat | str = ReportFormat.TABLE) -> str:
    """Render a report table to text; see module docstring for the two formats."""
    fmt = ReportFormat(fmt)
    lines = _render_csv(table) if fmt is ReportFormat.CSV else _render_text(table)
    lines.extend(f"# {key}={value}" for key, value in table.metadata)
    return "\n".join(lines) + "\n"


def _rows(table: ReportTable):
    c = table.comparison
    rows = zip(c.periods, c.basic_scalars.tolist(), c.competency_scalars.tolist(),
               c.delta_per_period.tolist())
    return rows, (c.basic.total, c.competency.total, c.delta_total)


def _render_text(table: ReportTable) -> list[str]:
    rows, totals = _rows(table)
    header = ("t", "V_basic", "V_universal", "dV")
    body = [(str(t), _fmt2(b), _fmt2(c), _fmt2(d)) for t, b, c, d in rows]
    footer = ("Total", *map(_fmt2, totals))
    widths = [
        max(len(header[col]), len(footer[col]), *(len(row[col]) for row in body))
        for col in range(4)
    ]
    lines = ["  ".join(cell.rjust(widths[col]) for col, cell in enumerate(header))]
    for row in body:
        lines.append("  ".join(cell.rjust(widths[col]) for col, cell in enumerate(row)))
    lines.append("  ".join(cell.rjust(widths[col]) for col, cell in enumerate(footer)))
    return lines


def _render_csv(table: ReportTable) -> list[str]:
    rows, (tb, tc, td) = _rows(table)
    lines = [
        "t,basic,universal_competencies,delta,"
        "basic_full,universal_competencies_full,delta_full"
    ]
    for t, b, c, d in rows:
        lines.append(
            f"{t},{_fmt2(b)},{_fmt2(c)},{_fmt2(d)},{b!r},{c!r},{d!r}"
        )
    lines.append(f"total,{_fmt2(tb)},{_fmt2(tc)},{_fmt2(td)},{tb!r},{tc!r},{td!r}")
    return lines


def emit_report(
    comparison: ModeComparison,
    fmt: ReportFormat | str = ReportFormat.TABLE,
    derivation: str | None = None,
    stamp: bool = False,
) -> str:
    """Build and render the comparison report in one step."""
    return render_report(build_report_table(comparison, derivation=derivation, stamp=stamp), fmt)


def emit_plot_data(comparison: ModeComparison, path: str | Path) -> None:
    """Write per-period scalars as a bare three-column full-precision CSV.

    Output is header ``t,basic,universal_competencies`` plus one row per
    defined period; byte-identical for identical input, and readable back
    through the scalar-CSV reader for re-reporting.
    """
    lines = ["t,basic,universal_competencies"]
    for t, b, c in zip(comparison.periods, comparison.basic_scalars, comparison.competency_scalars):
        lines.append(f"{t},{float(b)!r},{float(c)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
