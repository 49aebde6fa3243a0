"""Mode-comparison report and plot-data emitters.

Reports are deterministic: identical comparisons render to byte-identical
documents. Numbers in the table body are printed at two decimals; the CSV
variant repeats every value at full round-trip precision in extra columns.
A metadata block (fixed key order, no timestamps unless explicitly stamped)
is appended as comment lines so a report is self-describing. Outputs are
rendered in text chunks, a slice of rows at a time, never as one text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterator

from .indicator import INDICATOR_UNIT, ModeComparison, WindowConfig
from .io_formats import Writer, atomic_write, line_chunks, metadata_lines, numbered_rows


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
    metadata: tuple[str, ...]  # the ``# key=value`` lines


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
    return ReportTable(comparison, tuple(metadata_lines(metadata)))


def _fmt2(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def render_report(table: ReportTable, fmt: ReportFormat | str = ReportFormat.TABLE) -> str:
    """Render a report table to text; see module docstring for the two formats."""
    return "".join(report_chunks(table, fmt))


def report_chunks(table: ReportTable,
                  fmt: ReportFormat | str = ReportFormat.TABLE) -> Iterator[str]:
    """The text of :func:`render_report`, in :func:`~ucindex.io_formats.line_chunks`."""
    render = _render_csv if ReportFormat(fmt) is ReportFormat.CSV else _render_text
    return line_chunks(itertools.chain(render(table.comparison), table.metadata))


def _rows(c: ModeComparison, total: str) -> Iterator[tuple]:
    """Per-period (t, basic, competency, delta) rows as Python floats, then the ``total`` row."""
    yield from numbered_rows(c.periods[0], c.basic_scalars, c.competency_scalars,
                             c.delta_per_period)
    yield total, c.basic.total, c.competency.total, c.delta_total


def _render_text(c: ModeComparison) -> Iterator[str]:
    # A column's widest cell is its header, its total or the cell of its smallest or largest
    # value: correctly rounded .2f is monotone, and -0.00 printed as 0.00 only shortens a cell.
    columns = (c.basic_scalars, c.competency_scalars, c.delta_per_period)
    low = (str(c.periods[0]), *(_fmt2(float(a.min())) for a in columns))
    high = (str(c.periods[-1]), *(_fmt2(float(a.max())) for a in columns))
    footer = ("Total", *map(_fmt2, (c.basic.total, c.competency.total, c.delta_total)))
    header = ("t", "V_basic", "V_universal", "dV")
    widths = [max(map(len, cells)) for cells in zip(header, low, high, footer)]
    rows = ((str(t), *map(_fmt2, values)) for t, *values in _rows(c, "Total"))
    for row in itertools.chain([header], rows):
        yield "  ".join(cell.rjust(width) for cell, width in zip(row, widths))


def _render_csv(c: ModeComparison) -> Iterator[str]:
    yield "t,basic,universal_competencies,delta,basic_full,universal_competencies_full,delta_full"
    for t, b, m, d in _rows(c, "total"):
        yield f"{t},{_fmt2(b)},{_fmt2(m)},{_fmt2(d)},{b!r},{m!r},{d!r}"


def emit_report(
    comparison: ModeComparison,
    fmt: ReportFormat | str = ReportFormat.TABLE,
    derivation: str | None = None,
    stamp: bool = False,
) -> str:
    """Build and render the comparison report in one step."""
    return render_report(build_report_table(comparison, derivation=derivation, stamp=stamp), fmt)


def emit_plot_data(comparison: ModeComparison, path: str | Path,
                   write: Writer = atomic_write) -> None:
    """Write per-period scalars as a bare three-column full-precision CSV.

    Output is header ``t,basic,universal_competencies`` plus one row per
    defined period; byte-identical for identical input, and readable back
    through the scalar-CSV reader for re-reporting. ``write`` may be the
    writer of a :func:`~ucindex.io_formats.staged_writes` block.
    """
    c = comparison
    rows = numbered_rows(c.periods[0], c.basic_scalars, c.competency_scalars)
    lines = (f"{t},{b!r},{m!r}" for t, b, m in rows)
    write(path, line_chunks(itertools.chain(["t,basic,universal_competencies"], lines)))
