"""Flat-file formats: series CSV, compliance CSV, costs CSV, scalar CSV, scenario JSON, fixture.

All files are UTF-8 with LF line endings and a ``.`` decimal separator
regardless of locale. Lines starting with ``#`` are metadata comments and
are skipped by every reader. Numeric series values are written with
``repr`` precision so a write/read round trip reproduces them exactly.
Writers go through a write-temp-then-rename step so a crash never leaves a
half-written file behind.

One table reader parses every CSV format, with line-numbered errors.
Values must be finite plain decimals: ``nan``, ``inf``, overflowing
exponents and ``_`` digit grouping are rejected.

Formats:

* ``series.csv`` -- header ``t,<var1>,...,<varn>``; one row per period with
  t consecutive from 1.
* ``compliance.csv`` -- header ``competency_id,<p1>,...,<pn>``; one row per
  competency (ids consecutive from 1) of literal ``0``/``1`` tokens.
* ``costs.csv`` -- header ``competency_id,cost``; one row per competency.
* ``catalog.tsv`` -- ``id<TAB>description`` (see competencies module).
* ``scenario.json`` -- flat keys t_max, n, seed, base_level, noise_scale,
  event_effect plus an ``events`` list of {period, kind, role, count}.
* scalar CSV -- header exactly ``t,basic,universal_competencies``;
  per-period indicator scalars, as written by the plot-data emitter.
"""

from __future__ import annotations

import dataclasses
import importlib.resources
import itertools
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .competencies import ComplianceMatrix
from .errors import (
    NonBinaryEntry,
    NonFiniteValue,
    NonMonotonicTime,
    ParseError,
    RaggedRow,
)
from .process_model import ProcessSeries
from .scenario import Scenario, ScenarioEvent

_FIXTURE_RESOURCE = "mode_comparison_57.csv"

_SCENARIO_KEYS = {f.name for f in dataclasses.fields(Scenario)}
_EVENT_KEYS = {f.name for f in dataclasses.fields(ScenarioEvent)}


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to ``path`` via a unique temporary file and an atomic rename.

    The temporary file sits in the target's directory, so concurrent writers
    never share it. If the write fails it is removed and the target is left
    as it was. An OSError names ``path``, not the temporary file.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            # mkstemp creates the file private (0600); give it the mode a plain
            # open() would. Reading the umask means setting it, so set it back.
            umask = os.umask(0o022)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _read_text(path) -> str:
    """Decode a file (a path or a package resource) as UTF-8."""
    if isinstance(path, str):
        path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _data_lines(text: str, meta: dict[str, str] | None = None) -> Iterator[tuple[int, str]]:
    """Non-blank, non-comment lines with their 1-based physical line numbers.

    ``# key=value`` comments are collected into ``meta`` when it is given.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            if meta is not None:
                key, sep, value = line.lstrip("# ").partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
        elif line:
            yield lineno, raw


def _floats(tokens: list[str], lineno: int) -> list[float]:
    try:
        return list(map(float, tokens))
    except ValueError as exc:  # the message quotes the bad token
        raise ParseError(str(exc), line=lineno) from None


def _binary(tokens: list[str], lineno: int) -> list[int]:
    row = [t.strip() for t in tokens]
    bad = next((t for t in row if t not in ("0", "1")), None)
    if bad is not None:
        raise NonBinaryEntry(f"entry {bad!r} is not a literal 0 or 1", line=lineno)
    return list(map(int, row))


class _Table(NamedTuple):
    names: tuple[str, ...]  # value column names, in header order
    first: int  # key of the first data row
    cells: np.ndarray  # rows x len(names)
    meta: dict[str, str]  # ``# key=value`` comments


def _read_table(
    path,
    key: str,
    columns: tuple[str, ...] | None = None,
    cell: Callable[[list[str], int], Iterable[float]] = _floats,
    first: int | None = 1,
) -> _Table:
    """Read a CSV table: header ``key,<value columns>``, then one row per key.

    ``columns`` names the value columns exactly; None accepts any nonempty
    list. Keys are integers consecutive from ``first`` (None: from whatever
    the first row holds). ``cell`` parses one row's value tokens, given the
    line number for its errors; the parsed cells must be finite.
    """
    text = _read_text(path)
    meta: dict[str, str] = {}
    lines = _data_lines(text, meta)
    header_lineno, header = next(lines, (0, ""))
    if not header:
        raise ParseError(f"{path}: no header row found")
    names = tuple(f.strip() for f in header.split(","))
    if names[0] != key or len(names) < 2 or columns is not None and names[1:] != columns:
        spec = ",".join(columns) if columns else "<name1>,...,<namen>"
        raise ParseError(f"header must be '{key},{spec}'", line=header_lineno)
    width = len(names)
    flat: list[float] = []
    rows = 0
    for lineno, raw in lines:
        parts = raw.split(",")
        if len(parts) != width:
            raise RaggedRow(f"expected {width} fields, got {len(parts)}", line=lineno)
        if "_" in raw or not raw.isascii():
            raise ParseError("only plain ASCII numbers are allowed, without '_'", line=lineno)
        try:
            k = int(parts[0])
        except ValueError:
            raise ParseError(f"{key} {parts[0]!r} is not an integer", line=lineno) from None
        if first is None:
            first = k
        if k != first + rows:
            raise (NonMonotonicTime if key == "t" else ParseError)(
                f"expected {key} {first + rows}, got {k} (must be consecutive from {first})",
                line=lineno,
            )
        flat.extend(cell(parts[1:], lineno))
        rows += 1
    if not rows:
        raise ParseError(f"{path}: no data rows")
    cells = np.array(flat, dtype=float).reshape(rows, width - 1)
    finite = np.isfinite(cells)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), width - 1)
        lineno, raw = next(itertools.islice(_data_lines(text), row + 1, None))
        raise NonFiniteValue(
            f"line {lineno}: value {raw.split(',')[col + 1]!r} is not a finite number"
        )
    return _Table(names[1:], first, cells, meta)


def read_series_csv(path: str | Path) -> ProcessSeries:
    """Read a process series file (header ``t,<var1>,...,<varn>``, t from 1).

    Raises
    ------
    ParseError
        Missing/invalid header or unparseable number (with line number).
    NonMonotonicTime
        Period column is not 1, 2, 3, ... in order.
    RaggedRow
        A row's field count differs from the header's.
    NonFiniteValue
        A value is NaN or infinite (with line number).
    """
    table = _read_table(path, "t")
    # rows are periods; a series stores variables x periods
    return ProcessSeries(values=table.cells.T, variable_labels=table.names)


def write_series_csv(
    path: str | Path,
    series: ProcessSeries,
    metadata: dict[str, str] | None = None,
) -> None:
    """Write a process series at full (round-trip exact) precision.

    ``metadata`` entries become leading ``# key=value`` comment lines in the
    given order.
    """
    for label in series.variable_labels:
        if "," in label or "\n" in label or "#" in label:
            raise ParseError(f"variable label {label!r} contains a reserved character")
    out: list[str] = []
    for key, value in (metadata or {}).items():
        out.append(f"# {key}={value}")
    out.append("t," + ",".join(series.variable_labels))
    for t in range(1, series.t_max + 1):
        row = series.values[:, t - 1]
        out.append(f"{t}," + ",".join(repr(float(x)) for x in row))
    atomic_write_text(path, "\n".join(out) + "\n")


def read_compliance_csv(path: str | Path) -> ComplianceMatrix:
    """Read a 0/1 compliance matrix (header ``competency_id,<p1>,...,<pn>``).

    Tokens must be exactly ``0`` or ``1``; anything else (including ``0.0``)
    is rejected.

    Raises
    ------
    ParseError, RaggedRow, NonBinaryEntry
    """
    return ComplianceMatrix(entries=_read_table(path, "competency_id", cell=_binary).cells)


def read_costs_csv(path: str | Path) -> tuple[float, ...]:
    """Read per-competency activation costs (header ``competency_id,cost``)."""
    return tuple(_read_table(path, "competency_id", ("cost",)).cells[:, 0].tolist())


def read_scalar_csv(path: str | Path) -> tuple[int, np.ndarray, np.ndarray]:
    """Read per-period scalar pairs (header exactly ``t,basic,universal_competencies``).

    Returns the first period and the two scalar columns. Periods must be
    consecutive; they need not start at 1 (reports may begin after warmup).
    """
    table = _read_table(path, "t", ("basic", "universal_competencies"), first=None)
    return table.first, table.cells[:, 0], table.cells[:, 1]


def _object(value, where: str, keys: set[str], required: set[str]) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object")
    unknown = set(value) - keys
    if unknown:
        raise ParseError(f"{where} has unknown keys {sorted(unknown)}")
    missing = required - set(value)
    if missing:
        raise ParseError(f"{where} is missing keys {sorted(missing)}")
    return value


def _integer(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def read_scenario_json(path: str | Path) -> Scenario:
    """Read a scenario document; unknown keys are rejected to catch typos.

    A value of the wrong type, such as a non-integer count or an unknown
    event kind, raises ParseError; a well-typed scenario that breaks its own
    constraints raises InvalidScenario.
    """
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    doc = _object(doc, str(path), _SCENARIO_KEYS, {"t_max", "n", "seed"})
    entries = doc.get("events", [])
    if not isinstance(entries, list):
        raise ParseError(f"{path}: events must be a list")
    try:
        events = []
        for idx, entry in enumerate(entries):
            entry = _object(entry, f"{path}: events[{idx}]", _EVENT_KEYS, _EVENT_KEYS)
            events.append(
                ScenarioEvent(
                    period=_integer(entry, "period"),
                    kind=entry["kind"],
                    role=str(entry["role"]),
                    count=_integer(entry, "count"),
                )
            )
        return Scenario(
            t_max=_integer(doc, "t_max"),
            n=_integer(doc, "n"),
            seed=_integer(doc, "seed"),
            base_level=float(doc.get("base_level", 100.0)),
            noise_scale=float(doc.get("noise_scale", 5.0)),
            event_effect=float(doc.get("event_effect", 1.25)),
            events=tuple(events),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_scenario_json(path: str | Path, scenario: Scenario) -> None:
    """Write a scenario document; its keys are the Scenario and ScenarioEvent fields."""
    atomic_write_text(path, json.dumps(dataclasses.asdict(scenario), indent=2) + "\n")


@dataclasses.dataclass(frozen=True)
class ModeFixture:
    """The shipped 57-period reference table of per-period indicator scalars.

    Values are stored as printed at two decimals, including the per-row
    delta column with its published rounding artifacts, so comparisons
    against this fixture use a +/-0.02 band. ``declared totals`` are the
    table's own footer values.
    """

    basic: tuple[float, ...]
    competency: tuple[float, ...]
    delta_printed: tuple[float, ...]
    declared_total_basic: float
    declared_total_competency: float
    declared_total_delta: float

    @property
    def periods(self) -> range:
        """The table's periods, consecutive from 1."""
        return range(1, len(self.basic) + 1)


def load_mode_fixture(path: str | Path | None = None) -> ModeFixture:
    """Load the reference mode-comparison fixture (the shipped one by default).

    Header ``t,basic,universal_competencies,delta``, t from 1; the declared
    totals come from ``# declared_total_<basic|competency|delta>=`` comments.
    """
    if path is None:
        path = importlib.resources.files("ucindex") / "data" / _FIXTURE_RESOURCE
    table = _read_table(path, "t", ("basic", "universal_competencies", "delta"))
    try:
        declared = [float(table.meta[f"declared_total_{name}"])
                    for name in ("basic", "competency", "delta")]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"fixture lacks a numeric '# declared_total_...=' comment: {exc}") from None
    if not np.isfinite(declared).all():
        raise NonFiniteValue(f"fixture declares non-finite totals {declared}")
    basic, competency, delta = (tuple(column) for column in table.cells.T.tolist())
    return ModeFixture(
        basic=basic,
        competency=competency,
        delta_printed=delta,
        declared_total_basic=declared[0],
        declared_total_competency=declared[1],
        declared_total_delta=declared[2],
    )
