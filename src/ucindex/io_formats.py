"""Flat-file formats: series, compliance, costs and scalar CSV, scenario JSON, fixture.

All files are UTF-8 with LF line endings and a ``.`` decimal separator
regardless of locale. Lines starting with ``#`` are metadata comments and
are skipped by every reader. Numeric series values are written with
``repr`` precision so a write/read round trip reproduces them exactly.
Writers go through a write-temp-then-rename step so a crash never leaves a
half-written file behind; ``staged_writes`` extends that to a set of files
that appear together or not at all. A writer takes the text as chunks, one
slice of rows each (``row_chunks``), so no output is ever held whole.

Every reader decodes its file in ``_reading`` (errors name the file), and
one table parser serves every CSV, with errors naming the physical line.
Values must be finite plain decimals (no ``nan``, ``inf``, overflow or
``_`` digit grouping), in data cells and the fixture's declared totals alike. ``metadata_lines`` writes every ``# key=value`` block.

Formats:

* ``series.csv`` -- header ``t,<var1>,...,<varn>``; one row per period with
  t consecutive from 1.
* ``compliance.csv`` -- header ``competency_id,<p1>,...,<pn>``; one row per
  competency (ids consecutive from 1) of literal ``0``/``1`` tokens.
* ``costs.csv`` -- header ``competency_id,cost``; one row per competency.
* ``scenario.json`` -- flat keys t_max, n, seed, base_level, noise_scale,
  event_effect plus an ``events`` list of {period, kind, role, count}.
* scalar CSV -- header exactly ``t,basic,universal_competencies``;
  per-period indicator scalars, as written by the plot-data emitter, with t
  consecutive from any first period >= 1.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import importlib.resources
import itertools
import json
import os
from array import array
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from ._version import __version__
from .competencies import ComplianceMatrix
from .errors import (
    NonBinaryEntry,
    NonFiniteValue,
    NonMonotonicTime,
    ParseError,
    RaggedRow,
    UcindexError,
)
from .indicator import CHUNK_BYTES
from .process_model import ProcessSeries
from .scenario import Scenario, ScenarioEvent

_FIXTURE_RESOURCE = "mode_comparison_57.csv"
_PLAIN_NUMBERS = "only plain ASCII numbers are allowed, without '_'"

Writer = Callable[[str | Path, Iterable[str]], None]  # write(path, chunks), as staged_writes has it


def row_chunks(first: int, line: Callable[..., str], *arrays: np.ndarray) -> Iterator[str]:
    """One ``"\\n"``-ended chunk a slice of rows: ``line(first + r, row r of each array...)``.

    A row is a Python float (1-D array) or a list of them (2-D); ``tolist`` converts a slice
    of about CHUNK_BYTES of floats at 32 bytes each. Zero rows give no chunk. Outputs go out in
    chunks, not lines, as stdout may be write-through (``-u``, ``PYTHONUNBUFFERED``): a system
    call a write, so writing 100k report rows a line at a time took about 30 % longer.
    """
    step = max(1, CHUNK_BYTES // (32 * max(1, sum(a[:1].size for a in arrays))))
    for start in range(0, len(arrays[0]), step):
        rows = (a[start:start + step].tolist() for a in arrays)
        yield "\n".join(itertools.starmap(line, zip(itertools.count(first + start), *rows))) + "\n"


@contextlib.contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Re-raise an OSError so that it names ``path``, not the temporary file."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


@contextlib.contextmanager
def staged_writes() -> Iterator[Writer]:
    """Yield ``write(path, chunks)``; the files written in the block appear together or not at all.

    Each ``write`` puts its text chunks, as they come, into a temporary file
    in the target's directory, under a fresh random name so concurrent writers
    never share it; the umask gives it the mode a plain open() would. When the
    block ends without an error, every target is checked not to be a
    directory, then every temporary file is renamed over its target. On any
    failure (a chunk's own too) the temporary files not yet renamed are
    removed, so no target has changed unless a rename itself failed. An
    OSError names the target; an empty path is a missing file.
    """
    staged: list[tuple[Path, Path]] = []  # (temporary file, target), not yet renamed

    def write(path: str | Path, chunks: Iterable[str]) -> None:
        if not os.fspath(path):  # Path("") would name the working directory
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "")
        path = Path(path)
        tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
        with _naming(path):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
                    f.writelines(chunks)
            except BaseException:
                os.unlink(tmp)
                raise
        staged.append((tmp, path))

    try:
        yield write
        for _, path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        while staged:
            tmp, path = staged[0]
            with _naming(path):
                os.replace(tmp, path)
            del staged[0]
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)


def atomic_write(path: str | Path, chunks: Iterable[str]) -> None:
    """Write chunks of text to ``path`` as the one file of :func:`staged_writes`.

    If the write fails, the target is left as it was and no temporary file remains.
    """
    with staged_writes() as write:
        write(path, chunks)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write one text to ``path`` through :func:`atomic_write`."""
    atomic_write(path, (text,))


@contextlib.contextmanager
def _reading(path) -> Iterator[str]:
    """The UTF-8 text of a file or package resource; errors raised while reading it name it once."""
    try:
        yield (Path(path) if isinstance(path, str) else path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except UcindexError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


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


def _one_line(value: str) -> bool:  # no break that str.splitlines splits at
    return "".join(value.splitlines()) == value


def metadata_lines(entries: Iterable[tuple[str, str]]) -> list[str]:
    """The ``# key=value`` lines of an output: ``tool=ucindex <version>``, then ``entries``.

    Raises ParseError for a value holding a line break, which would end the block early.
    """
    lines = []
    for key, value in (("tool", f"ucindex {__version__}"), *entries):
        if not _one_line(value):
            raise ParseError(f"metadata {key}={value!r} contains a line break")
        lines.append(f"# {key}={value}")
    return lines


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


def _parse_table(
    text: str,
    key: str,
    columns: tuple[str, ...] | None = None,
    cell: Callable[[list[str], int], list] = _floats,
    first: int | None = 1,
) -> _Table:
    """Parse a CSV table: header ``key,<value columns>``, then one row per key.

    ``columns`` names the value columns exactly; None accepts any nonempty
    list. Keys are integers consecutive from ``first`` (None: from whatever
    the first row holds, at least 1). ``cell`` parses one row's value tokens,
    given the line number for its errors; the parsed cells must be finite.
    """
    meta: dict[str, str] = {}
    lines = _data_lines(text, meta)
    header_lineno, header = next(lines, (0, ""))
    if not header:
        raise ParseError("no header row found")
    names = tuple(f.strip() for f in header.split(","))
    if names[0] != key or len(names) < 2 or columns is not None and names[1:] != columns:
        spec = ",".join(columns) if columns else "<name1>,...,<namen>"
        raise ParseError(f"header must be '{key},{spec}'", line=header_lineno)
    width = len(names)
    flat = array("d")  # 8 bytes a cell; a list would hold a 24-byte float object per cell
    rows = 0
    for lineno, raw in lines:
        parts = raw.split(",")
        if len(parts) != width:
            raise RaggedRow(f"expected {width} fields, got {len(parts)}", line=lineno)
        if "_" in raw or not raw.isascii():
            raise ParseError(_PLAIN_NUMBERS, line=lineno)
        try:
            k = int(parts[0])
        except ValueError:
            raise ParseError(f"{key} {parts[0]!r} is not an integer", line=lineno) from None
        if first is None:
            if k < 1:
                raise ParseError(f"the first {key} must be >= 1, got {k}", line=lineno)
            first = k
        if k != first + rows:
            raise (NonMonotonicTime if key == "t" else ParseError)(
                f"expected {key} {first + rows}, got {k} (must be consecutive from {first})",
                line=lineno,
            )
        flat.fromlist(cell(parts[1:], lineno))
        rows += 1
    if not rows:
        raise ParseError("no data rows")
    cells = np.frombuffer(flat, dtype=float).reshape(rows, width - 1)  # a view: no second copy
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
    with _reading(path) as text:
        table = _parse_table(text, "t")
        # rows are periods; a series stores variables x periods
        return ProcessSeries(values=table.cells.T, variable_labels=table.names)


def write_series_csv(path: str | Path, series: ProcessSeries, comments: Iterable[str] = (),
                     write: Writer = atomic_write) -> None:
    """Write a process series at full (round-trip exact) precision.

    ``comments`` (lines from :func:`metadata_lines`) lead the file. A label
    holding ``,``, ``#`` or a line break raises ParseError. ``write`` may be
    the writer of a :func:`staged_writes` block.
    """
    for label in series.variable_labels:
        if "," in label or "#" in label or not _one_line(label):
            raise ParseError(f"variable label {label!r} contains a reserved character")
    head = "\n".join([*comments, "t," + ",".join(series.variable_labels)]) + "\n"
    rows = row_chunks(1, lambda t, row: f"{t}," + ",".join(map(repr, row)), series.values.T)
    write(path, itertools.chain([head], rows))


def read_compliance_csv(path: str | Path) -> ComplianceMatrix:
    """Read a 0/1 compliance matrix (header ``competency_id,<p1>,...,<pn>``).

    Tokens must be exactly ``0`` or ``1``; anything else (including ``0.0``)
    is rejected.

    Raises
    ------
    ParseError, RaggedRow, NonBinaryEntry
    """
    with _reading(path) as text:
        return ComplianceMatrix(entries=_parse_table(text, "competency_id", cell=_binary).cells)


def read_costs_csv(path: str | Path) -> tuple[float, ...]:
    """Read per-competency activation costs (header ``competency_id,cost``)."""
    with _reading(path) as text:
        return tuple(_parse_table(text, "competency_id", ("cost",)).cells[:, 0].tolist())


def read_scalar_csv(path: str | Path) -> tuple[int, np.ndarray, np.ndarray]:
    """Read per-period scalar pairs (header exactly ``t,basic,universal_competencies``).

    Returns the first period and the two scalar columns. Periods must be
    consecutive from a first period >= 1, not necessarily 1 (reports may
    begin after warmup).
    """
    with _reading(path) as text:
        table = _parse_table(text, "t", ("basic", "universal_competencies"), first=None)
    return table.first, table.cells[:, 0], table.cells[:, 1]


def read_scenario_json(path: str | Path) -> Scenario:
    """Read a scenario document: a JSON object of Scenario fields with a list of ``events``.

    The constructors check keys and types: an unknown or missing key or a
    wrongly typed value raises ParseError; a well-typed scenario that breaks
    its own constraints raises InvalidScenario.
    """
    with _reading(path) as text:
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise ParseError(f"the scenario must be a JSON object, got {type(doc).__name__}")
            events = doc.pop("events", [])
            if not isinstance(events, list):
                raise ParseError(f"events must be a list, got {type(events).__name__}")
            return Scenario(**doc, events=tuple(ScenarioEvent(**event) for event in events))
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ParseError(f"invalid JSON ({exc})") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc)) from None


def write_scenario_json(path: str | Path, scenario: Scenario,
                        write: Writer = atomic_write) -> None:
    """Write a scenario document; its keys are the Scenario and ScenarioEvent fields.

    ``write`` may be the writer of a :func:`staged_writes` block.
    """
    write(path, (json.dumps(dataclasses.asdict(scenario), indent=2) + "\n",))


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


def load_mode_fixture(path: str | Path | None = None) -> ModeFixture:
    """Load the reference mode-comparison fixture (the shipped one by default).

    Header ``t,basic,universal_competencies,delta``, t from 1; the declared
    totals come from ``# declared_total_<basic|competency|delta>=`` comments.
    """
    if path is None:
        path = importlib.resources.files("ucindex") / "data" / _FIXTURE_RESOURCE
    with _reading(path) as text:
        table = _parse_table(text, "t", ("basic", "universal_competencies", "delta"))
        try:
            tokens = [table.meta[f"declared_total_{n}"] for n in ("basic", "competency", "delta")]
            if any("_" in token or not token.isascii() for token in tokens):
                raise ValueError(_PLAIN_NUMBERS)
            declared = list(map(float, tokens))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"no numeric '# declared_total_...=' comment: {exc}") from None
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
