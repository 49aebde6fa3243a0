from __future__ import annotations

import dataclasses
import importlib.resources
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import traced_peak
from ucindex import (
    __version__,
    NonBinaryEntry,
    NonFiniteValue,
    NonMonotonicTime,
    ParseError,
    ProcessSeries,
    RaggedRow,
    UcindexError,
    ingest_precomputed,
    load_mode_fixture,
    read_series_csv,
)
from ucindex import io_formats
from ucindex.io_formats import (
    _parse_table,
    atomic_write_text,
    metadata_lines,
    read_compliance_csv,
    read_costs_csv,
    read_scalar_csv,
    read_scenario_json,
    write_scenario_json,
    write_series_csv,
)
from ucindex.process_model import _Fresh
from ucindex.scenario import Scenario, ScenarioEvent, generate_series, reference_scenario


class TestSeriesCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "t,a,b,c\n1,1.0,2.0,3.0\n2,4,5,6\n3,7,8,9\n4,0,0,0\n5,1,1,1\n",
            encoding="utf-8",
        )
        series = read_series_csv(path)
        assert (series.n, series.t_max) == (3, 5)
        assert series.variable_labels == ("a", "b", "c")
        assert series.values[2, 1] == 6.0

    def test_parse_holds_the_values_once(self):
        # single-digit cells keep the text's lines small next to the 8-byte values, so a second
        # copy of the values (an array made from the parsed cells) would set the parse's peak
        n, t_max = 200, 500
        lines = ["t," + ",".join(f"v{i}" for i in range(n)) + "\n"] + [
            f"{t}," + ",".join(["7"] * n) + "\n" for t in range(1, t_max + 1)]
        table, peak = traced_peak(_parse_table, iter(lines), "t")
        cells = table.cells
        assert cells.shape == (t_max, n) and (cells == 7.0).all()
        assert peak < 1.75 * cells.nbytes

    def test_non_monotonic_time(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a\n1,1.0\n2,2.0\n2,3.0\n", encoding="utf-8")
        with pytest.raises(NonMonotonicTime):
            read_series_csv(path)

    def test_must_start_at_one(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a\n2,1.0\n", encoding="utf-8")
        with pytest.raises(NonMonotonicTime):
            read_series_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a,b,c\n1,1.0,2.0,3.0\n2,4.0,5.0\n", encoding="utf-8")
        with pytest.raises(RaggedRow) as excinfo:
            read_series_csv(path)
        assert excinfo.value.line == 3

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a\n1,soup\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            read_series_csv(path)
        assert excinfo.value.line == 2

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a\n1,nan\n", encoding="utf-8")
        with pytest.raises(NonFiniteValue):
            read_series_csv(path)

    def test_nan_after_skipped_lines_names_its_physical_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# x=1\nt,a\n1,1\n\n2,inf\n", encoding="utf-8")
        with pytest.raises(NonFiniteValue, match="line 5: value 'inf'"):
            read_series_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,a\n1,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_series_csv(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# seed=5\nt,a\n1,1.5\n", encoding="utf-8")
        series = read_series_csv(path)
        assert series.values[0, 0] == 1.5

    def test_blank_and_comment_lines_between_rows_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# x=1\n\nt,a\n1,1.5\n\n# y=2\n  \n2,2.5\n", encoding="utf-8")
        assert read_series_csv(path).values.tolist() == [[1.5, 2.5]]

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_is_exact(self, data, tmp_path_factory):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 5))
        t_max = data.draw(st.integers(1, 8))
        # mix of magnitudes, incl. values that stress decimal printing
        values = rng.uniform(-1, 1, size=(n, t_max)) * 10.0 ** rng.integers(
            -6, 7, size=(n, t_max)
        )
        series = ProcessSeries(
            values=values, variable_labels=tuple(f"v{i}" for i in range(n))
        )
        path = tmp_path_factory.mktemp("roundtrip") / "s.csv"
        write_series_csv(path, series, metadata_lines([("seed", "0")]))
        back = read_series_csv(path)
        assert np.array_equal(back.values, series.values)
        assert back.variable_labels == series.variable_labels

    def test_write_rejects_reserved_label_characters(self, tmp_path):
        series = ProcessSeries(values=np.ones((1, 1)), variable_labels=("a,b",))
        with pytest.raises(ParseError):
            write_series_csv(tmp_path / "s.csv", series)

    @pytest.mark.parametrize("label", ["a\nb", "a#b", "a\rb", "a\x85b", "a\u2028b", "a\x0cb"])
    def test_write_rejects_labels_that_break_the_file(self, tmp_path, label):
        # each of these would split the header line, or end it as a comment, when read back
        series = ProcessSeries(values=np.ones((1, 1)), variable_labels=(label,))
        with pytest.raises(ParseError, match="reserved character"):
            write_series_csv(tmp_path / "s.csv", series)
        assert not (tmp_path / "s.csv").exists()

    def test_lf_line_endings(self, tmp_path):
        series = ProcessSeries(values=np.ones((1, 2)), variable_labels=("a",))
        path = tmp_path / "s.csv"
        write_series_csv(path, series)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestMetadataLines:
    def test_tool_first_then_entries_in_order(self):
        assert metadata_lines([("seed", "0"), ("mode", "basic")]) == [
            f"# tool=ucindex {__version__}", "# seed=0", "# mode=basic",
        ]

    @pytest.mark.parametrize("value", ["x\n1,2,3", "x\r", "x\x85y", "x\u2028y"])
    def test_rejects_a_value_with_a_line_break(self, value):
        with pytest.raises(ParseError, match="mode=.* contains a line break"):
            metadata_lines([("mode", value)])


class TestAtomicWrite:
    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "new \ud800\n")  # a lone surrogate has no UTF-8 form
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_file_mode_matches_a_plain_write(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x", encoding="utf-8")
        atomic = tmp_path / "atomic.txt"
        atomic_write_text(atomic, "x")
        assert os.stat(atomic).st_mode == os.stat(plain).st_mode

    def test_leaves_the_process_umask_alone(self, tmp_path, monkeypatch):
        # the umask is process-wide: setting it, even briefly, races other threads
        def umask(mask):
            raise AssertionError("atomic_write_text called os.umask")

        monkeypatch.setattr(os, "umask", umask)
        atomic_write_text(tmp_path / "out.txt", "x")
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "x"


class TestComplianceCsv:
    def test_well_formed(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = rng.integers(0, 2, size=(32, 10))
        lines = ["competency_id," + ",".join(f"p{j}" for j in range(10))]
        for i, row in enumerate(entries, start=1):
            lines.append(f"{i}," + ",".join(str(v) for v in row))
        path = tmp_path / "c.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        matrix = read_compliance_csv(path)
        assert (matrix.m, matrix.n) == (32, 10)
        assert np.array_equal(matrix.entries, entries)

    def test_rejects_two(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("competency_id,p1\n1,2\n", encoding="utf-8")
        with pytest.raises(NonBinaryEntry):
            read_compliance_csv(path)

    def test_rejects_float_zero(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("competency_id,p1\n1,0.0\n", encoding="utf-8")
        with pytest.raises(NonBinaryEntry):
            read_compliance_csv(path)

    def test_rejects_id_gap(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("competency_id,p1\n1,1\n3,0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_compliance_csv(path)


class TestCostsCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("competency_id,cost\n1,10.5\n2,0\n", encoding="utf-8")
        assert read_costs_csv(path) == (10.5, 0.0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("id,cost\n1,10.5\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_costs_csv(path)


class TestScalarCsv:
    def test_reads_back_plot_data_layout(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "t,basic,universal_competencies\n13,1.5,2.5\n14,3.0,4.0\n",
            encoding="utf-8",
        )
        first, basic, competency = read_scalar_csv(path)
        assert first == 13
        assert basic.tolist() == [1.5, 3.0]
        assert competency.tolist() == [2.5, 4.0]

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "t,basic,universal_competencies\n1,1,1\n3,1,1\n", encoding="utf-8"
        )
        with pytest.raises(NonMonotonicTime):
            read_scalar_csv(path)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "# mode=x\n\nt,basic,universal_competencies\n# y=2\n13,1,2\n\n14,3,4\n",
            encoding="utf-8",
        )
        first, basic, competency = read_scalar_csv(path)
        assert (first, basic.tolist(), competency.tolist()) == (13, [1.0, 3.0], [2.0, 4.0])


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        scenario = Scenario(
            t_max=20, n=4, seed=99, base_level=10.0, noise_scale=2.0, event_effect=1.5,
            events=(ScenarioEvent(period=3, kind="hire", role="ops", count=1),),
        )
        path = tmp_path / "scenario.json"
        write_scenario_json(path, scenario)
        assert read_scenario_json(path) == scenario

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"t_max": 5, "n": 1, "seed": 0, "niose_scale": 1}', encoding="utf-8")
        with pytest.raises(ParseError):
            read_scenario_json(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"t_max": 5, "n": 1}', encoding="utf-8")
        with pytest.raises(ParseError):
            read_scenario_json(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ParseError):
            read_scenario_json(path)

    def test_json_nested_too_deep_is_parse_error(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(ParseError, match="invalid JSON"):
            read_scenario_json(path)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ('"events": null', "events must be a list"),
            ('"events": [{"period": 2, "kind": "promote", "role": "ops", "count": 1}]',
             "'promote' is not a valid EventKind"),
            ('"events": [{"period": 2, "kind": "hire", "role": "ops", "count": "two"}]',
             "count must be an integer"),
            ('"events": [{"period": 2, "kind": "hire", "role": "ops", "count": 1.5}]',
             "count must be an integer"),
            ('"events": [{"period": 2, "kind": "hire", "role": null, "count": 1}]',
             "role must be a string"),
            ('"base_level": "100"', "base_level must be a real number"),
            ('"noise_scale": true', "noise_scale must be a real number"),
            ('"base_level": ' + "9" * 400, "base_level is too large for a float"),
            ('"t_max": 20.0', "t_max must be an integer"),
            (None, "the scenario must be a JSON object, got list"),
            ('"events": {"a": 1}', "events must be a list, got dict"),
        ],
        ids=["null-events", "unknown-kind", "string-count", "fractional-count", "null-role",
             "string-base-level", "bool-noise-scale", "huge-base-level", "float-t-max",
             "top-level-list", "events-object"],
    )
    def test_wrong_value_type_is_parse_error(self, tmp_path, extra, message):
        path = tmp_path / "scenario.json"
        # None stands for a top-level list; a later key wins, so extra may override t_max
        doc = '{"t_max": 5, "n": 2, "seed": 0, ' + extra + "}" if extra else '[{"t_max": 5}]'
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_scenario_json(path)
        assert message in str(info.value)
        assert "\n" not in str(info.value) and len(str(info.value)) < 200


class TestModeFixture:
    def test_shipped_fixture_shape(self):
        fixture = load_mode_fixture()
        assert len(fixture.basic) == 57
        assert fixture.declared_total_basic == 5069.93
        assert fixture.declared_total_competency == 5491.17
        assert fixture.declared_total_delta == 421.24

    def test_first_and_last_rows(self):
        fixture = load_mode_fixture()
        assert (fixture.basic[0], fixture.competency[0]) == (87.34, 110.67)
        assert (fixture.basic[56], fixture.competency[56]) == (167.90, 167.90)

    def test_printed_deltas_match_column_difference_within_rounding(self):
        fixture = load_mode_fixture()
        for b, c, d in zip(fixture.basic, fixture.competency, fixture.delta_printed):
            assert abs((c - b) - d) <= 0.02


@pytest.mark.parametrize(
    "read, content, line",
    [
        (read_series_csv, b"t,a\n1,1\n3,2\n", 3),
        (read_series_csv, b"t,a\n1,1\n\n# x=1\n2,soup\n", 5),
        (read_series_csv, b"t,a\n1,\xff\n", None),
        (read_series_csv, b"t,a,a\n1,1,2\n", None),
        (read_compliance_csv, b"competency_id,p1\n1,2\n", 2),
        (read_compliance_csv, b"# x=1\ncompetency_id,p1\n\n1,1\n2,0.5\n", 5),
        (read_costs_csv, b"competency_id,cost\n", None),
        (read_costs_csv, b"competency_id,cost\n# c\n1,1\n\n2,x\n", 5),
        (read_scalar_csv, b"t,basic\n1,1\n", 1),
        (read_scalar_csv, b"t,basic,universal_competencies\n-3,1,1\n", 2),
        (read_scalar_csv, b"t,basic,universal_competencies\n\n# a=1\n0,1,1\n", 4),
        (load_mode_fixture, b"t,basic,universal_competencies,delta\n1,1,1,0\n", None),
        (read_scenario_json, b'{"t_max": 2, "n": 1, "seed": 0}', None),
        (read_scenario_json, b'{"t_max": 5, "n": 1, "seed": 0, "events": [{}]}', None),
    ],
    ids=["series-gap", "series-physical-line", "series-not-utf8", "series-duplicate-label",
         "compliance-entry", "compliance-physical-line", "costs-no-rows",
         "costs-physical-line", "scalar-header", "scalar-first-period",
         "scalar-physical-line", "fixture-no-totals", "scenario-constraint",
         "scenario-event-keys"],
)
def test_reader_errors_name_the_file_once(tmp_path, read, content, line):
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(UcindexError) as info:
        read(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1
    assert getattr(info.value, "line", None) == line


def whole_text_table(data: bytes, columns: tuple[str, ...] | None, first: int | None):
    """The oracle of the table reader: the value names, first t and cells of a file read whole
    and numbered by the whole text's ``str.splitlines``, or the error it raises (unprefixed)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    lines = [(i, raw) for i, raw in enumerate(text.splitlines(), 1)
             if raw.strip() and not raw.strip().startswith("#")]
    if not lines:
        raise ParseError("no header row found")
    (header_lineno, header), *rows = lines
    names = tuple(f.strip() for f in header.split(","))
    if names[0] != "t" or len(names) < 2 or columns is not None and names[1:] != columns:
        spec = ",".join(columns) if columns else "<name1>,...,<namen>"
        raise ParseError(f"header must be 't,{spec}'", line=header_lineno)
    cells = []
    for r, (lineno, raw) in enumerate(rows):
        parts = raw.split(",")
        if len(parts) != len(names):
            raise RaggedRow(f"expected {len(names)} fields, got {len(parts)}", line=lineno)
        if "_" in raw or not raw.isascii():
            raise ParseError("only plain ASCII numbers are allowed, without '_'", line=lineno)
        try:
            t = int(parts[0])
        except ValueError:
            raise ParseError(f"t {parts[0]!r} is not an integer", line=lineno) from None
        if first is None:
            if t < 1:
                raise ParseError(f"the first t must be >= 1, got {t}", line=lineno)
            first = t
        if t != first + r:
            raise NonMonotonicTime(
                f"expected t {first + r}, got {t} (must be consecutive from {first})", line=lineno)
        try:
            cells.append([float(token) for token in parts[1:]])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if not cells:
        raise ParseError("no data rows")
    finite = np.isfinite(cells)
    if not finite.all():  # reported after every other error, at the first cell in row order
        row, col = divmod(int(np.argmin(finite)), len(names) - 1)
        lineno, raw = rows[row]
        token = raw.split(",")[col + 1]
        raise NonFiniteValue(
            f"line {lineno}: value {token!r} in column {names[col + 1]!r} is not a finite number")
    return names[1:], first, np.array(cells)


def outcome(read):
    """``read()``'s names, first t and cells, or its error line as the CLI prints it."""
    try:
        names, first, cells = read()[:3]
    except UcindexError as exc:
        return f"error: {type(exc).__name__}: {exc}"
    return names, first, cells.tolist(), np.signbit(cells).tolist()


BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BAD_UTF8 = [b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82"]
TOKENS = ["nan", "inf", "-Infinity", "1e999", "1_0", "x", " 7 ", "\u00e9", "", "-0.0", "5e-324"]
SCALAR_COLUMNS = ("basic", "universal_competencies")


@st.composite
def table_files(draw):
    """A series or scalar table file, as (scalar?, bytes): rows of repr floats with bad cells,
    blank, comment and ragged lines, keys out of order, a BOM, line breaks of every kind that
    ``str.splitlines`` knows and bytes that are not UTF-8, some of them far into the file."""
    scalar = draw(st.booleans())
    n = 2 if scalar else draw(st.integers(1, 3))
    rows = draw(st.sampled_from([1, 2, 5, 1500]))  # 1500 rows run past the first decode buffers
    first = draw(st.integers(0, 3)) if scalar else 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1, 1, (rows, n)) * 10.0 ** rng.integers(-320, 309, (rows, n))
    lines = ["t," + ",".join(SCALAR_COLUMNS if scalar else (f"v{i}" for i in range(n)))]
    lines += [f"{first + r}," + ",".join(map(repr, row)) for r, row in enumerate(values.tolist())]
    for _ in range(draw(st.integers(0, 2))):  # a bad cell or key
        at, col = draw(st.integers(1, rows)), draw(st.integers(0, n))
        parts = lines[at].split(",")
        parts[col] = draw(st.sampled_from(TOKENS) if col else st.integers(-1, rows + 2).map(str))
        lines[at] = ",".join(parts)
    for _ in range(draw(st.integers(0, 2))):  # before the header too
        extra = draw(st.sampled_from(["", "   ", "# k=v", "#", "1,2,3,4,5", "t," * n + "t"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=1, max_size=3))
    text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
    if draw(st.booleans()):
        text = text[:-1]  # the last line unended, or ended by the first half of a \r\n
    data = ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode("utf-8")
    if draw(st.booleans()):
        at = int(draw(st.floats(0, 1)) * len(data))
        data = data[:at] + draw(st.sampled_from(BAD_UTF8)) + data[at:]
    return scalar, data


DEEP_ROWS = "t,a\n" + "".join(f"{t},{t}.25\n" for t in range(1, 2001))  # 16 KiB and more


class TestStreamedReader:
    @settings(max_examples=300, deadline=None)
    @given(table_files())
    @example((False, DEEP_ROWS.replace("\n9,9.25", "\n9,nan").replace("\n1999,", "\n1999,1,")
              .encode()))  # a ragged row after a nan
    @example((False, b"t,a,b\n1,1e308,1e308\n2,-inf,1\n"))  # finite cells whose sum overflows
    @example((False, DEEP_ROWS.replace("\n1999,1999.25", "\n1999,nan").encode()))
    @example((True, b"t,basic,universal_competencies\n" + b"\n".join(
        b"%d,1,2" % t for t in range(1, 3000)) + b"\n3000,\xff,1\n"))
    @example((False, DEEP_ROWS.replace("\n2,", "\n3,").encode() + b"\xc3("))  # bad key, bad end
    @example((False, b"\xef\xbb\xbf" + DEEP_ROWS.encode()))
    @example((False, "".join(f"# {b!r}{b}\n{b}" for b in BREAKS).encode() + DEEP_ROWS.encode()))
    @example((True, "\r\n".join(["# x=1", "", "t,basic,universal_competencies", "\x0c",
                                  "4,1,2\u2028", "5,3,4\x855,6,7"]).encode()))
    def test_gives_the_cells_or_the_error_of_the_whole_text(self, tmp_path_factory, case):
        scalar, data = case
        columns, first = (SCALAR_COLUMNS, None) if scalar else (None, 1)
        path = tmp_path_factory.mktemp("table") / "table.csv"
        path.write_bytes(data)

        def streamed():
            with io_formats._reading(path) as file:
                return _parse_table(file, "t", columns, first=first)

        def whole():
            try:
                return whole_text_table(data, columns, first)
            except UcindexError as exc:
                exc.args = (f"{path}: {exc}",)
                raise

        assert outcome(streamed) == outcome(whole)
        if not scalar and not isinstance(outcome(whole), str) and len(set(outcome(whole)[0])) > 1:
            series = read_series_csv(path)
            assert np.array_equal(series.values.T, whole()[2])
        elif scalar and not isinstance(outcome(whole), str):
            first_t, basic, competency = read_scalar_csv(path)
            assert first_t == whole()[1] and np.array_equal(np.c_[basic, competency], whole()[2])

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("data, message", [
        (b"t,a\n1,1\n\n2,nan\n",
         "NonFiniteValue: {path}: line 4: value 'nan' in column 'a' is not a finite number"),
        (b"t,a\n" + b"1,1\n" * 3000 + b"\xff", "ParseError: {path}: not UTF-8 text (byte 12004: "
                                               "invalid start byte)"),
        (b"t,a\n1,1\n2,2.5\n", None),
    ], ids=["nan", "bad-utf8", "good"])
    def test_a_pipe_reads_as_a_file_does(self, data, message):
        read, write = os.pipe()
        try:
            os.write(write, data)  # within the pipe's buffer
            os.close(write)
            path = f"/dev/fd/{read}"
            if message is None:
                assert read_series_csv(path).values.tolist() == [[1.0, 2.5]]
                return
            with pytest.raises(UcindexError) as info:
                read_series_csv(path)
            assert f"{type(info.value).__name__}: {info.value}" == message.format(path=path)
        finally:
            os.close(read)

    def test_the_packaged_fixture_reads_as_its_whole_text(self):
        resource = importlib.resources.files("ucindex") / "data" / "mode_comparison_57.csv"
        columns = ("basic", "universal_competencies", "delta")
        _, _, cells = whole_text_table(resource.read_bytes(), columns, 1)
        with io_formats._reading(resource) as file:
            table = _parse_table(file, "t", columns)
        assert np.array_equal(table.cells, cells)
        assert table.meta["declared_total_basic"] == "5069.93"
        fixture = load_mode_fixture()
        printed = np.c_[fixture.basic, fixture.competency, fixture.delta_printed]
        assert np.array_equal(printed, cells)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("cut", [None, -7])
    def test_scenario_json_reads_as_its_whole_text(self, tmp_path, newline, cut):
        doc = json.dumps(dataclasses.asdict(reference_scenario()), indent=2)
        path = tmp_path / "scenario.json"
        path.write_bytes(doc.replace("\n", newline)[:cut].encode())
        if cut is None:
            assert read_scenario_json(path) == reference_scenario()
            return
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(path.read_text(encoding="utf-8"))  # universal newlines, as read whole
        with pytest.raises(ParseError) as streamed:
            read_scenario_json(path)
        assert str(streamed.value) == f"{path}: invalid JSON ({whole.value})"

    def test_bad_utf8_far_into_a_scenario_names_its_file_offset(self, tmp_path):
        data = b'{"t_max": 5,' + b" " * 20_000 + b'"n": "\xff"}'
        path = tmp_path / "scenario.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            read_scenario_json(path)
        assert str(info.value) == f"{path}: not UTF-8 text (byte 20018: invalid start byte)"
        assert data.index(b"\xff") == 20018


class TestReaderMemory:
    """Each reader's peak is its values, held once, not its file's text."""

    def test_a_series_holds_its_parse_buffer_as_its_values(self, tmp_path):
        # a copy of the buffer, or of its transpose, would take the peak past twice the values
        scenario = dataclasses.replace(reference_scenario(), n=24, t_max=20_000)
        path = tmp_path / "long.csv"
        write_series_csv(path, generate_series(scenario)[0])
        series, peak = traced_peak(read_series_csv, path)
        assert not series.values.flags.writeable
        assert peak < 1.4 * series.values.nbytes, peak / series.values.nbytes

    def test_a_simulated_series_is_read_in_less_than_its_size(self, tmp_path):
        scenario = dataclasses.replace(reference_scenario(), n=200, t_max=500)
        path = tmp_path / "basic.csv"
        write_series_csv(path, generate_series(scenario)[0])
        assert traced_peak(read_series_csv, path)[1] < path.stat().st_size

    def test_scalars_are_read_in_less_than_their_size(self, tmp_path):
        rng = np.random.default_rng(0)
        basic, competency = (10.0 ** rng.uniform(-2.0, 17.0, (2, 20_000))).tolist()
        path = tmp_path / "plot.csv"
        path.write_text("t,basic,universal_competencies\n" + "".join(
            f"{t},{b!r},{m!r}\n" for t, b, m in zip(range(13, 20_013), basic, competency)))
        assert traced_peak(read_scalar_csv, path)[1] < path.stat().st_size

    def test_report_ingests_the_scalar_columns_uncopied(self, tmp_path):
        # as cmd_report does: its two columns, marked fresh, become both modes' values
        rng = np.random.default_rng(1)
        rows = (10.0 ** rng.uniform(-2.0, 17.0, (100_000, 2))).tolist()
        path = tmp_path / "plot.csv"
        path.write_text("t,basic,universal_competencies\n" + "".join(
            f"{t},{b!r},{m!r}\n" for t, (b, m) in enumerate(rows, start=1)))
        first, basic, competency = read_scalar_csv(path)
        buffer = basic.nbytes + competency.nbytes
        modes, peak = traced_peak(lambda: [ingest_precomputed(basic.view(_Fresh), "b", first),
                                           ingest_precomputed(competency.view(_Fresh), "c", first)])
        assert peak < 0.25 * buffer, peak / buffer
        assert all(np.shares_memory(m.values, c) for m, c in zip(modes, (basic, competency)))
        assert np.array_equal(np.hstack([m.values for m in modes]), rows)
        # the reader hands its caller plain arrays, which a series copies
        assert type(basic) is np.ndarray
        assert not np.shares_memory(ingest_precomputed(basic, "b").values, basic)


@pytest.mark.parametrize("totals, shown", [
    (("nan", "1", "0"), "[nan, 1.0, 0.0]"),
    (("1", "inf", "0"), "[1.0, inf, 0.0]"),
    (("1", "1", "-inf"), "[1.0, 1.0, -inf]"),
], ids=["nan-basic", "inf-competency", "minus-inf-delta"])
def test_a_fixture_declaring_a_non_finite_total_is_rejected(tmp_path, totals, shown):
    names = ("basic", "competency", "delta")
    path = tmp_path / "fixture.csv"
    path.write_text("".join(f"# declared_total_{n}={v}\n" for n, v in zip(names, totals))
                    + "t,basic,universal_competencies,delta\n1,1,1,0\n", encoding="utf-8")
    with pytest.raises(NonFiniteValue) as info:
        load_mode_fixture(path)
    assert str(info.value) == f"{path}: fixture declares non-finite totals {shown}"
