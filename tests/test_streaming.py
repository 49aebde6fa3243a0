"""Outputs are streamed to their writer a chunk at a time and stay byte-identical.

The references here render each output whole, the way a one-shot renderer
would: every cell first, then the column widths, then one ``"\\n".join``.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import traced_peak
import ucindex.cli
from ucindex import ParseError, ProcessSeries, compare_modes, emit_report, ingest_precomputed
from ucindex import io_formats
from ucindex.cli import cli_main
from ucindex.indicator import WindowConfig, indicator_series, scalar_per_period
from ucindex.io_formats import (
    CHUNK_BYTES,
    atomic_write,
    metadata_lines,
    read_scalar_csv,
    read_series_csv,
    row_chunks,
    staged_writes,
    write_series_csv,
)
from ucindex.report import _fmt2, report_chunks, report_metadata, window_metadata
from ucindex.scenario import generate_series, reference_scenario

SCALAR_HEADER = "t,basic,universal_competencies"
# rows whose report text crosses a slice boundary once (two row slices) or several times
# (a slice is 682 rows of three floats at 128 bytes each, a quarter of the cap)
ROWS = {("csv", "once"): 750, ("csv", "several"): 2_500,
        ("table", "once"): 1_250, ("table", "several"): 3_125}


def joined_report(c, fmt: str, metadata) -> str:
    """The report rendered whole, as one text."""
    rows = list(zip(map(str, c.periods), c.basic_scalars.tolist(), c.competency_scalars.tolist(),
                    c.delta_per_period.tolist()))
    totals = (c.basic.total, c.competency.total, c.delta_total)
    if fmt == "csv":
        lines = ["t,basic,universal_competencies,delta,basic_full,universal_competencies_full,delta_full"]
        lines += [f"{t},{_fmt2(b)},{_fmt2(m)},{_fmt2(d)},{b!r},{m!r},{d!r}"
                  for t, b, m, d in [*rows, ("total", *totals)]]
    else:
        cells = [("t", "V_basic", "V_universal", "dV"), *((t, *map(_fmt2, r)) for t, *r in rows),
                 ("Total", *map(_fmt2, totals))]
        widths = [max(len(row[col]) for row in cells) for col in range(4)]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]
    return "\n".join([*lines, *metadata]) + "\n"


def joined_plot_data(c) -> str:
    rows = zip(c.periods, c.basic_scalars.tolist(), c.competency_scalars.tolist())
    return "\n".join([SCALAR_HEADER, *(f"{t},{b!r},{m!r}" for t, b, m in rows)]) + "\n"


def write_scalars(path, rows: int, seed: int = 0) -> None:
    """Scalars over many magnitudes, so some print in exponent form (as in replay-report)."""
    basic, competency = (10.0 ** np.random.default_rng(seed).uniform(-2.0, 17.0, (2, rows))).tolist()
    path.write_text(SCALAR_HEADER + "\n" + "".join(
        f"{t},{b!r},{m!r}\n" for t, b, m in zip(range(13, 13 + rows), basic, competency)
    ), encoding="utf-8")


def scalar_comparison(path):
    first, basic, competency = read_scalar_csv(path)
    return compare_modes(ingest_precomputed(basic, "basic", first_period=first),
                         ingest_precomputed(competency, "universal-competencies", first_period=first))


def labelled(values: np.ndarray) -> ProcessSeries:
    return ProcessSeries(values, tuple(f"v{i}" for i in range(len(values))))


class TestRowChunks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 20), st.integers(1, 3), st.integers(1, 5), st.integers(1, 99))
    def test_each_chunk_is_one_slice_of_numbered_rows(self, rows, width, step, first):
        values = np.arange(rows * width, dtype=float).reshape(rows, width) / 3  # a list a row
        column = -np.arange(rows, dtype=float)  # a float a row
        with mock.patch.object(io_formats, "CHUNK_BYTES", 4 * 128 * (width + 1) * step):
            chunks = list(row_chunks(first, lambda t, row, x: f"{t}:{row}:{x!r}", values, column))
        lines = [f"{first + r}:{row}:{x!r}"
                 for r, (row, x) in enumerate(zip(values.tolist(), column.tolist()))]
        assert chunks == ["\n".join(lines[s:s + step]) + "\n" for s in range(0, rows, step)]

    def test_zero_rows_give_no_chunk(self):
        assert list(row_chunks(1, "{}:{}".format, np.empty((0, 3)))) == []
        assert list(row_chunks(1, "{}:{}:{}".format, np.empty(0), np.empty(0))) == []

    def test_the_cap_is_floats_at_128_bytes(self):
        rows = CHUNK_BYTES // 4 // 128  # a slice takes a quarter of the cap
        chunks = list(row_chunks(1, "{}".format, np.zeros(2 * rows + 1)))
        assert [chunk.count("\n") for chunk in chunks] == [rows, rows, 1]
        assert chunks[2] == f"{2 * rows + 1}\n"


class TestStreamedReportBytes:
    @pytest.mark.parametrize("fmt,crossings", list(ROWS))
    def test_every_report_path_gives_the_joined_text(self, tmp_path, capsys, fmt, crossings):
        scalars, out = tmp_path / "scalars.csv", tmp_path / "report.txt"
        write_scalars(scalars, ROWS[fmt, crossings])
        comparison = scalar_comparison(scalars)
        expected = joined_report(comparison, fmt, report_metadata(comparison))
        chunks = list(report_chunks(comparison, fmt))
        slices = len(chunks) - 3  # the rest: the header, the total row and the metadata
        assert slices == 2 if crossings == "once" else slices > 3
        assert emit_report(comparison, fmt) == expected
        assert cli_main(["report", str(scalars), "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        assert cli_main(["report", str(scalars), "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected and captured.err == ""

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_compare_report_and_plot_data_give_the_joined_text(self, tmp_path, capsys, fmt):
        rng = np.random.default_rng(1)
        basic, universal = tmp_path / "basic.csv", tmp_path / "universal.csv"
        modes = [labelled(rng.uniform(0, 10.0 ** rng.uniform(-1, 8, (2, 1)), (2, 30_000)))
                 for _ in range(2)]
        for path, series in zip((basic, universal), modes):
            write_series_csv(path, series)
        config = WindowConfig(2)
        comparison = compare_modes(indicator_series(modes[0], config, mode_label="basic"),
                                   indicator_series(modes[1], config,
                                                    mode_label="universal-competencies"))
        expected = joined_report(comparison, fmt, report_metadata(comparison))
        plot_expected = joined_plot_data(comparison)
        assert len(expected) > CHUNK_BYTES and len(plot_expected) > CHUNK_BYTES
        report, plot = tmp_path / "report.txt", tmp_path / "plot.csv"
        argv = ["compare", "--basic", str(basic), "--universal", str(universal), "--window", "2",
                "--format", fmt, "--plot-data", str(plot)]
        assert cli_main([*argv, "--out", str(report)]) == 0
        assert report.read_bytes() == expected.encode()
        assert plot.read_bytes() == plot_expected.encode()
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_a_1000_variable_indicator_output_gives_the_joined_text(self, tmp_path, capsys):
        values = np.random.default_rng(2).uniform(0, 1e3, (1000, 80))
        path, out = tmp_path / "wide.csv", tmp_path / "indicator.csv"
        series = labelled(values)
        write_series_csv(path, series)
        written = "\n".join(["t," + ",".join(series.variable_labels),
                             *(f"{t}," + ",".join(map(repr, row))
                               for t, row in enumerate(values.T.tolist(), start=1))]) + "\n"
        assert len(written) > CHUNK_BYTES
        assert path.read_bytes() == written.encode()
        result = indicator_series(read_series_csv(path), WindowConfig(2), mode_label="series")
        rows = zip(result.periods, result.values.tolist(), scalar_per_period(result).tolist())
        expected = "\n".join([
            "t," + ",".join(series.variable_labels) + ",scalar",
            *(f"{t},{','.join(map(repr, v))},{s!r}" for t, v, s in rows),
            *metadata_lines([("mode", "series"), *window_metadata(result.config),
                             ("total", repr(result.total))]),
        ]) + "\n"
        assert len(expected) > CHUNK_BYTES
        assert cli_main(["indicator", str(path), "--window", "2", "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        assert cli_main(["indicator", str(path), "--window", "2"]) == 0
        assert capsys.readouterr().out == expected

    # -0.00 prints as 0.00; x.xx5 values round up across a digit (9.995 -> 10.00)
    EDGES = [0.0, 0.001, 0.004, 0.005, 0.0049999, 9.994, 9.995, 99.995, 999.995, 10.0, 1e17]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGES), st.floats(0, 1e6)),
                              st.one_of(st.sampled_from(EDGES), st.floats(0, 1e6))),
                    min_size=1, max_size=20),
           st.integers(1, 2000))
    @example([(9.995, 0.0)], 1)  # dV = -9.995
    @example([(99.995, 0.0), (0.0, 9.995)], 9)
    @example([(0.004, 0.0), (0.001, 0.0)], 99)  # every dV prints -0.00
    @example([(9.995, 9.995)], 1)
    def test_text_widths_match_the_whole_table(self, pairs, first):
        basic, competency = zip(*pairs)
        comparison = compare_modes(ingest_precomputed(basic, "basic", first_period=first),
                                   ingest_precomputed(competency, "uc", first_period=first))
        expected = joined_report(comparison, "table", report_metadata(comparison))
        assert emit_report(comparison, "table") == expected


class TestMemoryAndFailures:
    def test_report_renders_and_writes_in_a_few_mib(self, tmp_path, monkeypatch):
        # held whole, the 100k rows' csv report took about 35 MiB of allocations here
        scalars, out = tmp_path / "scalars.csv", tmp_path / "report.csv"
        write_scalars(scalars, 100_000)
        write, peaks = ucindex.cli._write_or_print, []
        monkeypatch.setattr(ucindex.cli, "_write_or_print",
                            lambda chunks, path: peaks.append(traced_peak(write, chunks, path)[1]))
        assert cli_main(["report", str(scalars), "--format", "csv", "--out", str(out)]) == 0
        assert out.stat().st_size > 9 * CHUNK_BYTES
        assert peaks[0] < CHUNK_BYTES // 3, peaks  # a slice's floats, strings and bytes, the writer

    def test_compare_holds_each_series_once(self, tmp_path):
        # both inputs, then each mode's rows in place of its input: about three series at once
        scenario = dataclasses.replace(reference_scenario(), n=24, t_max=20_000)
        basic, universal, out = tmp_path / "basic.csv", tmp_path / "universal.csv", tmp_path / "r"
        for path, series in zip((basic, universal), generate_series(scenario)):
            write_series_csv(path, series)
        argv = ["compare", "--basic", str(basic), "--universal", str(universal), "--format", "csv",
                "--out", str(out)]
        code, peak = traced_peak(cli_main, argv)
        assert code == 0
        assert peak < 4.25 * 24 * 20_000 * 8, peak / (24 * 20_000 * 8)

    @staticmethod
    def failing_chunks():
        yield "new\n" * 1000
        raise RuntimeError("rendering failed")

    def test_chunks_that_raise_midway_leave_the_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError, match="rendering failed"):
            atomic_write(path, self.failing_chunks())
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_chunks_that_raise_midway_leave_no_file_of_the_set(self, tmp_path):
        with pytest.raises(RuntimeError, match="rendering failed"):
            with staged_writes() as write:
                write(tmp_path / "first.txt", ["done\n"])
                write(tmp_path / "second.txt", self.failing_chunks())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_report_chunks_raises_before_its_first_chunk(self, fmt):
        comparison = compare_modes(ingest_precomputed([1.0], "basic"),
                                   ingest_precomputed([2.0], "uc"))
        with pytest.raises(ParseError, match=r"metadata derivation='a\\nb' contains"):
            report_chunks(comparison, fmt, derivation="a\nb")  # the call, with no iteration

    def test_a_label_with_a_line_break_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        write_series_csv(path, labelled(np.ones((2, 8))))
        assert cli_main(["indicator", str(path), "--window", "2", "--label", "x\n1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: metadata mode='x\\n1' contains")
        assert captured.err.count("\n") == 1


class TestEmptyOutputPath:
    @pytest.mark.parametrize("argv", [
        ["report", "plot.csv", "--out", ""],
        ["indicator", "basic.csv", "--window", "2", "--out", ""],
        ["compare", "--basic", "basic.csv", "--universal", "basic.csv", "--window", "2", "--out", ""],
        ["compare", "--basic", "basic.csv", "--universal", "basic.csv", "--window", "2",
         "--plot-data", ""],
        ["compare", "--basic", "basic.csv", "--universal", "basic.csv", "--window", "2",
         "--out", "", "--plot-data", ""],
    ], ids=["report", "indicator", "compare-out", "compare-plot-data", "compare-both"])
    def test_is_a_missing_file(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_series_csv("basic.csv", labelled(np.arange(1.0, 17.0).reshape(2, 8)))
        write_scalars(tmp_path / "plot.csv", 5)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: FileNotFoundError: [Errno 2] No such file or directory: ''\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before
