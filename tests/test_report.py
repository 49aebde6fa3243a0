from __future__ import annotations

import pytest

from ucindex import (
    compare_modes,
    emit_report,
    ingest_precomputed,
    load_mode_fixture,
)
from ucindex.report import emit_plot_data


@pytest.fixture(scope="module")
def fixture_comparison():
    fixture = load_mode_fixture()
    return compare_modes(
        ingest_precomputed(fixture.basic, "basic"),
        ingest_precomputed(fixture.competency, "universal-competencies"),
    )


def csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]


class TestEmitReport:
    def test_fixture_total_row_reproduces_published_totals(self, fixture_comparison):
        rows = csv_rows(emit_report(fixture_comparison, "csv"))
        total = next(r for r in rows if r[0] == "total")
        assert abs(float(total[1]) - 5069.93) <= 0.02
        assert abs(float(total[2]) - 5491.17) <= 0.02
        assert abs(float(total[3]) - 421.24) <= 0.02

    def test_fixture_report_has_57_data_rows(self, fixture_comparison):
        rows = csv_rows(emit_report(fixture_comparison, "csv"))
        assert len(rows) == 1 + 57 + 1  # header, data, total

    def test_identical_modes_print_zero_deltas(self):
        series = ingest_precomputed([3.0, 4.0, 5.0], "basic")
        comparison = compare_modes(series, series)
        rows = csv_rows(emit_report(comparison, "csv"))
        for row in rows[1:]:
            assert row[3] == "0.00"

    def test_single_period_report(self):
        comparison = compare_modes(
            ingest_precomputed([5.0], "basic"), ingest_precomputed([7.5], "uc")
        )
        rows = csv_rows(emit_report(comparison, "csv"))
        assert rows[1][:4] == ["1", "5.00", "7.50", "2.50"]
        assert rows[2][:4] == ["total", "5.00", "7.50", "2.50"]

    def test_two_decimal_text_table(self, fixture_comparison):
        text = emit_report(fixture_comparison, "table")
        lines = text.splitlines()
        assert lines[0].split() == ["t", "V_basic", "V_universal", "dV"]
        first = lines[1].split()
        assert first == ["1", "87.34", "110.67", "23.33"]
        total_line = next(l for l in lines if l.lstrip().startswith("Total"))
        assert "5069.94" in total_line or "5069.93" in total_line

    def test_metadata_block_appended_as_comments(self, fixture_comparison):
        text = emit_report(fixture_comparison, "table")
        meta = [l for l in text.splitlines() if l.startswith("# ")]
        keys = [l.split("=", 1)[0].removeprefix("# ") for l in meta]
        assert keys == [
            "tool", "mode_basic", "mode_competency", "window_k",
            "standardize", "warmup", "warmup_excluded", "derivation", "unit",
        ]
        assert "# window_k=none" in text  # ingested series carry no window
        assert "# unit=input-unit^2" in text

    def test_derivation_echoed(self, fixture_comparison):
        text = emit_report(fixture_comparison, "csv", derivation="mask")
        assert "# derivation=mask" in text

    def test_deterministic_without_stamp(self, fixture_comparison):
        a = emit_report(fixture_comparison, "csv")
        b = emit_report(fixture_comparison, "csv")
        assert a == b

    def test_stamp_adds_generated_line(self, fixture_comparison):
        assert "# generated=" not in emit_report(fixture_comparison, "csv")
        assert "# generated=" in emit_report(fixture_comparison, "csv", stamp=True)

    def test_csv_full_precision_columns_round_trip(self, fixture_comparison):
        rows = csv_rows(emit_report(fixture_comparison, "csv"))
        basic_full = [float(r[4]) for r in rows[1:-1]]
        assert basic_full == list(load_mode_fixture().basic)

    def test_printed_total_close_to_sum_of_printed_rows(self, fixture_comparison):
        rows = csv_rows(emit_report(fixture_comparison, "csv"))
        printed_sum = sum(float(r[3]) for r in rows[1:-1])
        printed_total = float(rows[-1][3])
        assert abs(printed_total - printed_sum) <= 0.01 * (len(rows) - 2)


class TestReportTable:
    def test_builder_footer_consistent(self):
        comparison = compare_modes(
            ingest_precomputed([1.0, 2.0], "basic"),
            ingest_precomputed([2.0, 4.0], "uc"),
        )
        assert csv_rows(emit_report(comparison, "csv"))[-1][4:] == ["3.0", "6.0", "3.0"]


class TestEmitPlotData:
    def test_fixture_plot_data_has_57_rows(self, fixture_comparison, tmp_path):
        path = tmp_path / "plot.csv"
        emit_plot_data(fixture_comparison, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,basic,universal_competencies"
        assert len(lines) == 58

    def test_byte_identical_across_invocations(self, fixture_comparison, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_plot_data(fixture_comparison, a)
        emit_plot_data(fixture_comparison, b)
        assert a.read_bytes() == b.read_bytes()

    def test_full_precision_values(self, tmp_path):
        comparison = compare_modes(
            ingest_precomputed([0.1], "basic"), ingest_precomputed([0.3], "uc")
        )
        path = tmp_path / "p.csv"
        emit_plot_data(comparison, path)
        row = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert float(row[1]) == 0.1 and float(row[2]) == 0.3

    def test_no_leftover_temp_file(self, fixture_comparison, tmp_path):
        path = tmp_path / "plot.csv"
        emit_plot_data(fixture_comparison, path)
        assert [p.name for p in tmp_path.iterdir()] == ["plot.csv"]
