from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucindex import (
    __version__,
    NonBinaryEntry,
    NonFiniteValue,
    NonMonotonicTime,
    ParseError,
    ProcessSeries,
    RaggedRow,
    UcindexError,
    load_mode_fixture,
    read_series_csv,
)
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
from ucindex.scenario import Scenario, ScenarioEvent


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
        text = "t," + ",".join(f"v{i}" for i in range(n)) + "\n" + "".join(
            f"{t}," + ",".join(["7"] * n) + "\n" for t in range(1, t_max + 1))
        tracemalloc.start()
        try:
            cells = _parse_table(text, "t").cells
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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
