from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import mixed_signs
import ucindex
from ucindex import ProcessSeries, indicator
from ucindex.cli import build_parser, cli_main
from ucindex.io_formats import write_series_csv


def write_series(path, values: np.ndarray) -> None:
    series = ProcessSeries(
        values=values, variable_labels=tuple(f"v{i}" for i in range(values.shape[0]))
    )
    write_series_csv(path, series)


@pytest.fixture
def small_series(tmp_path):
    rng = np.random.default_rng(123)
    path = tmp_path / "series.csv"
    write_series(path, rng.uniform(1, 10, size=(3, 20)))
    return path


class TestFixtureVerify:
    def test_exit_zero_and_prints_totals(self, capsys):
        assert cli_main(["fixture-verify"]) == 0
        out = capsys.readouterr().out
        assert "basic_total=" in out
        assert "competency_total=" in out
        assert "delta_total=" in out

    def test_tampered_fixture_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "# declared_total_basic=100.00\n"
            "# declared_total_competency=2.00\n"
            "# declared_total_delta=-98.00\n"
            "t,basic,universal_competencies,delta\n"
            "1,1.0,2.0,1.0\n",
            encoding="utf-8",
        )
        assert cli_main(["fixture-verify", "--fixture", str(bad)]) == 1
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: FixtureMismatch: ")
        # basic (1 vs 100) and delta (1 vs -98) are off; competency (2 vs 2) is not
        assert "basic_total 1.0000 differs from declared 100.00" in errors[0]
        assert "delta_total 1.0000 differs from declared -98.00" in errors[0]
        assert "competency_total" not in errors[0]
        assert captured.out.splitlines() == [
            "basic_total=1.00", "competency_total=2.00", "delta_total=1.00",
        ]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_no_subcommand(self):
        assert cli_main([]) == 2

    def test_missing_required_flag(self):
        assert cli_main(["check-budget", "--budget", "1"]) == 2


class TestIndicator:
    def test_writes_per_period_rows(self, small_series, tmp_path, capsys):
        out = tmp_path / "ind.csv"
        code = cli_main(["indicator", str(small_series), "--window", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,v0,v1,v2,scalar"
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 1 + 16  # header + periods 5..20
        assert any(l.startswith("# total=") for l in lines)

    def test_window_too_long_is_domain_error(self, small_series, capsys):
        code = cli_main(["indicator", str(small_series), "--window", "25"])
        assert code == 1
        assert "SeriesTooShort" in capsys.readouterr().err

    def test_shrink_warmup_starts_at_period_three(self, small_series, capsys):
        code = cli_main([
            "indicator", str(small_series), "--window", "6", "--warmup", "shrink",
        ])
        assert code == 0
        out = capsys.readouterr().out
        first_data = next(l for l in out.splitlines()[1:] if not l.startswith("#"))
        assert first_data.startswith("3,")

    def test_standardize_flag_bounds_values(self, small_series, capsys):
        code = cli_main([
            "indicator", str(small_series), "--window", "5", "--standardize",
        ])
        assert code == 0
        out = capsys.readouterr().out
        scalars = [
            float(l.split(",")[-1]) for l in out.splitlines()[1:] if not l.startswith("#")
        ]
        # with unit diagonals and |r| <= 1, each scalar is within [n, n^2]
        assert all(3 - 1e-9 <= s <= 9 + 1e-9 for s in scalars)

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        code = cli_main(["indicator", str(tmp_path / "nope.csv")])
        assert code == 1


class TestCompare:
    def test_two_series_report(self, small_series, tmp_path, capsys):
        code = cli_main([
            "compare", "--basic", str(small_series),
            "--universal", str(small_series), "--window", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Total" in out
        assert "# window_k=4" in out

    def test_mismatched_lengths_named(self, small_series, tmp_path, capsys):
        rng = np.random.default_rng(5)
        longer = tmp_path / "longer.csv"
        write_series(longer, rng.uniform(1, 10, size=(3, 25)))
        code = cli_main([
            "compare", "--basic", str(small_series),
            "--universal", str(longer), "--window", "4",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ConfigMismatch: defined periods differ: 5..20 vs 5..25\n"
        )

    def test_compliance_derivation(self, small_series, tmp_path, capsys):
        compliance = tmp_path / "c.csv"
        compliance.write_text(
            "competency_id,p1,p2,p3\n1,1,0,1\n2,1,0,0\n", encoding="utf-8"
        )
        code = cli_main([
            "compare", "--basic", str(small_series),
            "--compliance", str(compliance), "--derive", "weight",
            "--window", "4", "--format", "csv",
        ])
        assert code == 0
        assert "# derivation=weight" in capsys.readouterr().out

    def test_unwritable_out_names_the_given_path(self, small_series, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.txt"
        code = cli_main([
            "compare", "--basic", str(small_series),
            "--universal", str(small_series), "--window", "4", "--out", str(out),
        ])
        assert code == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: FileNotFoundError: ")
        assert errors[0].endswith(f"'{out}'")
        assert ".tmp" not in errors[0]

    def test_nearly_equal_modes_report_the_exact_delta(self, nearly_equal_series, tmp_path,
                                                       capsys):
        basic, universal = tmp_path / "basic.csv", tmp_path / "universal.csv"
        for path, values in zip((basic, universal), nearly_equal_series):
            write_series(path, values.T)
        code = cli_main([
            "compare", "--basic", str(basic), "--universal", str(universal),
            "--window", "12", "--format", "csv",
        ])
        assert code == 0
        total = next(line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("total,"))
        assert total.split(",")[-1] == "10396270.0"  # one-sign windows: the O(k n) form's values

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_unwritable_plot_data_leaves_no_report(self, small_series, tmp_path, capsys, to_file):
        report, plot = tmp_path / "r.csv", tmp_path / "nodir" / "p.csv"
        code = cli_main([
            "compare", "--basic", str(small_series), "--universal", str(small_series),
            "--window", "4", "--plot-data", str(plot), *(["--out", str(report)] if to_file else []),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FileNotFoundError: [Errno 2] ")
        assert captured.err.endswith(f"'{plot}'\n") and captured.err.count("\n") == 1
        assert not report.exists()

    def test_unwritable_report_leaves_no_plot_data(self, small_series, tmp_path, capsys):
        report, plot = tmp_path / "nodir" / "r.csv", tmp_path / "p.csv"
        code = cli_main([
            "compare", "--basic", str(small_series), "--universal", str(small_series),
            "--window", "4", "--plot-data", str(plot), "--out", str(report),
        ])
        assert code == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: FileNotFoundError: ")
        assert errors[0].endswith(f"'{report}'")
        assert [p.name for p in tmp_path.iterdir()] == ["series.csv"]

    def test_plot_data_written(self, small_series, tmp_path):
        plot = tmp_path / "plot.csv"
        code = cli_main([
            "compare", "--basic", str(small_series),
            "--universal", str(small_series), "--window", "4",
            "--out", str(tmp_path / "report.txt"), "--plot-data", str(plot),
        ])
        assert code == 0
        assert plot.read_text(encoding="utf-8").startswith("t,basic,universal_competencies")


class TestSimulate:
    def test_default_scenario_files(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert cli_main(["simulate", "--out-dir", str(out_dir)]) == 0
        for name in ("scenario.json", "basic.csv", "universal.csv"):
            assert (out_dir / name).exists()
        head = (out_dir / "basic.csv").read_text(encoding="utf-8").splitlines()[:4]
        assert any(l.startswith("# noise=numpy-pcg64") for l in head)

    def test_seed_override_changes_data(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        cli_main(["simulate", "--out-dir", str(a), "--seed", "1"])
        cli_main(["simulate", "--out-dir", str(b), "--seed", "1"])
        cli_main(["simulate", "--out-dir", str(c), "--seed", "2"])
        assert (a / "basic.csv").read_bytes() == (b / "basic.csv").read_bytes()
        assert (a / "basic.csv").read_bytes() != (c / "basic.csv").read_bytes()

    def test_full_chain_is_deterministic(self, tmp_path):
        for label in ("x", "y"):
            out_dir = tmp_path / f"sim_{label}"
            cli_main(["simulate", "--out-dir", str(out_dir)])
            cli_main([
                "compare", "--basic", str(out_dir / "basic.csv"),
                "--universal", str(out_dir / "universal.csv"),
                "--window", "12", "--format", "csv",
                "--out", str(tmp_path / f"report_{label}.csv"),
            ])
        assert (tmp_path / "report_x.csv").read_bytes() == (tmp_path / "report_y.csv").read_bytes()

    def test_custom_scenario_roundtrip(self, tmp_path):
        doc = tmp_path / "scenario.json"
        doc.write_text(
            '{"t_max": 15, "n": 2, "seed": 7, "noise_scale": 0.5,\n'
            ' "events": [{"period": 4, "kind": "hire", "role": "ops", "count": 1}]}',
            encoding="utf-8",
        )
        out_dir = tmp_path / "sim"
        assert cli_main(["simulate", "--scenario", str(doc), "--out-dir", str(out_dir)]) == 0
        data = [
            l for l in (out_dir / "universal.csv").read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")
        ]
        assert len(data) == 1 + 15

    def test_unwritable_last_file_leaves_no_output_set(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        (out_dir / "universal.csv").mkdir(parents=True)
        code = cli_main(["simulate", "--out-dir", str(out_dir)])
        assert code == 1
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: IsADirectoryError: ")
        assert errors[0].endswith(f"'{out_dir / 'universal.csv'}'")
        assert captured.out == ""
        assert [p.name for p in out_dir.iterdir()] == ["universal.csv"]

    def test_empty_out_dir_is_a_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # Path("") is the working directory: nothing may land here
        assert cli_main(["simulate", "--out-dir", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: FileNotFoundError: [Errno 2] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == []

    def check_one_error_line_and_no_output(self, capsys, out_dir, code):
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: InvalidScenario: ")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_line_break_in_an_unknown_key_stays_on_the_error_line(self, tmp_path, capsys):
        doc = tmp_path / "scenario.json"
        doc.write_text('{"t_max": 5, "n": 2, "seed": 7, "a\\nb": 1}', encoding="utf-8")
        out_dir = tmp_path / "sim"
        code = cli_main(["simulate", "--scenario", str(doc), "--out-dir", str(out_dir)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.endswith("got an unexpected keyword argument 'a\\nb'\n")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_scenario_too_large_to_index(self, tmp_path, capsys):
        doc = tmp_path / "scenario.json"
        doc.write_text('{"t_max": 100000000000000000000, "n": 2, "seed": 7}', encoding="utf-8")
        out_dir = tmp_path / "sim"
        code = cli_main(["simulate", "--scenario", str(doc), "--out-dir", str(out_dir)])
        self.check_one_error_line_and_no_output(capsys, out_dir, code)

    def test_scenario_too_large_to_allocate(self, tmp_path, capsys, monkeypatch):
        # a real allocation this size could exhaust the machine: fake the failure instead
        def generate_series(scenario):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(ucindex.cli, "generate_series", generate_series)
        out_dir = tmp_path / "sim"
        code = cli_main(["simulate", "--out-dir", str(out_dir)])
        self.check_one_error_line_and_no_output(capsys, out_dir, code)


class TestReport:
    def test_re_report_from_plot_data(self, small_series, tmp_path, capsys):
        plot = tmp_path / "plot.csv"
        cli_main([
            "compare", "--basic", str(small_series),
            "--universal", str(small_series), "--window", "4",
            "--out", str(tmp_path / "r.txt"), "--plot-data", str(plot),
        ])
        assert cli_main(["report", str(plot)]) == 0
        out = capsys.readouterr().out
        assert "Total" in out
        assert "# window_k=none" in out

    def test_nearly_equal_scalars_report_the_exact_delta(self, nearly_equal_scalars, tmp_path,
                                                         capsys):
        basic, universal = (x.tolist() for x in nearly_equal_scalars)
        path = tmp_path / "scalars.csv"
        path.write_text(SCALAR_HEADER + "".join(
            f"{t},{b!r},{c!r}\n" for t, (b, c) in enumerate(zip(basic, universal), start=1)
        ), encoding="utf-8")
        assert cli_main(["report", str(path), "--format", "csv"]) == 0
        total = next(line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("total,"))
        assert total.split(",")[-1] == "4948.375"

    def test_partial_sums_past_the_largest_float_give_the_exact_delta(self, tmp_path, capsys):
        # fsum raises OverflowError on these rows although their exact delta is finite
        rows = [(0.0, 8.510162095219329e307), (1.7976931348623157e308, 1.780488503565008e307)]
        path = tmp_path / "scalars.csv"
        path.write_text(SCALAR_HEADER + "".join(f"{t},{b!r},{c!r}\n" for t, (b, c)
                                                in enumerate(rows, start=1)), encoding="utf-8")
        assert cli_main(["report", str(path), "--format", "csv"]) == 0
        total = next(line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("total,"))
        exact = sum(Fraction(c) - Fraction(b) for b, c in rows)
        assert float(total.split(",")[-1]) == float(exact) == -7.68628074983882e307

    @pytest.mark.parametrize("fmt, body", [
        ("csv", "t,basic,universal_competencies,delta,basic_full,universal_competencies_full,"
                "delta_full\n4,0.00,0.00,0.00,0.0,0.0,0.0\n5,0.00,0.00,0.00,0.0,0.0,0.0\n"
                "6,0.00,0.00,0.00,0.0,0.0,0.0\n7,0.00,2.50,2.50,0.0,2.5,2.5\n"
                "total,0.00,2.50,2.50,0.0,2.5,2.5\n"),
        ("table", "    t  V_basic  V_universal    dV\n    4     0.00         0.00  0.00\n"
                  "    5     0.00         0.00  0.00\n    6     0.00         0.00  0.00\n"
                  "    7     0.00         2.50  2.50\nTotal     0.00         2.50  2.50\n"),
    ])
    def test_negative_zero_cells_report_as_positive_zeros(self, tmp_path, capsys, fmt, body):
        # an exact sum of -0.0 is +0.0, so no cell, full-precision ones included, prints -0.0
        path = tmp_path / "zeros.csv"
        path.write_text(SCALAR_HEADER + "4,-0.0,-0.0\n5,-0.0,0.0\n6,0.0,-0.0\n7,-0.0,2.5\n",
                        encoding="utf-8")
        assert cli_main(["report", str(path), "--format", fmt]) == 0
        metadata = [f"tool=ucindex {ucindex.__version__}", "mode_basic=basic",
                    "mode_competency=universal-competencies", "window_k=none", "standardize=n/a",
                    "warmup=n/a", "warmup_excluded=1..3", "derivation=none", "unit=input-unit^2"]
        assert capsys.readouterr().out == body + "".join(f"# {m}\n" for m in metadata)

    def test_domain_error_on_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,basic,universal_competencies\n1,1.0\n", encoding="utf-8")
        assert cli_main(["report", str(bad)]) == 1
        assert "RaggedRow" in capsys.readouterr().err


class TestCheckBudget:
    def write_compliance(self, tmp_path, rows: list[str]) -> str:
        path = tmp_path / "c.csv"
        n = len(rows[0].split(","))
        header = "competency_id," + ",".join(f"p{j}" for j in range(n))
        body = [f"{i},{row}" for i, row in enumerate(rows, start=1)]
        path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
        return str(path)

    def test_accept_within_limit(self, tmp_path, capsys):
        compliance = self.write_compliance(tmp_path, ["1,1,1"])
        costs = tmp_path / "costs.csv"
        costs.write_text("competency_id,cost\n1,2936\n", encoding="utf-8")
        code = cli_main([
            "check-budget", "--compliance", compliance,
            "--budget", "5644378", "--costs", str(costs),
        ])
        assert code == 0
        assert "ACCEPT cost=2936.0 limit=5644378.0" in capsys.readouterr().out

    def test_reject_over_limit(self, tmp_path, capsys):
        compliance = self.write_compliance(tmp_path, ["1,0", "0,1"])
        code = cli_main([
            "check-budget", "--compliance", compliance,
            "--budget", "9.99", "--unit-cost", "5",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "REJECT cost=10.0 limit=9.99\n"
        assert captured.err == "error: BudgetExceeded: budget exceeded: cost 10.0 > limit 9.99\n"

    def test_exact_limit_accepted(self, tmp_path):
        compliance = self.write_compliance(tmp_path, ["1,0", "0,1"])
        code = cli_main([
            "check-budget", "--compliance", compliance,
            "--budget", "10", "--unit-cost", "5",
        ])
        assert code == 0


SCALAR_HEADER = "t,basic,universal_competencies\n"
# variable b is 1e200 at period 6, which enters the windows of periods 7..9 at k=3
SPIKED_SERIES = "t,a,b,c\n" + "".join(
    f"{t},{t},{'1e200' if t == 6 else t + 1},{2 * t}\n" for t in range(1, 21)
)


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("indicator", b"t,a\n1,\xff\n", "not UTF-8"),
        ("indicator", b"t,a\n1,1_0\n2,1.0\n", "line 2"),
        ("indicator", b"t,a\n1,1.0\n2,nan\n", "line 3"),
        ("indicator", b"t,a\n1,inf\n", "line 2"),
        ("indicator", b"t,a\n1,1e400\n", "line 2"),
        ("report", SCALAR_HEADER.encode() + b"1,1.0,-inf\n", "line 2"),
        ("report", b"t,basic,universal_competencies,extra\n1,1,1,1\n", "line 1"),
        ("report", b"t,basic,universal\n1,1,1\n", "line 1"),
        ("report", b"t,universal_competencies,basic\n1,1,1\n", "line 1"),
        ("report", SCALAR_HEADER.encode() + b"1,1e308,1e308\n2,1e308,1e308\n",
         "NonFiniteValue: basic: the indicator total overflows"),
        ("indicator --window 3", SPIKED_SERIES.encode(), "NonFiniteValue: series, period 7:"),
        ("indicator --window 3 --standardize", SPIKED_SERIES.encode(),
         "NonFiniteValue: series, period 7:"),
        ("indicator", b"t,a\n1,1.0\n2,x\n",
         "/input.csv: line 3: could not convert string to float: 'x'"),
        ("indicator", b"t,a,a\n1,1.0,2.0\n",
         "/input.csv: variable labels must be unique"),
        ("fixture-verify --fixture", b"t,basic,universal_competencies,delta\n1,1,1,0\n",
         "/input.csv: no numeric '# declared_total_...=' comment"),
        ("report", SCALAR_HEADER.encode() + b"6,-1,2\n",
         "NegativeIndicator: basic, period 6: indicator values must be >= 0"),
        ("fixture-verify --fixture",
         b"# declared_total_basic=5_069.93\n# declared_total_competency=1\n"
         b"# declared_total_delta=0\nt,basic,universal_competencies,delta\n1,1,1,0\n",
         "ParseError: {input}: no numeric '# declared_total_...=' comment: only plain ASCII"),
        ("indicator --window 2 --label x\n1,2,3", b"t,a\n1,1\n2,2\n3,3\n",
         "ParseError: metadata mode='x\\n1,2,3' contains a line break"),
        ("report", SCALAR_HEADER.encode() + b"0,1,1\n1,1,1\n",
         "ParseError: {input}: line 2: the first t must be >= 1, got 0"),
    ],
    ids=["non-utf8", "digit-grouping", "nan", "inf", "overflow", "minus-inf",
         "extra-scalar-column", "wrong-scalar-name", "swapped-scalar-columns",
         "total-overflow", "kernel-overflow", "kernel-overflow-standardized",
         "bad-token-names-file", "duplicate-label-names-file", "fixture-total-names-file",
         "negative-names-period", "fixture-total-digit-grouping", "label-line-break",
         "first-period-below-one"],
)
def test_malformed_input_is_one_error_line(tmp_path, capsys, command, content, message):
    path = tmp_path / "input.csv"
    path.write_bytes(content)
    assert cli_main([*command.split(" "), str(path)]) == 1  # a label may hold a line break
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message.format(input=path) in lines[0]
    assert lines[0].count(str(path)) <= 1
    assert captured.out == ""


@pytest.mark.parametrize("standardize", [[], ["--standardize"]], ids=["raw", "standardized"])
def test_overflow_at_a_chunk_end_names_its_period_and_writes_nothing(tmp_path, capsys, standardize):
    # n = 24, k = 3: the first full-window chunk runs from period 4 to 230, and the
    # 1e200 at period 229 first enters the window of that chunk's last period
    values = np.random.default_rng(6).uniform(1, 10, size=(24, 500))
    values[5, 228] = 1e200
    spiked, plain = tmp_path / "spiked.csv", tmp_path / "plain.csv"
    write_series(spiked, values)
    write_series(plain, np.ones((24, 500)))
    out, plot = tmp_path / "out.csv", tmp_path / "plot.csv"
    runs = [(["indicator", str(spiked), "--label", "spiked", "--out", str(out)], "spiked"),
            (["compare", "--basic", str(plain), "--universal", str(spiked), "--out", str(out),
              "--plot-data", str(plot)], "universal-competencies")]
    for command, label in runs:
        assert cli_main([*command, "--window", "3", *standardize]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: NonFiniteValue: {label}, period 230: overflow encountered\n"
        assert not out.exists() and not plot.exists()


def test_error_names_the_file_it_was_read_from(tmp_path, capsys):
    good, bad = tmp_path / "a.csv", tmp_path / "b.csv"
    good.write_text("t,x\n1,1\n2,2\n3,3\n", encoding="utf-8")
    bad.write_text("t,x\n1,1\n2,x\n", encoding="utf-8")
    assert cli_main(["compare", "--basic", str(good), "--universal", str(bad)]) == 1
    expected = f"error: ParseError: {bad}: line 3: could not convert string to float: 'x'\n"
    assert capsys.readouterr().err == expected


def test_python_dash_m_runs_the_cli():
    src = str(Path(ucindex.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "ucindex", "--version"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"ucindex {ucindex.__version__}\n"


@pytest.mark.parametrize("blas", [None, "2"], ids=["blas-unset", "blas-set"])
def test_start_up_and_small_windows_start_no_worker_thread(tmp_path, blas):
    # no CLI path starts a thread or loads queue: not start-up, a small window or one of two tiles;
    # nor does OpenBLAS, whose thread count the CLI sets to 1 unless the caller has set one
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("native threads are counted in /proc/self/task")
    rng = np.random.default_rng(7)
    for prefix, n, t in (("", 24, 40), ("wide-", 400, 16)):
        for mode in ("basic", "universal"):
            write_series(tmp_path / f"{prefix}{mode}.csv", rng.uniform(1, 10, size=(n, t)))
    script = (
        "import os, sys, threading\n"
        "import ucindex.cli\n"
        "code = max(ucindex.cli.cli_main(['compare', '--basic', p + 'basic.csv', '--universal',"
        " p + 'universal.csv', '--window', '12']) for p in ('', 'wide-'))\n"
        "print(code, 'concurrent.futures' in sys.modules, 'queue' in sys.modules,"
        " threading.active_count(), os.environ.get('OPENBLAS_NUM_THREADS'),"
        " len(os.listdir('/proc/self/task')), file=sys.stderr)\n"
    )
    # this process may have set the variable itself, by importing ucindex.cli
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(ucindex.__file__).resolve().parent.parent)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        timeout=60, env=env,
    )
    if blas is None:
        assert result.stderr == "0 False False 1 1 1\n"
    else:  # how many threads OpenBLAS then starts depends on the host's cores
        assert result.stderr.split()[:5] == ["0", "False", "False", "1", blas], result.stderr


@pytest.mark.parametrize("n, extra", [(400, []), (4, ["--standardize"])],
                         ids=["multi-tile", "small"])
def test_compare_never_calls_row_indicator(tmp_path, capsys, monkeypatch, n, extra):
    # the CLI takes every indicator with window_indicator; only a rebound gram_matrix reaches
    # row_indicator, which is therefore a plain reference with no memory bound of its own
    def stub(matrix):
        raise AssertionError("row_indicator called")

    widths, gram_block = [], indicator._gram_block

    def spy(w, k, rows):  # one call a tile: its width is n - r for the tile at row r
        widths.append(w.shape[-1])
        return gram_block(w, k, rows)

    monkeypatch.setattr(indicator, "row_indicator", stub)
    monkeypatch.setattr(indicator, "_gram_block", spy)
    rng = np.random.default_rng(n)
    for mode in ("basic", "universal"):
        values = rng.uniform(1, 10, size=(n, 16))
        # at n = 400 mixed signs keep the windows off the one-sign form, so they take the tiles
        write_series(tmp_path / f"{mode}.csv", mixed_signs(values) if n == 400 else values)
    command = ["compare", "--basic", str(tmp_path / "basic.csv"),
               "--universal", str(tmp_path / "universal.csv"), "--window", "12", *extra]
    assert cli_main(command) == 0, capsys.readouterr().err
    if n == 400:  # 4 windows a mode, each a first tile of full width and one more
        assert len(widths) == 2 * widths.count(n) == 16, widths


# each command's options: option string (a positional's name) -> (default, choices, required)
COMMAND_FLAGS = {
    "indicator": {
        "series": (None, None, True),
        "--window": (12, None, False),
        "--standardize": (False, None, False),
        "--warmup": ("skip", ["skip", "shrink"], False),
        "--label": ("series", None, False),
        "--out": (None, None, False),
    },
    "compare": {
        "--basic": (None, None, True),
        "--universal": (None, None, False),
        "--compliance": (None, None, False),
        "--derive": ("mask", ["mask", "weight"], False),
        "--window": (12, None, False),
        "--standardize": (False, None, False),
        "--warmup": ("skip", ["skip", "shrink"], False),
        "--format": ("table", ["table", "csv"], False),
        "--out": (None, None, False),
        "--plot-data": (None, None, False),
        "--stamp": (False, None, False),
    },
    "simulate": {
        "--scenario": (None, None, False),
        "--seed": (None, None, False),
        "--out-dir": (None, None, True),
    },
    "report": {
        "scalars": (None, None, True),
        "--format": ("table", ["table", "csv"], False),
        "--out": (None, None, False),
        "--stamp": (False, None, False),
    },
    "check-budget": {
        "--compliance": (None, None, True),
        "--budget": (None, None, True),
        "--costs": (None, None, False),
        "--unit-cost": (None, None, False),
    },
    "fixture-verify": {
        "--fixture": (None, None, False),
    },
}


def test_each_command_declares_its_flags_once():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert list(commands) == list(COMMAND_FLAGS)
    for name, command in commands.items():
        actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        declared = [(" ".join(a.option_strings) or a.dest,
                     (a.default, None if a.choices is None else list(a.choices), a.required))
                    for a in actions]
        assert len(declared) == len(dict(declared)), name  # no option declared twice
        assert dict(declared) == COMMAND_FLAGS[name], name


def write_compliance(path, rows: list[str]) -> str:
    n = len(rows[0].split(","))
    header = "competency_id," + ",".join(f"p{j}" for j in range(n))
    path.write_text("\n".join([header, *(f"{i},{r}" for i, r in enumerate(rows, 1))]) + "\n",
                    encoding="utf-8")
    return str(path)


def assert_one_non_finite_line(capsys, code: int) -> str:
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1, captured.err
    assert captured.err.startswith("error: NonFiniteValue: "), captured.err
    return captured.err


@pytest.mark.parametrize("costs", ["file", "unit"])
def test_an_activation_cost_past_the_largest_float_is_one_error_line(tmp_path, capsys, costs):
    # fsum of two active costs of 1e308 overflows: the exact cost is past the largest float
    command = ["check-budget", "--compliance", write_compliance(tmp_path / "c.csv", ["1,0", "0,1"]),
               "--budget", "1"]
    if costs == "file":
        path = tmp_path / "costs.csv"
        path.write_text("competency_id,cost\n1,1e308\n2,1e308\n", encoding="utf-8")
        command += ["--costs", str(path)]
    else:
        command += ["--unit-cost", "1e308"]
    err = assert_one_non_finite_line(capsys, cli_main(command))
    assert err == "error: NonFiniteValue: the activation cost overflows\n"


@pytest.mark.parametrize("fields", [
    {"base_level": 1e308, "noise_scale": 1e308},
    {"event_effect": 1e308, "events": [{"period": 2, "kind": "hire", "role": "ops", "count": 1}]},
], ids=["noise-around-the-base-level", "hire-effect"])
def test_simulate_overflow_is_one_error_line_and_writes_nothing(tmp_path, capsys, fields):
    doc = tmp_path / "scenario.json"
    doc.write_text(json.dumps({"t_max": 6, "n": 2, "seed": 1, **fields}), encoding="utf-8")
    out_dir = tmp_path / "sim"
    code = cli_main(["simulate", "--scenario", str(doc), "--out-dir", str(out_dir)])
    assert_one_non_finite_line(capsys, code)
    assert not out_dir.exists()


def test_a_weight_derivation_past_the_largest_float_is_one_error_line(tmp_path, capsys):
    # each process is covered by two competencies, so its weight 2 doubles cells of 1e308
    (tmp_path / "basic.csv").write_text(
        "t,a,b\n" + "".join(f"{t},1e308,1e308\n" for t in range(1, 15)), encoding="utf-8")
    compliance = write_compliance(tmp_path / "c.csv", ["1,1", "1,1"])
    code = cli_main(["compare", "--basic", str(tmp_path / "basic.csv"), "--compliance", compliance,
                     "--derive", "weight"])
    assert_one_non_finite_line(capsys, code)
