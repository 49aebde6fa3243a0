from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ucindex
from ucindex import ProcessSeries
from ucindex.cli import cli_main
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
        assert "differs from declared" in capsys.readouterr().err


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
        assert "ConfigMismatch" in capsys.readouterr().err

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
        assert "REJECT" in captured.out
        assert "budget exceeded" in captured.err

    def test_exact_limit_accepted(self, tmp_path):
        compliance = self.write_compliance(tmp_path, ["1,0", "0,1"])
        code = cli_main([
            "check-budget", "--compliance", compliance,
            "--budget", "10", "--unit-cost", "5",
        ])
        assert code == 0


SCALAR_HEADER = "t,basic,universal_competencies\n"


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
    ],
    ids=["non-utf8", "digit-grouping", "nan", "inf", "overflow", "minus-inf",
         "extra-scalar-column", "wrong-scalar-name", "swapped-scalar-columns"],
)
def test_malformed_input_is_one_error_line(tmp_path, capsys, command, content, message):
    path = tmp_path / "input.csv"
    path.write_bytes(content)
    assert cli_main([command, str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]
    assert captured.out == ""


def test_python_dash_m_runs_the_cli():
    src = str(Path(ucindex.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "ucindex", "--version"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"ucindex {ucindex.__version__}\n"
