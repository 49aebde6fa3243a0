"""Command-line interface.

Subcommands:

* ``indicator``      -- per-period indicators of one series file
* ``compare``        -- basic vs competency mode report (two series, or one
                        series plus a compliance matrix)
* ``simulate``       -- generate scenario data files
* ``report``         -- re-report precomputed per-period scalars
* ``check-budget``   -- gate a compliance mapping against a resource limit
* ``fixture-verify`` -- ingest the shipped reference fixture and check totals

Exit codes: 0 success, 1 domain or OS error (one ``error: <class>: ...``
line on stderr names the violated invariant or the OSError type), 2 usage
error. Data goes to stdout or to files; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
from pathlib import Path
from typing import Iterable

from ._version import __version__
from .competencies import DerivationRule, ResourceBudget, check_budget, derive_mode_series
from .errors import BudgetExceeded, FixtureMismatch, InvalidScenario, UcindexError
from .indicator import (
    Warmup,
    WindowConfig,
    compare_modes,
    indicator_series,
    ingest_precomputed,
    scalar_per_period,
)
from .io_formats import (
    atomic_write,
    load_mode_fixture,
    metadata_lines,
    read_compliance_csv,
    read_costs_csv,
    read_scalar_csv,
    read_scenario_json,
    read_series_csv,
    row_chunks,
    staged_writes,
    write_scenario_json,
    write_series_csv,
)
from .report import ReportFormat, build_report_table, emit_plot_data, report_chunks, window_metadata
from .scenario import NOISE_ALGORITHM, generate_series, reference_scenario

FIXTURE_TOLERANCE = 0.02  # the reference table is printed at 2 decimals

BASIC_LABEL = "basic"
COMPETENCY_LABEL = "universal-competencies"


def _write_or_print(chunks: Iterable[str], out: str | None) -> None:
    """Stream chunks to ``out`` or stdout; callers build what can fail before the chunks."""
    if out is not None:
        atomic_write(out, chunks)
    else:
        sys.stdout.writelines(chunks)


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=12, metavar="K",
                   help="lag window length in periods (default: 12)")
    p.add_argument("--standardize", action="store_true",
                   help="standardize window columns before the cross-moments")
    p.add_argument("--warmup", choices=[w.value for w in Warmup], default="skip",
                   help="policy for periods without a full window (default: skip)")


def cmd_indicator(args: argparse.Namespace) -> int:
    series = read_series_csv(args.series)
    config = WindowConfig(args.window, args.standardize, args.warmup)
    result = indicator_series(series, config, mode_label=args.label)
    metadata = metadata_lines([("mode", result.mode_label), *window_metadata(result.config),
                               ("total", repr(result.total))])
    header = "t," + ",".join(series.variable_labels) + ",scalar\n"
    rows = row_chunks(result.first_period, lambda t, v, s: f"{t},{','.join(map(repr, v))},{s!r}",
                      result.values, scalar_per_period(result))
    _write_or_print(itertools.chain([header], rows, ["\n".join(metadata) + "\n"]), args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = WindowConfig(args.window, args.standardize, args.warmup)
    basic_series = read_series_csv(args.basic)
    if args.universal:
        competency_series = read_series_csv(args.universal)
        derivation = None
    else:
        matrix = read_compliance_csv(args.compliance)
        competency_series = derive_mode_series(basic_series, matrix, args.derive)
        derivation = args.derive
    basic = indicator_series(basic_series, config, mode_label=BASIC_LABEL)
    competency = indicator_series(competency_series, config, mode_label=COMPETENCY_LABEL)
    comparison = compare_modes(basic, competency)
    table = build_report_table(comparison, derivation=derivation, stamp=args.stamp)
    with staged_writes() as write:
        if args.plot_data is not None:
            emit_plot_data(comparison, args.plot_data, write)
        if args.out is not None:
            write(args.out, report_chunks(table, args.format))
    if args.out is None:  # only once every file is in place
        sys.stdout.writelines(report_chunks(table, args.format))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = read_scenario_json(args.scenario) if args.scenario else reference_scenario()
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    try:
        basic, competency = generate_series(scenario)
    except (MemoryError, ValueError) as exc:  # too large to allocate, or to index
        raise InvalidScenario(f"{scenario.n} x {scenario.t_max} values do not fit: {exc}") from None
    os.makedirs(args.out_dir, exist_ok=True)  # "" raises, where Path("") would name "."
    out_dir = Path(args.out_dir)
    metadata = [("seed", str(scenario.seed)), ("noise", NOISE_ALGORITHM)]
    with staged_writes() as write:
        write_scenario_json(out_dir / "scenario.json", scenario, write)
        write_series_csv(out_dir / "basic.csv", basic,
                         metadata_lines([*metadata, ("mode", BASIC_LABEL)]), write)
        write_series_csv(out_dir / "universal.csv", competency,
                         metadata_lines([*metadata, ("mode", COMPETENCY_LABEL)]), write)
    for name in ("scenario.json", "basic.csv", "universal.csv"):
        print(out_dir / name)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    first, basic_scalars, competency_scalars = read_scalar_csv(args.scalars)
    basic = ingest_precomputed(basic_scalars, BASIC_LABEL, first_period=first)
    competency = ingest_precomputed(competency_scalars, COMPETENCY_LABEL, first_period=first)
    table = build_report_table(compare_modes(basic, competency), stamp=args.stamp)
    _write_or_print(report_chunks(table, args.format), args.out)
    return 0


def cmd_check_budget(args: argparse.Namespace) -> int:
    matrix = read_compliance_csv(args.compliance)
    if args.costs:
        costs = read_costs_csv(args.costs)
    else:
        costs = (args.unit_cost,) * matrix.m
    budget = ResourceBudget(limit_c=args.budget, cost_per_competency=costs)
    result = check_budget(matrix, budget)
    verdict = "ACCEPT" if result.accepted else "REJECT"
    print(f"{verdict} cost={result.cost} limit={result.limit}")
    if not result.accepted:
        raise BudgetExceeded(f"budget exceeded: cost {result.cost} > limit {result.limit}")
    return 0


def cmd_fixture_verify(args: argparse.Namespace) -> int:
    fixture = load_mode_fixture(args.fixture)
    basic = ingest_precomputed(fixture.basic, BASIC_LABEL)
    competency = ingest_precomputed(fixture.competency, COMPETENCY_LABEL)
    comparison = compare_modes(basic, competency)
    checks = (
        ("basic_total", comparison.basic.total, fixture.declared_total_basic),
        ("competency_total", comparison.competency.total, fixture.declared_total_competency),
        ("delta_total", comparison.delta_total, fixture.declared_total_delta),
    )
    failed = []
    for name, computed, declared in checks:
        print(f"{name}={computed:.2f}")
        if abs(computed - declared) > FIXTURE_TOLERANCE:
            failed.append(f"{name} {computed:.4f} differs from declared {declared:.2f}")
    if failed:
        raise FixtureMismatch(f"{'; '.join(failed)} (by more than {FIXTURE_TOLERANCE})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucindex",
        description="Integral correlation indicators over enterprise process series.",
    )
    parser.add_argument("--version", action="version", version=f"ucindex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indicator", help="compute per-period indicators of one series")
    p.add_argument("series", help="series CSV file")
    _add_window_flags(p)
    p.add_argument("--label", default="series", help="mode label echoed in the output")
    p.add_argument("--out", metavar="PATH", help="write to file instead of stdout")
    p.set_defaults(func=cmd_indicator)

    p = sub.add_parser("compare", help="compare basic vs competency management modes")
    p.add_argument("--basic", required=True, metavar="PATH", help="basic-mode series CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--universal", metavar="PATH", help="competency-mode series CSV")
    src.add_argument("--compliance", metavar="PATH",
                     help="compliance matrix CSV to derive the competency mode from")
    p.add_argument("--derive", choices=[r.value for r in DerivationRule], default="mask",
                   help="derivation rule when using --compliance (default: mask)")
    _add_window_flags(p)
    p.add_argument("--format", choices=[f.value for f in ReportFormat], default="table")
    p.add_argument("--out", metavar="PATH", help="write report to file instead of stdout")
    p.add_argument("--plot-data", metavar="PATH", help="also write per-period scalars CSV")
    p.add_argument("--stamp", action="store_true", help="add a generation timestamp")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="generate scenario data files")
    p.add_argument("--scenario", metavar="PATH",
                   help="scenario JSON (default: built-in 57-period demo)")
    p.add_argument("--seed", type=int, metavar="N", help="override the scenario seed")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="re-report precomputed per-period scalars")
    p.add_argument("scalars", help="CSV with header t,basic,universal_competencies")
    p.add_argument("--format", choices=[f.value for f in ReportFormat], default="table")
    p.add_argument("--out", metavar="PATH", help="write report to file instead of stdout")
    p.add_argument("--stamp", action="store_true", help="add a generation timestamp")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check-budget", help="gate a compliance mapping against a resource limit")
    p.add_argument("--compliance", required=True, metavar="PATH")
    p.add_argument("--budget", required=True, type=float, metavar="C",
                   help="resource limit (thousand rubles)")
    costs = p.add_mutually_exclusive_group(required=True)
    costs.add_argument("--costs", metavar="PATH", help="per-competency costs CSV")
    costs.add_argument("--unit-cost", type=float, metavar="X",
                       help="uniform activation cost per competency")
    p.set_defaults(func=cmd_check_budget)

    p = sub.add_parser("fixture-verify",
                       help="check the shipped reference fixture's totals")
    p.add_argument("--fixture", metavar="PATH",
                   help="alternative fixture file (default: shipped)")
    p.set_defaults(func=cmd_fixture_verify)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except (UcindexError, OSError) as exc:  # the only place that writes an error line
        message = "\\n".join(str(exc).splitlines())  # a key or path may hold a line break
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())
