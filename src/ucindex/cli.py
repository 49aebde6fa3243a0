"""Command-line interface.

Subcommands:

* ``indicator``      -- per-period indicators of one series file
* ``compare``        -- basic vs competency mode report (two series, or one
                        series plus a compliance matrix)
* ``simulate``       -- generate scenario data files
* ``report``         -- re-report precomputed per-period scalars
* ``check-budget``   -- gate a compliance mapping against a resource limit
* ``fixture-verify`` -- ingest the shipped reference fixture and check totals

Exit codes: 0 success, 1 domain error (the violated invariant is named on
stderr), 2 usage error. Data goes to stdout or to files; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ._version import __version__
from .competencies import DerivationRule, ResourceBudget, check_budget, derive_mode_series
from .errors import UcindexError
from .indicator import (
    Warmup,
    WindowConfig,
    compare_modes,
    indicator_series,
    ingest_precomputed,
    scalar_per_period,
)
from .io_formats import (
    atomic_write_text,
    load_mode_fixture,
    read_compliance_csv,
    read_costs_csv,
    read_scalar_csv,
    read_scenario_json,
    read_series_csv,
    write_scenario_json,
    write_series_csv,
)
from .report import ReportFormat, emit_plot_data, emit_report, window_metadata
from .scenario import NOISE_ALGORITHM, generate_series, reference_scenario

FIXTURE_TOLERANCE = 0.02  # the reference table is printed at 2 decimals

BASIC_LABEL = "basic"
COMPETENCY_LABEL = "universal-competencies"


def _window_config(args: argparse.Namespace) -> WindowConfig:
    return WindowConfig(
        k=args.window,
        standardize=args.standardize,
        warmup=Warmup(args.warmup),
    )


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=12, metavar="K",
                   help="lag window length in periods (default: 12)")
    p.add_argument("--standardize", action="store_true",
                   help="standardize window columns before the cross-moments")
    p.add_argument("--warmup", choices=[w.value for w in Warmup], default="skip",
                   help="policy for periods without a full window (default: skip)")


def cmd_indicator(args: argparse.Namespace) -> int:
    series = read_series_csv(args.series)
    result = indicator_series(series, _window_config(args), mode_label=args.label)
    scalars = scalar_per_period(result)
    lines = ["t," + ",".join(series.variable_labels) + ",scalar"]
    for r, t in enumerate(result.periods):
        values = ",".join(repr(float(v)) for v in result.values[r])
        lines.append(f"{t},{values},{float(scalars[r])!r}")
    lines.append(f"# tool=ucindex {__version__}")
    lines.append(f"# mode={result.mode_label}")
    lines.extend(f"# {key}={value}" for key, value in window_metadata(result.config))
    lines.append(f"# total={result.total!r}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _window_config(args)
    basic_series = read_series_csv(args.basic)
    if args.universal:
        competency_series = read_series_csv(args.universal)
        derivation = None
    else:
        matrix = read_compliance_csv(args.compliance)
        rule = DerivationRule(args.derive)
        competency_series = derive_mode_series(basic_series, matrix, rule)
        derivation = rule.value
    basic = indicator_series(basic_series, config, mode_label=BASIC_LABEL)
    competency = indicator_series(competency_series, config, mode_label=COMPETENCY_LABEL)
    comparison = compare_modes(basic, competency)
    text = emit_report(comparison, args.format, derivation=derivation, stamp=args.stamp)
    _write_or_print(text, args.out)
    if args.plot_data:
        emit_plot_data(comparison, args.plot_data)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = read_scenario_json(args.scenario) if args.scenario else reference_scenario()
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    basic, competency = generate_series(scenario)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metadata = {
        "tool": f"ucindex {__version__}",
        "seed": str(scenario.seed),
        "noise": NOISE_ALGORITHM,
    }
    write_scenario_json(out_dir / "scenario.json", scenario)
    write_series_csv(out_dir / "basic.csv", basic,
                     metadata={**metadata, "mode": BASIC_LABEL})
    write_series_csv(out_dir / "universal.csv", competency,
                     metadata={**metadata, "mode": COMPETENCY_LABEL})
    for name in ("scenario.json", "basic.csv", "universal.csv"):
        print(out_dir / name)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    first, basic_scalars, competency_scalars = read_scalar_csv(args.scalars)
    basic = ingest_precomputed(basic_scalars, BASIC_LABEL, first_period=first)
    competency = ingest_precomputed(competency_scalars, COMPETENCY_LABEL, first_period=first)
    comparison = compare_modes(basic, competency)
    text = emit_report(comparison, args.format, stamp=args.stamp)
    _write_or_print(text, args.out)
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
        print(
            f"error: budget exceeded: cost {result.cost} > limit {result.limit}",
            file=sys.stderr,
        )
        return 1
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
        print(f"error: {'; '.join(failed)} (by more than {FIXTURE_TOLERANCE})", file=sys.stderr)
        return 1
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
    except UcindexError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())
