"""Acceptance gate: every release criterion, at its pinned tolerance.

Each test prints one ``[acceptance] ... PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure) and asserts the criterion.
"""

from __future__ import annotations

import time
from math import fsum

import numpy as np

from ucindex import (
    ComplianceMatrix,
    ProcessSeries,
    ResourceBudget,
    WindowConfig,
    check_budget,
    compare_modes,
    emit_report,
    generate_series,
    gram_matrix,
    gram_matrix_bruteforce,
    indicator_series,
    ingest_precomputed,
    load_mode_fixture,
    reference_scenario,
    scalar_per_period,
)
from ucindex.cli import cli_main

FIXTURE_TOTAL_TOL = 0.02  # published table rounding
REL_TOL_ORACLE = 1e-12
REL_TOL_SUM = 1e-9
EIG_FLOOR = -1e-10


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"{criterion}: {detail}"


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def test_criterion_1_fixture_totals(capsys):
    start = time.perf_counter()
    code = cli_main(["fixture-verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    totals = {
        line.split("=")[0]: float(line.split("=")[1])
        for line in out.splitlines()
        if "=" in line
    }
    ok = (
        code == 0
        and abs(totals["basic_total"] - 5069.93) <= FIXTURE_TOTAL_TOL
        and abs(totals["competency_total"] - 5491.17) <= FIXTURE_TOTAL_TOL
        and abs(totals["delta_total"] - 421.24) <= FIXTURE_TOTAL_TOL
        and elapsed < 1.0
    )
    with capsys.disabled():
        check(
            "criterion 1 (fixture totals)",
            ok,
            f"exit={code} totals={totals} elapsed={elapsed:.3f}s",
        )


def test_criterion_2_fixture_row_deltas():
    fixture = load_mode_fixture()
    comparison = compare_modes(
        ingest_precomputed(fixture.basic, "basic"),
        ingest_precomputed(fixture.competency, "universal-competencies"),
    )
    deltas = dict(zip(comparison.periods, comparison.delta_per_period))
    expected = {1: 23.33, 6: 36.60, 19: 0.00}
    bad = {
        t: (deltas[t], want)
        for t, want in expected.items()
        if abs(deltas[t] - want) > FIXTURE_TOTAL_TOL
    }
    # rows with printed inconsistencies stay inside the same band
    printed_ok = all(
        abs((c - b) - d) <= FIXTURE_TOTAL_TOL
        for b, c, d in zip(fixture.basic, fixture.competency, fixture.delta_printed)
    )
    check(
        "criterion 2 (fixture row deltas)",
        not bad and printed_ok,
        f"checked t=1,6,19 and all 57 printed rows at +/-{FIXTURE_TOTAL_TOL}; "
        f"violations={bad or 'none'}",
    )


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        k = int(rng.integers(2, 11))
        window = rng.uniform(-10, 10, size=(k, n))
        fast = gram_matrix(window, k)
        slow = gram_matrix_bruteforce(window, k)
        scale = np.maximum(np.abs(fast), np.abs(slow))
        err = np.abs(fast - slow)
        mask = scale > 0
        if mask.any():
            worst = max(worst, float((err[mask] / scale[mask]).max()))
        if err[~mask].any():
            worst = max(worst, np.inf)
    elapsed = time.perf_counter() - start
    check(
        "criterion 3 (oracle equivalence, 1000 instances)",
        worst <= REL_TOL_ORACLE and elapsed < 10.0,
        f"worst relative error={worst:.3e} elapsed={elapsed:.2f}s",
    )


def test_criterion_4_constant_closed_form():
    series = ProcessSeries(values=np.ones((3, 30)), variable_labels=("a", "b", "c"))
    result = indicator_series(series, WindowConfig(k=5))
    values_ok = bool(
        (np.abs(result.values - 3.75) <= REL_TOL_ORACLE * 3.75).all()
    )
    scalars = scalar_per_period(result)
    scalars_ok = bool((np.abs(scalars - 11.25) <= REL_TOL_ORACLE * 11.25).all())
    check(
        "criterion 4 (constant closed form)",
        values_ok and scalars_ok,
        f"V_i(t) max dev={np.abs(result.values - 3.75).max():.2e}, "
        f"scalar max dev={np.abs(scalars - 11.25).max():.2e}",
    )


def _random_window(rng: np.random.Generator) -> tuple[np.ndarray, int]:
    n = int(rng.integers(1, 9))
    k = int(rng.integers(2, 11))
    return rng.uniform(-10, 10, size=(k, n)), k


def _random_series(rng: np.random.Generator) -> ProcessSeries:
    n = int(rng.integers(1, 7))
    t = int(rng.integers(12, 26))
    return ProcessSeries(
        values=rng.uniform(-10, 10, size=(n, t)),
        variable_labels=tuple(f"v{i}" for i in range(n)),
    )


def test_criterion_5a_symmetry_bit_exact():
    failures = sum(
        not np.array_equal(g := gram_matrix(*_random_window(np.random.default_rng(s))), g.T)
        for s in range(100)
    )
    check("criterion 5a (symmetry, 100 seeds)", failures == 0, f"failures={failures}")


def test_criterion_5b_positive_semidefinite():
    worst = min(
        float(np.linalg.eigvalsh(gram_matrix(*_random_window(np.random.default_rng(s)))).min())
        for s in range(100)
    )
    check(
        "criterion 5b (PSD, 100 seeds)",
        worst >= EIG_FLOOR,
        f"min eigenvalue={worst:.3e} (floor {EIG_FLOOR})",
    )


def test_criterion_5c_nonnegative_indicators():
    failures = 0
    for s in range(100):
        rng = np.random.default_rng(s)
        result = indicator_series(_random_series(rng), WindowConfig(k=int(rng.integers(2, 7))))
        if (result.values < 0).any():
            failures += 1
    check("criterion 5c (V_i(t) >= 0, 100 seeds)", failures == 0, f"failures={failures}")


def test_criterion_5d_quadratic_scaling():
    worst = 0.0
    for s in range(100):
        rng = np.random.default_rng(s)
        series = _random_series(rng)
        alpha = float(rng.uniform(0.1, 5.0))
        config = WindowConfig(k=4)
        base = indicator_series(series, config)
        scaled = indicator_series(
            ProcessSeries(values=series.values * alpha, variable_labels=series.variable_labels),
            config,
        )
        expected = base.total * alpha**2
        worst = max(worst, abs(scaled.total - expected) / max(1.0, abs(expected)))
    check(
        "criterion 5d (alpha^2 scaling, 100 seeds)",
        worst <= REL_TOL_SUM,
        f"worst relative error={worst:.3e}",
    )


def test_criterion_5e_permutation_invariance():
    worst = 0.0
    for s in range(100):
        rng = np.random.default_rng(s)
        series = _random_series(rng)
        config = WindowConfig(k=4)
        perm = rng.permutation(series.n)
        permuted = ProcessSeries(
            values=series.values[perm],
            variable_labels=tuple(series.variable_labels[i] for i in perm),
        )
        base = indicator_series(series, config)
        shuffled = indicator_series(permuted, config)
        scalar_dev = np.abs(scalar_per_period(shuffled) - scalar_per_period(base))
        scalar_scale = np.maximum(1.0, np.abs(scalar_per_period(base)))
        worst = max(worst, float((scalar_dev / scalar_scale).max()))
        worst = max(worst, abs(shuffled.total - base.total) / max(1.0, abs(base.total)))
    check(
        "criterion 5e (permutation invariance, 100 seeds)",
        worst <= REL_TOL_SUM,
        f"worst relative deviation={worst:.3e}",
    )


def test_criterion_5f_total_additivity():
    worst = 0.0
    for s in range(100):
        rng = np.random.default_rng(s)
        result = indicator_series(_random_series(rng), WindowConfig(k=3))
        per_period = fsum(scalar_per_period(result))
        worst = max(worst, abs(per_period - result.total) / max(1.0, abs(result.total)))
    check(
        "criterion 5f (total additivity, 100 seeds)",
        worst <= REL_TOL_SUM,
        f"worst relative deviation={worst:.3e}",
    )


def test_criterion_6_budget_gate():
    matrix = ComplianceMatrix(entries=[[1, 1, 1]])
    accept = check_budget(
        matrix, ResourceBudget(limit_c=5_644_378.0, cost_per_competency=(2936.0,))
    )
    rejects = [
        not check_budget(
            matrix, ResourceBudget(limit_c=2936.0 - eps, cost_per_competency=(2936.0,))
        ).accepted
        for eps in (1e-9, 0.01, 1.0, 2936.0)
    ]
    boundary = check_budget(
        matrix, ResourceBudget(limit_c=2936.0, cost_per_competency=(2936.0,))
    ).accepted
    check(
        "criterion 6 (budget gate)",
        accept.accepted and all(rejects) and boundary,
        f"cost={accept.cost} within limit={accept.limit}; "
        f"any positive overrun rejected; exact limit accepted",
    )


def test_criterion_7_scenario_end_to_end():
    scenario = reference_scenario()
    config = WindowConfig(k=12)

    def pipeline() -> tuple[str, np.ndarray, np.ndarray]:
        basic_series, competency_series = generate_series(scenario)
        basic = indicator_series(basic_series, config, "basic")
        competency = indicator_series(competency_series, config, "universal-competencies")
        comparison = compare_modes(basic, competency)
        return (
            emit_report(comparison, "csv"),
            basic_series.values,
            competency_series.values,
        )

    start = time.perf_counter()
    report_a, basic_values, competency_values = pipeline()
    elapsed = time.perf_counter() - start
    report_b, _, _ = pipeline()

    pre_event_equal = np.array_equal(basic_values[:, :6], competency_values[:, :6])
    post_event_differs = not np.array_equal(basic_values[:, 6:], competency_values[:, 6:])
    check(
        "criterion 7 (scenario end to end)",
        pre_event_equal
        and post_event_differs
        and report_a == report_b
        and elapsed < 1.0,
        f"pre-event equal={pre_event_equal} post-event differs={post_event_differs} "
        f"reports byte-identical={report_a == report_b} elapsed={elapsed:.3f}s",
    )


def test_criterion_8_out_of_scope_run_replaced_by_stand_ins():
    # The published full-scale run (1.2 million parameters, 423-minute
    # computation) cannot be reproduced here: its raw enterprise data and the
    # original software were never released. The contract is instead carried
    # by the shipped 57-row fixture (criteria 1-2), the oracle equivalence
    # suite (criterion 3), and the invariant/scenario suites (criteria 4-7).
    fixture = load_mode_fixture()
    stand_ins_present = (
        len(fixture.basic) == 57
        and callable(gram_matrix_bruteforce)
        and reference_scenario().t_max == 57
    )
    check(
        "criterion 8 (full-scale run out of scope)",
        stand_ins_present,
        "published run not reproducible at desk scale; fixture + oracle + "
        "invariant suites stand in",
    )
