from __future__ import annotations

from fractions import Fraction
from math import fsum

import numpy as np
import pytest

from ucindex import (
    BadWindow,
    ConfigMismatch,
    DimensionMismatch,
    NegativeIndicator,
    NonFiniteValue,
    ProcessSeries,
    SeriesTooShort,
    WindowConfig,
    compare_modes,
    gram_matrix,
    gram_matrix_bruteforce,
    indicator_series,
    ingest_precomputed,
    load_mode_fixture,
    scalar_per_period,
)
from ucindex.indicator import (
    IndicatorSeries,
    ModeComparison,
    Warmup,
    row_indicator,
    standardize_window,
)


def labelled(values: np.ndarray) -> ProcessSeries:
    return ProcessSeries(
        values=values, variable_labels=tuple(f"v{i}" for i in range(values.shape[0]))
    )


def exact_sum(values) -> Fraction:
    return sum(map(Fraction, np.ravel(values).tolist()), Fraction(0))


def assert_exact_deltas(comparison: ModeComparison) -> None:
    """Each delta equals the exact difference of the two modes' values, rounded once."""
    pairs = zip(comparison.basic.values, comparison.competency.values)
    want = [float(exact_sum(c) - exact_sum(b)) for b, c in pairs]
    assert comparison.delta_per_period.tolist() == want
    basic, competency = comparison.basic.values, comparison.competency.values
    assert comparison.delta_total == float(exact_sum(competency) - exact_sum(basic))


def brute_force_total(series: ProcessSeries, k: int) -> float:
    """Independent oracle: explicit double sum over periods and variables.

    Slices the lag window by hand, uses the loop-based cross-moment oracle,
    and accumulates plain absolute row sums.
    """
    total = 0.0
    for t in range(k + 1, series.t_max + 1):
        window = np.array(
            [[series.values[i, t - l - 1] for i in range(series.n)] for l in range(1, k + 1)]
        )
        g = gram_matrix_bruteforce(window, k)
        for i in range(series.n):
            total += sum(abs(g[i, j]) for j in range(series.n))
    return total


class TestGramMatrix:
    def test_single_variable_two_lags(self):
        # window column (2, 3): (2*2 + 3*3) / (2-1) = 13
        window = np.array([[2.0], [3.0]])
        assert gram_matrix(window, 2)[0, 0] == 13.0

    def test_zero_window_gives_zero_matrix(self):
        assert not gram_matrix(np.zeros((4, 3)), 4).any()

    def test_all_ones_window(self):
        # sum of five ones over k-1=4
        g = gram_matrix(np.ones((5, 2)), 5)
        assert np.array_equal(g, np.full((2, 2), 1.25))

    def test_rejects_k_below_two(self):
        with pytest.raises(BadWindow):
            gram_matrix(np.ones((1, 2)), 1)

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(BadWindow):
            gram_matrix(np.ones((3, 2)), 4)

    def test_symmetry_is_bit_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            window = rng.normal(size=(6, 5)) * 10
            g = gram_matrix(window, 6)
            assert np.array_equal(g, g.T)


class TestBruteForceOracle:
    def test_same_hand_computed_value(self):
        window = np.array([[2.0], [3.0]])
        assert gram_matrix_bruteforce(window, 2)[0, 0] == 13.0

    def test_zero_window(self):
        assert not gram_matrix_bruteforce(np.zeros((2, 2)), 2).any()

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_fast_path(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 9)
        k = rng.integers(2, 11)
        window = rng.uniform(-10, 10, size=(k, n))
        fast = gram_matrix(window, k)
        slow = gram_matrix_bruteforce(window, k)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)


class TestRowIndicator:
    def test_identity_matrix(self):
        assert row_indicator(np.eye(4)).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_zero_matrix(self):
        assert not row_indicator(np.zeros((3, 3))).any()

    def test_absolute_values_summed(self):
        entries = np.array([[1.25, -0.5], [-0.5, 2.0]])
        assert row_indicator(entries).tolist() == [1.75, 2.5]


class TestStandardizeWindow:
    def test_columns_become_zero_mean_unit_variance(self):
        rng = np.random.default_rng(3)
        z = standardize_window(rng.normal(size=(8, 4)))
        np.testing.assert_allclose(z.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), 1, rtol=1e-12)

    def test_constant_column_maps_to_zero(self):
        window = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        z = standardize_window(window)
        assert not z[:, 0].any()
        assert z[:, 1].any()

    def test_standardized_gram_bounded_with_unit_diagonal(self):
        rng = np.random.default_rng(11)
        window = rng.uniform(-10, 10, size=(7, 5))
        g = gram_matrix(standardize_window(window), 7)
        assert np.abs(g).max() <= 1 + 1e-9
        np.testing.assert_allclose(np.diag(g), 1.0, rtol=1e-12)


class TestIndicatorSeries:
    def test_zero_series(self):
        result = indicator_series(labelled(np.zeros((2, 10))), WindowConfig(k=3))
        assert not result.values.any()
        assert result.total == 0.0

    def test_constant_ones_closed_form(self):
        # every window is all ones: r_ij = k/(k-1), row sum = n*k/(k-1)
        result = indicator_series(labelled(np.ones((3, 20))), WindowConfig(k=5))
        assert result.periods == range(6, 21)
        np.testing.assert_allclose(result.values, 3.75, rtol=1e-12)
        np.testing.assert_allclose(scalar_per_period(result), 11.25, rtol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2024)
        series = labelled(rng.uniform(-10, 10, size=(4, 20)))
        result = indicator_series(series, WindowConfig(k=6))
        oracle = brute_force_total(series, 6)
        assert abs(result.total - oracle) <= 1e-9 * abs(oracle)

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            indicator_series(labelled(np.ones((2, 5))), WindowConfig(k=5))

    def test_shrink_warmup_starts_at_period_three(self):
        series = labelled(np.arange(24.0).reshape(2, 12) + 1)
        result = indicator_series(series, WindowConfig(k=5, warmup=Warmup.SHRINK))
        assert result.periods[0] == 3
        # at t=3 only two lags exist; the value must match a k=2 window
        by_hand = row_indicator(
            gram_matrix(series.values[:, [1, 0]].T.copy(), 2)
        )
        np.testing.assert_allclose(result.values[0], by_hand, rtol=1e-12)

    def test_shrink_equals_skip_after_warmup(self):
        rng = np.random.default_rng(5)
        series = labelled(rng.normal(size=(3, 15)))
        skip = indicator_series(series, WindowConfig(k=4))
        shrink = indicator_series(series, WindowConfig(k=4, warmup=Warmup.SHRINK))
        offset = shrink.periods.index(skip.periods[0])
        assert shrink.periods[offset:] == skip.periods
        np.testing.assert_allclose(shrink.values[offset:], skip.values, rtol=1e-12)

    def test_total_is_exact_sum_of_values(self):
        rng = np.random.default_rng(8)
        result = indicator_series(labelled(rng.normal(size=(5, 30))), WindowConfig(k=7))
        assert result.total == fsum(result.values.ravel())

    def test_periods_and_t_max_derive_from_first_period(self):
        series = IndicatorSeries(4, [[1.0], [2.0], [3.0]], None, "basic")
        assert series.periods == range(4, 7)
        assert series.t_max == 6
        assert series.total == 6.0

    @pytest.mark.parametrize(
        "first_period, values, error",
        [(0, [[1.0]], DimensionMismatch), (1, [1.0, 2.0], DimensionMismatch),
         (1, np.empty((0, 1)), SeriesTooShort)],
        ids=["first-period-zero", "flat-values", "no-periods"],
    )
    def test_rejects_bad_first_period_or_shape(self, first_period, values, error):
        with pytest.raises(error):
            IndicatorSeries(first_period, values, None, "basic")

    def test_overflow_names_label_and_period(self):
        values = np.arange(1.0, 61.0).reshape(3, 20)
        values[1, 5] = 1e200  # variable 2 at period 6 enters the windows of periods 7..9
        for standardize in (False, True):
            config = WindowConfig(k=3, standardize=standardize)
            with pytest.raises(NonFiniteValue, match="spiked, period 7: overflow"):
                indicator_series(labelled(values), config, "spiked")

    def test_overflowing_total_is_non_finite_value(self):
        with pytest.raises(NonFiniteValue, match="big: the indicator total overflows"):
            IndicatorSeries(1, [[1e308], [1e308]], None, "big")


class TestScalarPerPeriod:
    def test_single_variable_is_identity(self):
        result = indicator_series(labelled(np.ones((1, 10))), WindowConfig(k=3))
        np.testing.assert_array_equal(scalar_per_period(result), result.values[:, 0])

    def test_zero_series(self):
        result = indicator_series(labelled(np.zeros((3, 10))), WindowConfig(k=3))
        assert not scalar_per_period(result).any()

    def test_sums_match_total(self):
        rng = np.random.default_rng(9)
        result = indicator_series(labelled(rng.normal(size=(4, 18))), WindowConfig(k=5))
        assert abs(fsum(scalar_per_period(result)) - result.total) <= 1e-9 * abs(result.total)


class TestIngestPrecomputed:
    def test_single_value(self):
        series = ingest_precomputed([5.0], "basic")
        assert series.total == 5.0
        assert series.periods == range(1, 2)
        assert series.n == 1
        assert series.config is None

    def test_rejects_empty(self):
        with pytest.raises(SeriesTooShort):
            ingest_precomputed([], "basic")

    def test_rejects_nested_values(self):
        with pytest.raises(DimensionMismatch):
            ingest_precomputed([[1.0, 2.0]], "basic")

    def test_rejects_negative(self):
        with pytest.raises(NegativeIndicator):
            ingest_precomputed([1.0, -0.1], "basic")

    def test_fixture_totals_within_published_rounding(self):
        fixture = load_mode_fixture()
        basic = ingest_precomputed(fixture.basic, "basic")
        competency = ingest_precomputed(fixture.competency, "universal-competencies")
        assert abs(basic.total - 5069.93) <= 0.02
        assert abs(competency.total - 5491.17) <= 0.02


class TestCompareModes:
    def test_identical_series_zero_delta(self):
        result = indicator_series(labelled(np.ones((2, 10))), WindowConfig(k=3), "basic")
        comparison = compare_modes(result, result)
        assert not comparison.delta_per_period.any()
        assert comparison.delta_total == 0.0

    def test_fixture_row_deltas(self):
        fixture = load_mode_fixture()
        basic = ingest_precomputed(fixture.basic, "basic")
        competency = ingest_precomputed(fixture.competency, "universal-competencies")
        comparison = compare_modes(basic, competency)
        deltas = dict(zip(comparison.periods, comparison.delta_per_period))
        assert abs(deltas[1] - 23.33) <= 0.02
        assert abs(deltas[6] - 36.60) <= 0.02
        assert abs(deltas[19] - 0.00) <= 0.02

    def test_fixture_total_delta(self):
        fixture = load_mode_fixture()
        comparison = compare_modes(
            ingest_precomputed(fixture.basic, "basic"),
            ingest_precomputed(fixture.competency, "universal-competencies"),
        )
        assert abs(comparison.delta_total - 421.24) <= 0.02

    def test_mismatched_t_max_rejected(self):
        a = ingest_precomputed([1.0, 2.0], "basic")
        b = ingest_precomputed([1.0, 2.0, 3.0], "uc")
        with pytest.raises(ConfigMismatch):
            compare_modes(a, b)

    def test_mismatched_config_rejected(self):
        series = labelled(np.ones((2, 10)))
        a = indicator_series(series, WindowConfig(k=3), "basic")
        b = indicator_series(series, WindowConfig(k=4), "uc")
        with pytest.raises(ConfigMismatch):
            compare_modes(a, b)

    def test_mismatched_variable_count_rejected(self):
        a = indicator_series(labelled(np.ones((2, 10))), WindowConfig(k=3), "basic")
        b = indicator_series(labelled(np.ones((3, 10))), WindowConfig(k=3), "uc")
        with pytest.raises(ConfigMismatch):
            compare_modes(a, b)

    def test_deltas_are_exact_on_the_computed_path(self, nearly_equal_series):
        config = WindowConfig(k=12)
        basic, competency = (indicator_series(labelled(x.T), config) for x in nearly_equal_series)
        comparison = compare_modes(basic, competency)
        assert_exact_deltas(comparison)
        assert comparison.delta_total == 10396227.5

    def test_deltas_are_exact_on_the_ingest_path(self, nearly_equal_scalars):
        basic, competency = (ingest_precomputed(x, "mode") for x in nearly_equal_scalars)
        comparison = compare_modes(basic, competency)
        assert_exact_deltas(comparison)
        assert comparison.delta_total == 4948.375

    def test_direct_construction_enforces_shared_axis(self):
        a = ingest_precomputed([1.0, 2.0], "basic")
        b = ingest_precomputed([1.0, 2.0, 3.0], "uc")
        with pytest.raises(ConfigMismatch):
            ModeComparison(basic=a, competency=b)

