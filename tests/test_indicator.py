from __future__ import annotations

from fractions import Fraction
from math import fsum

import numpy as np
import pytest

import ucindex.indicator as indicator
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
from ucindex.process_model import slice_window


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


KERNEL = ("slice_window", "standardize_window", "gram_matrix", "row_indicator")


def record_kernel_calls(monkeypatch) -> list[tuple[str, range]]:
    """Patch the kernel functions in ``indicator`` to log each call with the periods it covers.

    A slice covers the periods its arguments name; every other kernel function
    covers those of the array it was passed, which must be one a kernel
    function returned. The patched functions take positional arguments only,
    as a traced or swapped-in kernel would.
    """
    log: list[tuple[str, range]] = []
    covered: dict[int, range] = {}
    result_ndim = {"slice_window": 2, "standardize_window": 2, "gram_matrix": 2, "row_indicator": 1}

    def recording(name, function):
        def recorded(*args):
            if name == "slice_window":
                _, t, _, count = (*args, 1)[:4]
                periods = range(t, t + count)
            else:
                periods = covered.pop(id(args[0]))
            result = function(*args)
            # one period gets a single window, several get a stack with one slice each
            assert result.ndim == result_ndim[name] + (len(periods) > 1)
            assert len(periods) == 1 or len(result) == len(periods)
            covered[id(result)] = periods
            log.append((name, periods))
            return result
        return recorded

    for name in KERNEL:
        monkeypatch.setattr(indicator, name, recording(name, getattr(indicator, name)))
    return log


def per_period_values(series: ProcessSeries, config: WindowConfig, gram, periods=None) -> np.ndarray:
    """Indicator rows from one 2-D window per period, with ``gram`` forming each matrix."""
    first = (2 if config.warmup is Warmup.SHRINK else config.k) + 1
    rows = []
    for t in periods or range(first, series.t_max + 1):
        k = min(config.k, t - 1)
        window = slice_window(series, t, k)
        if config.standardize:
            window = standardize_window(window)
        rows.append(row_indicator(gram(window, k)))
    return np.array(rows)


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

    def test_overflow_is_non_finite_value(self):
        with pytest.raises(NonFiniteValue, match="overflow"):
            gram_matrix(np.array([[1e200, 1.0], [1.0, 1.0]]), 2)

    def test_opposite_sign_overflow_is_non_finite_value(self):
        # entry (0, 1) sums 1e400 - 1e400: inf - inf gives NaN, not inf
        with pytest.raises(NonFiniteValue, match="overflow"):
            gram_matrix(np.array([[1e200, 1e200], [1e200, -1e200], [1.0, 1.0]]), 3)

    def test_one_variable_overflow_is_non_finite_value(self):
        # n = 1 takes the zero-column path; the overflow check still sees the entry
        with pytest.raises(NonFiniteValue, match="overflow"):
            gram_matrix(np.array([[1e200], [1.0]]), 2)

    def test_overflow_in_one_slice_of_a_stack_is_non_finite_value(self):
        stack = np.ones((3, 2, 2))
        stack[1, 0, 0] = 1e200
        with pytest.raises(NonFiniteValue, match="overflow"):
            gram_matrix(stack, 2)

    def test_overflow_is_non_finite_value_under_a_raising_errstate(self):
        # the explicit finiteness check, not the caller's errstate, reports the overflow
        with np.errstate(all="raise"), pytest.raises(NonFiniteValue, match="overflow"):
            gram_matrix(np.array([[1e200, 1.0], [1.0, 1.0]]), 2)


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


def strict_windows() -> dict[str, tuple[np.ndarray, int]]:
    """Windows on which the fast path must equal the oracle bit for bit, by layout and content."""
    rng = np.random.default_rng(17)
    base = rng.uniform(-10, 10, size=(12, 40))
    spiked = base.copy()
    spiked[4, 7] *= 1e6
    signs = np.where(rng.random((12, 40)) < 0.5, -1.0, 1.0)
    windows = {
        "c-order": (base, 12),
        "fortran-order": (np.asfortranarray(base), 12),
        "strided": (rng.uniform(-10, 10, size=(12, 80))[:, ::2], 12),
        "spike": (spiked, 12),
        "cancellation": (signs * 1e8 + rng.uniform(-1, 1, size=(12, 40)), 12),
    }
    for k in (3, 12, 60):
        for draw in range(8):  # numpy reduces a single column in another order unless padded
            windows[f"n1-k{k}-{draw}"] = (rng.normal(size=(k, 1)) * rng.uniform(0.1, 1e3), k)
    return windows


STRICT_WINDOWS = strict_windows()


@pytest.mark.parametrize("name", STRICT_WINDOWS)
def test_fast_path_is_bit_identical_to_oracle(name):
    # stricter than the 1e-12 bound above: the summation order itself is pinned
    window, k = STRICT_WINDOWS[name]
    assert np.array_equal(gram_matrix(window, k), gram_matrix_bruteforce(window, k))


def strict_stacks() -> dict[str, tuple[np.ndarray, int]]:
    """Stacks of windows, by layout and content, on which each slice must match the oracle."""
    wide = np.stack([STRICT_WINDOWS[name][0] for name in
                     ("c-order", "fortran-order", "strided", "spike", "cancellation")])
    rng = np.random.default_rng(23)
    values = rng.uniform(-10, 10, size=(40, 40))
    values[7, 14] *= 1e6  # in the windows of periods 16..27, so it enters and leaves the stack
    signs = np.where(rng.random((6, 12, 40)) < 0.5, -1.0, 1.0)
    stacks = {
        "c-order": (wide, 12),
        "fortran-order": (np.asfortranarray(wide), 12),
        "strided": (np.repeat(np.repeat(wide, 2, axis=0), 2, axis=-1)[::2, :, ::2], 12),
        "spike": (slice_window(labelled(values), 13, 12, 28), 12),
        "cancellation": (signs * 1e8 + rng.uniform(-1, 1, size=(6, 12, 40)), 12),
    }
    for k in (3, 12, 60):
        stacks[f"n1-k{k}"] = (np.stack([STRICT_WINDOWS[f"n1-k{k}-{d}"][0] for d in range(8)]), k)
    return stacks


STRICT_STACKS = strict_stacks()


@pytest.mark.parametrize("name", STRICT_STACKS)
def test_each_slice_of_a_stack_is_bit_identical_to_the_oracle(name):
    stack, k = STRICT_STACKS[name]
    grams = gram_matrix(stack, k)
    rows = row_indicator(grams)
    for i, window in enumerate(stack):
        assert np.array_equal(grams[i], gram_matrix_bruteforce(window, k))
        assert np.array_equal(rows[i], row_indicator(grams[i]))


@pytest.mark.parametrize("name", STRICT_STACKS)
def test_standardizing_a_stack_is_bit_identical_window_by_window(name):
    stack, _ = STRICT_STACKS[name]
    standardized = standardize_window(stack)
    for i, window in enumerate(stack):
        assert np.array_equal(standardized[i], standardize_window(window))


def test_oracle_rejects_a_stack():
    stack, k = STRICT_STACKS["c-order"]
    with pytest.raises(BadWindow):
        gram_matrix_bruteforce(stack, k)


class TestRowIndicator:
    def test_identity_matrix(self):
        assert row_indicator(np.eye(4)).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_zero_matrix(self):
        assert not row_indicator(np.zeros((3, 3))).any()

    def test_absolute_values_summed(self):
        entries = np.array([[1.25, -0.5], [-0.5, 2.0]])
        assert row_indicator(entries).tolist() == [1.75, 2.5]

    def test_overflow_is_non_finite_value(self):
        with pytest.raises(NonFiniteValue, match="overflow"):
            row_indicator(np.full((2, 2), 1e308))


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

    def test_overflow_is_non_finite_value(self):
        with pytest.raises(NonFiniteValue, match="overflow"):
            standardize_window(np.array([[1e308], [1e308], [-1e308]]))


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

    def test_opposite_sign_overflow_names_label_and_period(self):
        # the window of period 4 is [[1e200, 1e200], [1e200, -1e200], [1, 1]]
        values = np.array([[1.0, 1e200, 1e200, 1.0], [1.0, -1e200, 1e200, 1.0]])
        with pytest.raises(NonFiniteValue, match="^mixed, period 4: overflow"):
            indicator_series(labelled(values), WindowConfig(k=3), "mixed")

    @pytest.mark.parametrize(
        "value, error",
        [(-0.5, NegativeIndicator), (np.nan, NonFiniteValue), (np.inf, NonFiniteValue)],
        ids=["negative", "nan", "inf"],
    )
    def test_bad_value_names_label_and_first_bad_period(self, value, error):
        values = [[1.0, 2.0], [3.0, 4.0], [5.0, value], [value, 6.0]]
        with pytest.raises(error, match="^basic, period 5: indicator values"):
            IndicatorSeries(3, values, None, "basic")

    @pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
    @pytest.mark.parametrize("warmup", list(Warmup))
    @pytest.mark.parametrize(
        "n, per_chunk, k",
        [(1, 3, 3), (2, 3, 3), (24, 3, 3), (24, None, 4), (400, None, 3)],
        ids=["n1-3-periods", "n2-3-periods", "n24-3-periods", "n24", "n400"],
    )
    def test_chunks_cover_each_defined_period_once_in_order(
        self, monkeypatch, n, per_chunk, k, warmup, standardize
    ):
        # per_chunk None keeps the module's chunk size; a number shrinks the cap to that
        # many periods, so a short series spans several chunks
        if per_chunk is not None:
            monkeypatch.setattr(indicator, "CHUNK_BYTES", per_chunk * 8 * n * max(n, k))
        chunk = max(1, indicator.CHUNK_BYTES // (8 * n * max(n, k)))
        boundary = k + 1 + chunk  # the first period of the second full-window chunk
        t_max = boundary + 2 * chunk + 1
        values = np.random.default_rng(n).uniform(-10, 10, size=(n, t_max))
        values[n // 2, boundary - 3] *= 1e6  # in the windows of periods boundary-1 .. boundary+k-2
        series = labelled(values)
        config = WindowConfig(k=k, standardize=standardize, warmup=warmup)
        log = record_kernel_calls(monkeypatch)
        result = indicator_series(series, config)

        slices = [periods for name, periods in log if name == "slice_window"]
        steps = [name for name in KERNEL if standardize or name != "standardize_window"]
        assert log == [(name, periods) for periods in slices for name in steps]
        assert [t for periods in slices for t in periods] == list(result.periods)
        full = t_max - k  # periods with a full window: one chunk of up to `chunk` at a time
        shrunk = [1] * len(range(result.periods[0], k + 1))
        assert [len(p) for p in slices] == shrunk + [min(chunk, full - i) for i in range(0, full, chunk)]

        assert np.array_equal(result.values, per_period_values(series, config, gram_matrix))
        # the oracle loops in Python: on the long n = 24 run it checks the periods around the
        # spike, at n = 400 only the period after the spike leaves
        around = {24: range(boundary - 2, boundary + k), 400: range(boundary + k - 1, boundary + k)}
        periods = result.periods if per_chunk else around[n]
        oracle = per_period_values(series, config, gram_matrix_bruteforce, periods)
        rows = slice(periods[0] - result.periods[0], periods[-1] + 1 - result.periods[0])
        assert np.array_equal(result.values[rows], oracle)

    @pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
    @pytest.mark.parametrize(
        "spikes, first_bad",
        [((99,), 100), ((229,), 230), ((49, 149), 50)],
        ids=["mid-chunk", "chunk-last-period", "two-in-one-chunk"],
    )
    def test_overflow_in_a_chunk_names_its_first_bad_period(self, spikes, first_bad, standardize):
        # n = 24, k = 3: full-window chunks start at periods 4, 231 and 458
        values = np.random.default_rng(6).uniform(1, 10, size=(24, 500))
        for spike in spikes:
            values[5, spike - 1] = 1e200  # enters the windows of periods spike+1 .. spike+3
        config = WindowConfig(k=3, standardize=standardize)
        with pytest.raises(NonFiniteValue, match=f"^spiked, period {first_bad}: overflow"):
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

