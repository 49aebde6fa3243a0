from __future__ import annotations

import math
import tracemalloc
import warnings
from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import mixed_signs, one_sign_indicator, traced_peak
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
    window_indicator,
)
from ucindex.process_model import _Fresh, slice_window


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


KERNEL = ("slice_window", "standardize_window", "window_indicator")


def record_kernel_calls(monkeypatch) -> list[tuple[str, range]]:
    """Patch the kernel functions in ``indicator`` to log each call with the periods it covers.

    A slice covers the periods its arguments name; every other kernel function
    covers those of the array it was passed, which must be one a kernel
    function returned. The patched functions take positional arguments only,
    as a traced or swapped-in kernel would.
    """
    log: list[tuple[str, range]] = []
    covered: dict[int, range] = {}
    result_ndim = {"slice_window": 2, "standardize_window": 2, "window_indicator": 1}

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
    """Indicator rows from one 2-D window per period, with ``gram`` forming each matrix; its row
    sums are added in the kernel's tile order."""
    first = (2 if config.warmup is Warmup.SHRINK else config.k) + 1
    rows = []
    for t in periods or range(first, series.t_max + 1):
        k = min(config.k, t - 1)
        window = slice_window(series, t, k)
        if config.standardize:
            window = standardize_window(window)
        rows.append(tile_order_indicator(window, k, gram))
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

    def test_overflow_in_the_last_row_block_is_non_finite_value(self, monkeypatch):
        cap_rows(monkeypatch, 3, 8 * 40)  # rows 39..39 form the last of 14 blocks
        window = np.ones((2, 40))
        window[0, 39] = 1e200  # overflows entry (39, 39) alone
        with pytest.raises(NonFiniteValue, match="overflow"):
            gram_matrix(window, 2)

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


def cap_rows(monkeypatch, rows: int, row_bytes: int) -> None:
    """Shrink the kernel's byte cap to ``rows`` rows of ``row_bytes`` bytes each."""
    monkeypatch.setattr(indicator, "CHUNK_BYTES", rows * row_bytes)


@pytest.mark.parametrize("n", range(1, 41))
def test_row_blocks_are_bit_identical_to_the_oracle(monkeypatch, n):
    # three rows a block: several blocks from n = 4 on, the last one ragged unless 3 divides n
    cap_rows(monkeypatch, 3, 8 * n)
    windows = row_block_windows(n)
    for name, window in windows.items():
        gram = gram_matrix(window, 12)
        assert np.array_equal(gram, gram_matrix_bruteforce(window, 12)), name
        assert np.array_equal(row_indicator(gram), np.abs(gram).sum(axis=-1)), name
    stack = np.stack([gram_matrix(window, 12) for window in windows.values()])
    assert np.array_equal(row_indicator(stack), np.abs(stack).sum(axis=-1))


@pytest.mark.parametrize("name", STRICT_STACKS)
def test_row_blocks_of_a_stack_are_bit_identical_to_the_oracle(monkeypatch, name):
    stack, k = STRICT_STACKS[name]
    cap_rows(monkeypatch, 3, 8 * len(stack) * stack.shape[-1])  # three rows of every slice
    grams = gram_matrix(stack, k)
    for i, window in enumerate(stack):
        assert np.array_equal(grams[i], gram_matrix_bruteforce(window, k))


def row_block_windows(n: int) -> dict[str, np.ndarray]:
    """12-lag windows of n variables by layout and content: a spike and cancelling sums."""
    rng = np.random.default_rng(n)
    base = rng.uniform(-10, 10, size=(12, n))
    spiked = base.copy()
    spiked[4, n - 1] *= 1e6
    signs = np.where(rng.random((12, n)) < 0.5, -1.0, 1.0)
    return {
        "c-order": base,
        "fortran-order": np.asfortranarray(base),
        "strided": np.repeat(base, 2, axis=-1)[:, ::2],
        "spike": spiked,
        "cancellation": signs * 1e8 + rng.uniform(-1, 1, size=(12, n)),
    }


def tile_order_indicator(window: np.ndarray, k: int, gram=gram_matrix) -> np.ndarray:
    """The sums of :func:`window_indicator`, in its order, from the whole of |``gram(window, k)``|:
    tiles of the rows its cap holds, each row's own part added after the column sums of earlier
    tiles right of their diagonal blocks. One tile is ``row_indicator``'s sum."""
    entries = gram(window, k)
    n = entries.shape[-1]
    rows = max(1, indicator.CHUNK_BYTES // max(1, 8 * np.asarray(window)[..., :1, :].size))
    if rows >= n:
        return row_indicator(entries)
    entries, sums = np.abs(entries), np.zeros(entries.shape[:-1])
    for r in range(0, n, rows):
        end = min(r + rows, n)
        below = entries[..., r, end:].copy()  # row by row down the tile, as the kernel sums them
        for i in range(r + 1, end):
            below += entries[..., i, end:]
        sums[..., r:end] += entries[..., r:end, r:].sum(axis=-1)
        sums[..., end:] += below
    return sums


@pytest.mark.parametrize("n", range(1, 41))
def test_window_indicator_row_blocks_are_bit_identical(monkeypatch, n):
    # several tiles from n = 4 on, the last one ragged; at n = 3 m + 1 it has one column
    cap_rows(monkeypatch, 3, 8 * n)
    windows = row_block_windows(n)
    for name, window in windows.items():
        expected = tile_order_indicator(window, 12)
        assert np.array_equal(window_indicator(window, 12), expected), name
    stack = np.stack(list(windows.values()))
    cap_rows(monkeypatch, 3, 8 * len(stack) * n)  # three rows of every slice
    assert np.array_equal(window_indicator(stack, 12), tile_order_indicator(stack, 12))


@pytest.mark.parametrize("name", STRICT_STACKS)
def test_window_indicator_of_a_stack_is_bit_identical(monkeypatch, name):
    stack, k = STRICT_STACKS[name]
    expected = row_indicator(gram_matrix(stack, k))
    assert np.array_equal(window_indicator(stack, k), expected)
    for i, window in enumerate(stack):
        assert np.array_equal(window_indicator(window, k), expected[i])
    cap_rows(monkeypatch, 3, 8 * len(stack) * stack.shape[-1])  # 40 = 3 * 13 + 1 columns
    assert np.array_equal(window_indicator(stack, k), tile_order_indicator(stack, k))


def lag_loop_gram(window: np.ndarray, k: int) -> np.ndarray:
    """W'W / (k-1) of a window or stack, each entry's k products added one lag at a time, in
    ascending lag order, as ``gram_matrix_bruteforce`` adds them."""
    w = np.asarray(window, dtype=float)
    g = np.zeros(w.shape[:-2] + (w.shape[-1], w.shape[-1]))
    for l in range(k):
        g += w[..., l, :, np.newaxis] * w[..., l, np.newaxis, :]
    return g / (k - 1)


@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
@pytest.mark.parametrize("n", [1, 2, 8, 24, 100, 400])
@pytest.mark.parametrize("k", [2, 3, 4, 12, 24])
def test_the_operand_layout_adds_each_entry_in_ascending_lag_order(monkeypatch, k, n, standardize):
    # products near 1e14 of either sign: any other order of a sum, or of a row sum, moves its last
    # bits. A stack of three is one tile up to n = 209; under the shrunk cap a tile is three rows.
    rng = np.random.default_rng(1000 * k + n)
    signs = np.where(rng.random((3, k, n)) < 0.5, -1.0, 1.0)
    stack = signs * (1e7 + rng.uniform(0, 1e3, size=(3, k, n)))
    if standardize:
        stack = standardize_window(stack)
    want = lag_loop_gram(stack, k)
    assert np.array_equal(gram_matrix(stack, k), want)
    assert np.array_equal(window_indicator(stack, k), tile_order_indicator(stack, k, lag_loop_gram))
    for i, window in enumerate(stack):
        assert np.array_equal(gram_matrix(window, k), want[i])
        if n <= 24:  # the oracle loops in Python
            assert np.array_equal(gram_matrix_bruteforce(window, k), want[i])
        expected = tile_order_indicator(window, k, lag_loop_gram)
        assert np.array_equal(window_indicator(window, k), expected)
    cap_rows(monkeypatch, 3, stack[..., :1, :].nbytes)
    assert np.array_equal(window_indicator(stack, k), tile_order_indicator(stack, k, lag_loop_gram))


def one_sign_stacks() -> dict[str, tuple[np.ndarray, int]]:
    """Stacks whose every column keeps one sign through each window, by size and content."""
    rng = np.random.default_rng(29)
    zeros = rng.uniform(1, 10, size=(4, 12, 40))
    zeros[:, ::3, ::2] = 0.0
    zeros[:, 1::3, 1::4] = -0.0
    zeros[:, :, 5] = -0.0  # a column of negative zeros
    signs = np.where(rng.random(40) < 0.5, -1.0, 1.0)  # drawn once a column
    values = rng.uniform(1, 10, size=(40, 40))
    values[[7, 21], [14, 30]] *= 1e6  # in the windows of periods 16..27 and 31..42
    values *= signs[:, np.newaxis]
    stacks = {
        "n0": (np.zeros((3, 12, 0)), 12),
        "n8": (rng.uniform(1, 10, size=(6, 12, 8)), 12),
        "n1000": (1e7 + rng.uniform(0, 1e3, size=(2, 12, 1000)), 12),
        "zeros": (zeros, 12),
        "all-negative": (-(1e7 + rng.uniform(0, 1e3, size=(5, 12, 40))), 12),
        "opposite-signs": (signs * (1e7 + rng.uniform(0, 1e3, size=(5, 12, 40))), 12),
        "spikes": (slice_window(labelled(values), 13, 12, 28), 12),
    }
    for k in (2, 3, 12, 60):  # magnitudes spread over lags, so another order of a sum shows
        stacks[f"n1-k{k}"] = (rng.uniform(0.5, 2, size=(8, k, 1)) ** 20, k)
    return stacks


ONE_SIGN_STACKS = one_sign_stacks()


@pytest.mark.parametrize("name", ONE_SIGN_STACKS)
def test_one_sign_windows_take_the_written_out_form(name):
    stack, k = ONE_SIGN_STACKS[name]
    expected = one_sign_indicator(stack, k)
    assert np.array_equal(window_indicator(stack, k), expected)
    for i, window in enumerate(stack):
        assert np.array_equal(window_indicator(window, k), expected[i])
        assert np.array_equal(window_indicator(-window, k), expected[i])
        if stack.shape[-1] == 1:  # the tiles run: the same products in the same order
            assert np.array_equal(expected[i], row_indicator(gram_matrix(window, k)))


@pytest.mark.parametrize("name", ONE_SIGN_STACKS)
def test_one_sign_form_agrees_with_the_oracle(name):
    stack, k = ONE_SIGN_STACKS[name]
    for window in stack[:3]:
        # the oracle loops in Python; at n = 1000 its numpy twin, pinned to its bits above
        oracle = gram_matrix_bruteforce if window.shape[-1] <= 40 else lag_loop_gram
        want = np.abs(oracle(window, k)).sum(axis=-1)
        np.testing.assert_allclose(window_indicator(window, k), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("tiles", [1, 14], ids=["one-tile", "tiles"])
def test_a_stack_that_mixes_the_forms_gives_each_slice_its_own_value(monkeypatch, tiles):
    one_sign, mixed = ONE_SIGN_STACKS["opposite-signs"][0], STRICT_STACKS["c-order"][0]
    first, last = one_sign[3].copy(), one_sign[4].copy()
    first[4, 0] *= -1  # one lag of one column changes sign: the first column, then the last
    last[7, -1] *= -1
    stack = np.stack([mixed[0], one_sign[0], first, one_sign[1], last, one_sign[2]])
    if tiles > 1:  # three rows of every slice a tile: the mixed slices keep the stack's tiles
        cap_rows(monkeypatch, 3, 8 * len(stack) * stack.shape[-1])
    got, tiled = window_indicator(stack, 12), tile_order_indicator(stack, 12)
    for i, window in enumerate(stack):
        if i in (1, 3, 5):
            assert np.array_equal(got[i], one_sign_indicator(window, 12))
            assert np.array_equal(got[i], window_indicator(window, 12))
        else:
            assert np.array_equal(got[i], tiled[i])
    assert not np.array_equal(tiled[[1, 3, 5]], got[[1, 3, 5]])  # the forms differ here


@pytest.mark.parametrize("n, t_max", [(1, 120), (8, 400), (24, 300), (200, 60)])
def test_a_periods_value_depends_on_its_own_window_alone(n, t_max):
    # every third variable changes sign for three periods at a time: a chunk holds windows of
    # both forms (one period a chunk from n = 129 on)
    values = 1e7 + np.random.default_rng(n).uniform(0, 1e3, size=(n, t_max))
    for start in range(40, t_max, 50):
        values[::3, start : start + 3] *= -1
    series = labelled(values)
    result = indicator_series(series, WindowConfig(k=12)).values
    forms = set()
    for t in range(13, t_max + 1):
        window = slice_window(series, t, 12)
        assert np.array_equal(result[t - 13], window_indicator(window, 12))
        forms.add(bool((window[0] * window).min() >= 0))  # a column of one sign throughout
    assert forms == {False, True}


GUARD_EDGES = {  # a window's scale, then a cell, k and n inside the guard and just past it
    "small": (2.0**-480, ((2.0**-480, 12, 40), (2.0**-481, 12, 40))),
    "large": (2.0**479, ((2.0**480, 12, 40), (2.0**481, 12, 40))),
    "long": (1e7, ((1e7, 1024, 40), (1e7, 1025, 40))),
    "narrow": (1e7, ((1e7, 12, 8), (1e7, 12, 7))),
}


@pytest.mark.parametrize("edge", GUARD_EDGES)
def test_past_the_guard_the_tile_form_keeps_its_bits(edge):
    rng = np.random.default_rng(31)
    scale, cases = GUARD_EDGES[edge]
    (inside, k_in), (outside, k_out) = windows = [
        (np.where(np.arange(k * n).reshape(k, n) == 7, cell,
                  scale * rng.uniform(1, 2, size=(k, n))), k) for cell, k, n in cases]
    for window, k in windows:  # the two forms round these windows differently
        assert not np.array_equal(one_sign_indicator(window, k), tile_order_indicator(window, k))
    assert np.array_equal(window_indicator(inside, k_in), one_sign_indicator(inside, k_in))
    assert np.array_equal(window_indicator(outside, k_out), tile_order_indicator(outside, k_out))
    if inside.shape == outside.shape:  # in one stack each keeps its own form
        got = window_indicator(np.stack([outside, inside]), k_in)
        assert np.array_equal(got, [tile_order_indicator(outside, k_in),
                                    one_sign_indicator(inside, k_in)])


def late_overflow(kind: str) -> np.ndarray:
    """A 2 x 40 window (k = 2) of ones whose Gram rows 38 and 39 overflow as ``kind`` says."""
    window = np.ones((2, 40))
    if kind == "same-sign":
        window[0, 39] = 1e200  # entry (39, 39) is +inf
    elif kind == "inf-minus-inf":
        window[:, 38:] = [[1e200, 1e200], [1e200, -1e200]]  # entry (38, 39) is inf - inf = NaN
    else:  # "row-sum": every entry is finite, rows 38 and 39 sum to about 2.9e308
        window[0, 38:] = 1.2e154
    return window


def at_both_ends(kind: str) -> np.ndarray:
    """``late_overflow(kind)`` with the overflow of Gram rows 38 and 39 copied to rows 0 and 1."""
    window = late_overflow(kind)
    window[:, :2] = window[:, 38:]
    return window


def in_the_last_block(kind: str) -> np.ndarray:
    """``late_overflow(kind)``, but a finite row-sum overflow in row 39 alone (1.9e308 there,
    1.71e308 in row 38), so that in tiles of three rows only the last tile's sum overflows."""
    window = late_overflow(kind)
    if kind == "row-sum":
        window[0, 38:] = [0.9e154, 1e154]
    return window


def beside_an_earlier_tile(kind: str) -> np.ndarray:
    """A 2 x 40 window whose Gram entry (1, 39) overflows as ``kind`` says. In tiles of three
    rows it lies right of the first tile's diagonal block, so only that tile's column sums take
    it to row 39. Under "row-sum" row 39 alone overflows: 0.72e308 from there, 1.44e308 from
    its own tile."""
    window = np.ones((2, 40))
    window[:, [1, 39]] = {"same-sign": [[1e200, 1e200], [1, 1]],
                          "inf-minus-inf": [[1e200, 1e200], [1e200, -1e200]],
                          "row-sum": [[0.6e154, 1.2e154], [1, 1]]}[kind]
    return window


OVERFLOWS = ("same-sign", "inf-minus-inf", "row-sum")
PLACES = {"late": late_overflow, "both-ends": at_both_ends, "last-tile": in_the_last_block,
          "beside-an-earlier-tile": beside_an_earlier_tile}


class TestWindowIndicator:
    @pytest.mark.parametrize("stacked", [False, True], ids=["window", "stack"])
    @pytest.mark.parametrize("kind", OVERFLOWS)
    def test_overflow_in_a_later_row_block_is_non_finite_value(self, monkeypatch, kind, stacked):
        window = late_overflow(kind)
        if stacked:
            window = np.stack([np.ones((2, 40)), window])
        cap_rows(monkeypatch, 3, window[..., :1, :].nbytes)  # row 39 forms the last of 14 blocks
        with pytest.raises(NonFiniteValue, match="overflow"):
            window_indicator(window, 2)

    @pytest.mark.parametrize("stacked", [False, True], ids=["window", "stack"])
    @pytest.mark.parametrize("kind", OVERFLOWS)
    @pytest.mark.parametrize("place", PLACES)
    def test_overflow_in_any_tile_is_non_finite_value(self, monkeypatch, place, kind, stacked):
        window = PLACES[place](kind)
        if stacked:
            window = np.stack([np.ones((2, 40)), window])
        cap_rows(monkeypatch, 3, window[..., :1, :].nbytes)  # 14 tiles, the last one 1 x 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for state in ("raise", "ignore"):
                with np.errstate(all=state), pytest.raises(NonFiniteValue, match="^overflow"):
                    window_indicator(window, 2)

    @pytest.mark.parametrize("stacked", [False, True], ids=["window", "stack"])
    def test_a_one_sign_window_whose_absolute_row_sums_overflow(self, stacked):
        # it passes the sign test and fails the magnitude test, and the row sums S_l of |W| that
        # the guard takes overflow, as the tile form's diagonal entries would
        window = np.full((2, 40), 1e307)
        if stacked:
            window = np.stack([np.ones((2, 40)), window])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for state in ("raise", "ignore"):
                with np.errstate(all=state), pytest.raises(NonFiniteValue,
                                                           match="^overflow encountered$"):
                    window_indicator(window, 2)

    def test_a_one_sign_row_whose_absolute_sum_overflows_names_the_period(self):
        values = np.random.default_rng(9).uniform(1, 10, size=(40, 12))
        values[:, 4] = 1e307  # period 5, first in the window of period 6 (k = 2)
        with pytest.raises(NonFiniteValue, match="^spiked, period 6: overflow encountered$"):
            indicator_series(labelled(values), WindowConfig(k=2), "spiked")

    def test_overflow_is_non_finite_value_under_a_raising_errstate(self):
        with np.errstate(all="raise"), pytest.raises(NonFiniteValue, match="overflow"):
            window_indicator(late_overflow("inf-minus-inf"), 2)

    @pytest.mark.parametrize("kind", OVERFLOWS)
    def test_overflow_in_a_later_row_block_names_the_period(self, monkeypatch, kind):
        cap_rows(monkeypatch, 3, 8 * 40)  # one period a chunk, 14 row blocks a Gram matrix
        values = np.random.default_rng(8).uniform(1, 10, size=(40, 12))
        values[:, :2] = late_overflow(kind).T  # periods 1 and 2: the first window under SHRINK
        config = WindowConfig(k=3, warmup=Warmup.SHRINK)
        with pytest.raises(NonFiniteValue, match="^spiked, period 3: overflow"):
            indicator_series(labelled(values), config, "spiked")

    @pytest.mark.parametrize("kind", OVERFLOWS)
    @pytest.mark.parametrize("place", PLACES)
    def test_overflow_in_any_tile_names_the_period(self, monkeypatch, place, kind):
        cap_rows(monkeypatch, 3, 8 * 40)  # one period a chunk, 14 tiles a Gram matrix
        values = np.random.default_rng(8).uniform(1, 10, size=(40, 12))
        values[:, :2] = PLACES[place](kind).T  # periods 1 and 2: the first window under SHRINK
        config = WindowConfig(k=3, warmup=Warmup.SHRINK)
        with pytest.raises(NonFiniteValue, match="^spiked, period 3: overflow"):
            indicator_series(labelled(values), config, "spiked")

    @pytest.mark.parametrize("n", [363, 500, 1000])
    def test_uncapped_windows_are_bit_identical(self, n):
        # 363 variables are the fewest that one 1 MiB tile cannot hold
        windows = row_block_windows(n)
        for name, window in windows.items():
            expected = tile_order_indicator(window, 12)
            assert np.array_equal(window_indicator(window, 12), expected), name

    @pytest.mark.parametrize("signs", ["one-sign", "mixed"])
    def test_memory_is_one_cap_and_freed_on_return(self, signs):
        # each tile's buffer is allocated within the cap and freed before the next one; the
        # one-sign form holds a copy of the window's absolute values and no tile
        window = np.random.default_rng(5).uniform(1, 10, size=(12, 1000))
        if signs == "mixed":
            window = mixed_signs(window.T).T.copy()
        (sums, held), peak = traced_peak(
            lambda: (window_indicator(window, 12), tracemalloc.get_traced_memory()[0]))
        cap = window.nbytes if signs == "one-sign" else indicator.CHUNK_BYTES
        assert peak <= cap + sums.nbytes + 64 * 2**10
        assert held <= sums.nbytes + 64 * 2**10

    def test_a_rebound_gram_matrix_is_used(self, monkeypatch):
        # perfbench/selftest.py swaps a drifting kernel in this way and expects the output to move
        # (its one-sign windows would take the O(k n) form; the rebound kernel comes first)
        series = labelled(np.random.default_rng(6).uniform(1, 10, size=(5, 30)))
        expected = [2 * row_indicator(gram_matrix(slice_window(series, t, 4), 4))
                    for t in range(5, 31)]
        monkeypatch.setattr(indicator, "gram_matrix", lambda window, k: 2 * gram_matrix(window, k))
        assert np.array_equal(indicator_series(series, WindowConfig(k=4)).values, expected)

    def test_a_window_of_no_variables(self):
        window = np.zeros((3, 0))
        assert gram_matrix(window, 3).shape == (0, 0)
        assert window_indicator(window, 3).shape == (0,)

    @pytest.mark.parametrize("signs", ["one-sign", "mixed"])
    def test_indicator_series_holds_no_gram_matrix(self, signs):
        # at n = 1000 one Gram matrix is 8 MB; the tile form holds one tile of at most 1 MiB, the
        # one-sign form a copy of a window's absolute values (96 kB)
        values = np.random.default_rng(5).uniform(1, 10, size=(1000, 16))
        series = labelled(values if signs == "one-sign" else mixed_signs(values))
        result, peak = traced_peak(indicator_series, series, WindowConfig(k=12))
        assert result.values.shape == (4, 1000)
        assert peak < (2**19 if signs == "one-sign" else 3 * 2**20)

    @pytest.mark.parametrize("data", ["raw-one-sign", "raw-mixed", "standardized"])
    @pytest.mark.parametrize("n, t_max", [(1, 4000), (2, 4000), (24, 300), (32, 200), (200, 20)])
    def test_indicator_series_works_within_one_cap(self, n, t_max, data):
        # in the tile form a chunk's window stack, its lag-contiguous copy and its Gram rows take a
        # quarter of the cap each; the one-sign form (n >= 8) holds the stack, a copy of its
        # absolute values and their row sums, so three quarters. Every series here spans at least
        # two chunks.
        values = np.random.default_rng(n).uniform(1, 10, size=(n, t_max))
        if data == "raw-mixed":
            values = mixed_signs(values)
        config = WindowConfig(k=12, standardize=data == "standardized")
        result, peak = traced_peak(indicator_series, labelled(values), config)
        share = 0.75 if data == "raw-one-sign" else 1
        assert peak - result.values.nbytes <= share * indicator.CHUNK_BYTES


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

    @pytest.mark.parametrize("shape", [(40, 40), (3, 40, 40)], ids=["matrix", "stack"])
    def test_overflow_in_a_later_row_block_is_non_finite_value(self, monkeypatch, shape):
        cap_rows(monkeypatch, 3, 8 * 40)
        matrix = np.ones(shape)
        assert np.array_equal(row_indicator(matrix), np.full(shape[:-1], 40.0))
        matrix[..., 39, :2] = 1e308  # finite entries whose row sum overflows, in the last block
        with pytest.raises(NonFiniteValue, match="overflow"):
            row_indicator(matrix)

    @pytest.mark.parametrize("shape", [(40, 40), (5, 24, 24)], ids=["matrix", "stack"])
    def test_sums_do_not_depend_on_memory_layout(self, shape):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(-10, 10, size=shape) * np.where(rng.random(shape) < 0.05, 1e6, 1.0)
        expected = np.abs(matrix).sum(axis=-1)
        for layout in (np.asfortranarray(matrix), np.repeat(matrix, 2, axis=-1)[..., ::2]):
            assert np.array_equal(row_indicator(layout), expected)


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

    @pytest.mark.parametrize("stacked", [False, True], ids=["window", "stack"])
    @pytest.mark.parametrize("k", [3, 12])
    @pytest.mark.parametrize("constant", [0.1, 0.7, 3.3, 1e7 + 0.1])
    def test_a_constant_column_maps_to_zero_whatever_its_mean_rounds_to(self, constant, k,
                                                                         stacked):
        # k * constant is inexact, so the computed mean may differ from the constant in its last
        # place, and the column's deviations from it have a nonzero std of their own
        rng = np.random.default_rng(k)
        window = rng.uniform(1, 10, size=(4, k, 3) if stacked else (k, 3))
        window[..., 1] = constant
        z = standardize_window(window)
        assert not z[..., 1].any()
        assert np.array_equal(z[..., [0, 2]], standardize_window(window[..., [0, 2]]))

    def test_a_column_whose_squared_deviations_underflow_maps_to_zero(self):
        # it varies, but its variance computes to 0, so it is zeroed rather than divided by 0
        window = np.array([[1e-170, 1.0], [2e-170, 2.0], [4e-170, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = standardize_window(window)
        assert not z[:, 0].any()
        assert z[:, 1].all()


class TestIndicatorSeries:
    def test_zero_variables_give_an_empty_row_a_period(self):
        result = indicator_series(labelled(np.zeros((0, 20))), WindowConfig(k=3))
        assert result.values.shape == (17, 0) and result.total == 0.0
        comparison = compare_modes(result, result)
        assert comparison.delta_per_period.tolist() == [0.0] * 17
        assert comparison.delta_total == 0.0

    def test_a_callers_values_are_copied_and_readonly(self):
        src = np.ones((3, 2))
        series = IndicatorSeries(1, src, None, "m")
        src[0, 0] = 99.0
        assert series.values.tolist() == [[1.0, 1.0]] * 3 and series.total == 6.0
        with pytest.raises(ValueError):
            series.values[0, 0] = 5.0

    @pytest.mark.parametrize("adopted", [False, True])
    def test_zeros_are_stored_as_positive_zeros(self, adopted):
        # as fsum, which the per-period scalars of wider series still use, gives them
        values = np.array([[-0.0, 1.0], [0.0, -0.0]])
        series = IndicatorSeries(1, values.view(_Fresh) if adopted else values, None, "m")
        assert series.values.tolist() == [[0.0, 1.0], [0.0, 0.0]]
        assert not np.signbit(series.values).any()
        assert np.shares_memory(series.values, values) == adopted

    def test_its_own_rows_are_readonly(self):
        result = indicator_series(labelled(np.ones((2, 8))), WindowConfig(k=3))
        with pytest.raises(ValueError):
            result.values[0, 0] = 5.0

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

    def test_overflow_in_the_last_row_block_names_the_period(self, monkeypatch):
        cap_rows(monkeypatch, 3, 8 * 40)  # one period a chunk, 14 row blocks a Gram matrix
        values = np.random.default_rng(8).uniform(1, 10, size=(40, 12))
        values[39, 5] = 1e200  # variable 40 at period 6: only entry (39, 39) overflows
        with pytest.raises(NonFiniteValue, match="^spiked, period 7: overflow"):
            indicator_series(labelled(values), WindowConfig(k=3), "spiked")

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
            monkeypatch.setattr(indicator, "CHUNK_BYTES", per_chunk * 32 * max(2, n) * max(n, k))
        chunk = max(1, indicator.CHUNK_BYTES // (32 * max(2, n) * max(n, k)))
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
        [((99,), 100), ((114,), 115), ((49, 54), 50)],
        ids=["mid-chunk", "chunk-last-period", "two-in-one-chunk"],
    )
    def test_overflow_in_a_chunk_names_its_first_bad_period(self, spikes, first_bad, standardize):
        # n = 24, k = 3: full-window chunks of 56 periods start at periods 4, 60 and 116
        values = np.random.default_rng(6).uniform(1, 10, size=(24, 500))
        for spike in spikes:
            values[5, spike - 1] = 1e200  # enters the windows of periods spike+1 .. spike+3
        config = WindowConfig(k=3, standardize=standardize)
        with pytest.raises(NonFiniteValue, match=f"^spiked, period {first_bad}: overflow"):
            indicator_series(labelled(values), config, "spiked")

    def test_overflowing_total_is_non_finite_value(self):
        with pytest.raises(NonFiniteValue, match="big: the indicator total overflows"):
            IndicatorSeries(1, [[1e308], [1e308]], None, "big")

    def test_a_constant_variable_reads_zero_when_standardized(self):
        rng = np.random.default_rng(14)
        values = rng.uniform(1, 10, size=(3, 14))
        values[1] = 0.7
        config = WindowConfig(12, standardize=True)
        result = indicator_series(labelled(values), config)
        without = indicator_series(labelled(values[[0, 2]]), config)
        assert result.values[:, 1].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(result.values[:, [0, 2]], without.values, rtol=0, atol=1e-12)


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

    def test_rows_whose_partial_sums_overflow_are_summed_exactly(self):
        # fsum raises OverflowError on this row, though its exact sum rounds to the largest float
        row = [1.7976931348623157e308, 2.0**969, math.nextafter(2.0**969, 0.0)]
        with pytest.raises(OverflowError):
            fsum(row)
        series, zeros = (IndicatorSeries(1, [r], None, m) for r, m in ((row, "c"), ([0.0] * 3, "b")))
        assert series.total == float(exact_sum(row)) == 1.7976931348623157e308
        assert scalar_per_period(series).tolist() == [series.total]
        comparison = compare_modes(zeros, series)
        assert comparison.delta_per_period.tolist() == [series.total] == [comparison.delta_total]


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

    def test_a_callers_array_is_copied_and_readonly(self):
        src = np.array([1.0, 2.0])
        series = ingest_precomputed(src, "basic")
        src[0] = 99.0
        assert series.values.tolist() == [[1.0], [2.0]] and series.total == 3.0
        with pytest.raises(ValueError):
            series.values[0, 0] = 5.0

    def test_rejects_nested_values(self):
        with pytest.raises(DimensionMismatch):
            ingest_precomputed([[1.0, 2.0]], "basic")

    def test_rejects_negative(self):
        with pytest.raises(NegativeIndicator):
            ingest_precomputed([1.0, -0.1], "basic")

    def test_an_array_converts_without_iterating_it(self):
        class NoIteration(np.ndarray):
            def __iter__(self):
                raise AssertionError("iterated element by element")

        series = ingest_precomputed(np.array([1.0, 2.5]).view(NoIteration), "basic", first_period=4)
        assert series.values.tolist() == [[1.0], [2.5]]
        assert series.periods == range(4, 6)

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

    def test_zero_variable_series_have_zero_deltas(self):
        basic, competency = (IndicatorSeries(1, np.zeros((3, 0)), None, m) for m in ("b", "c"))
        comparison = compare_modes(basic, competency)
        for arr in (comparison.basic_scalars, comparison.competency_scalars,
                    comparison.delta_per_period):
            assert np.array_equal(arr, np.zeros(3)) and not np.signbit(arr).any()
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
        assert comparison.delta_total == 10396270.0  # one-sign windows: the O(k n) form's values

    def test_deltas_are_exact_on_the_ingest_path(self, nearly_equal_scalars):
        basic, competency = (ingest_precomputed(x, "mode") for x in nearly_equal_scalars)
        comparison = compare_modes(basic, competency)
        assert_exact_deltas(comparison)
        assert comparison.delta_total == 4948.375

    # -0.0 passes the >= 0 check; subnormals, the largest finite values and equal pairs
    EDGES = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1.0, 1e308, 1.7976931348623157e308]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(st.sampled_from(EDGES), st.floats(0, 1e308))] * 2),
                    min_size=1, max_size=20), st.booleans())
    @example([(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324)], False)
    @example([(1e308, 1e308), (2.225073858507201e-308, 5e-324)], False)
    @example([(1.7976931348623157e308, 0.0), (0.0, 1.7976931348623157e308)], False)
    @example([(1.5, 2.5), (-0.0, 1e-300)], True)
    @example([(-0.0, 8.510162095219329e307),
              (1.7976931348623157e308, 1.780488503565008e307)], False)  # fsum overflows
    def test_one_variable_scalars_and_deltas_are_the_row_fsums(self, pairs, equal):
        basic, competency = zip(*pairs)
        competency = basic if equal else competency
        try:
            modes = [ingest_precomputed(x, label) for x, label in ((basic, "b"), (competency, "c"))]
        except NonFiniteValue:  # a mode's total overflows
            assume(False)
        total = float(sum(map(Fraction, competency)) - sum(map(Fraction, basic)))
        comparison = compare_modes(*modes)
        want = {"basic_scalars": [fsum([b]) for b in basic],
                "competency_scalars": [fsum([c]) for c in competency],
                "delta_per_period": [fsum([c, -b]) for b, c in zip(basic, competency)]}
        for name, values in want.items():
            got = getattr(comparison, name)
            assert np.array_equal(got, values)
            assert np.signbit(got).tolist() == np.signbit(values).tolist()
        assert comparison.delta_total == total

    @pytest.mark.parametrize("n", [1, 2, 32])
    def test_delta_total_is_the_fsum_of_both_modes(self, n):
        rng = np.random.default_rng(n)
        basic, competency = (IndicatorSeries(1, 10.0 ** rng.uniform(-5, 15, (4_000 // n, n)),
                                             None, m) for m in ("b", "c"))
        comparison = compare_modes(basic, competency)
        assert comparison.delta_total == fsum(np.hstack((competency.values, -basic.values)).ravel())
        assert_exact_deltas(comparison)

    def test_compare_holds_no_copy_of_a_mode(self):
        rng = np.random.default_rng(4)
        basic, competency = (IndicatorSeries(1, rng.uniform(0, 1e3, (20_000, 32)), None, m)
                             for m in ("b", "c"))
        _, peak = traced_peak(compare_modes, basic, competency)
        assert peak < basic.values.nbytes, peak

    def test_one_variable_modes_allocate_only_their_delta(self):
        # per-row sums would allocate two scalar arrays and the delta: about 3 x one column
        rng = np.random.default_rng(6)
        basic, competency = (ingest_precomputed(rng.uniform(0, 1e3, 100_000), m) for m in "bc")
        comparison, peak = traced_peak(compare_modes, basic, competency)
        assert peak < 1.25 * basic.values.nbytes, peak / basic.values.nbytes
        assert np.shares_memory(comparison.basic_scalars, basic.values)

    def test_direct_construction_enforces_shared_axis(self):
        a = ingest_precomputed([1.0, 2.0], "basic")
        b = ingest_precomputed([1.0, 2.0, 3.0], "uc")
        with pytest.raises(ConfigMismatch):
            ModeComparison(basic=a, competency=b)


@pytest.mark.parametrize("call, error, message", [
    (lambda: WindowConfig(1), BadWindow, "window length must be >= 2, got k=1"),
    (lambda: gram_matrix(np.array([[1.0, np.nan], [2.0, 3.0]]), 2), NonFiniteValue,
     "window contains NaN or infinite entries"),
    (lambda: window_indicator(np.array([[1.0, 2.0], [np.inf, 3.0]]), 2), NonFiniteValue,
     "window contains NaN or infinite entries"),
    (lambda: standardize_window(np.ones((1, 3))), BadWindow,
     "standardization needs >= 2 rows, got shape (1, 3)"),
    (lambda: standardize_window(np.ones(3)), BadWindow,
     "standardization needs >= 2 rows, got shape (3,)"),
], ids=["window-config-k-1", "nan-window", "inf-window", "one-row", "one-dimension"])
def test_invalid_windows_name_the_rule_they_break(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
