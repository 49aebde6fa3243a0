from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ucindex import DimensionMismatch, NonFiniteValue, ProcessSeries, WindowOutOfRange
from ucindex.process_model import slice_window


def make_series(n: int, t_max: int, fill: float = 0.0) -> ProcessSeries:
    return ProcessSeries(
        values=np.full((n, t_max), fill),
        variable_labels=tuple(f"v{i}" for i in range(n)),
    )


class TestTimeAxis:
    """A series covers periods 1..t_max, t_max >= 1."""

    def test_minimal(self):
        assert make_series(1, 1).t_max == 1

    def test_rejects_zero_periods(self):
        with pytest.raises(DimensionMismatch):
            make_series(2, 0)


class TestProcessSeries:
    def test_shape_and_properties(self):
        s = make_series(3, 7)
        assert (s.n, s.t_max) == (3, 7)

    def test_rejects_nan(self):
        values = np.zeros((2, 3))
        values[1, 2] = np.nan
        with pytest.raises(NonFiniteValue):
            ProcessSeries(values=values, variable_labels=("a", "b"))

    def test_rejects_infinity(self):
        with pytest.raises(NonFiniteValue):
            ProcessSeries(values=[[np.inf]], variable_labels=("a",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DimensionMismatch):
            ProcessSeries(values=np.zeros((2, 3)), variable_labels=("a", "a"))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ProcessSeries(values=np.zeros((2, 3)), variable_labels=("a",))

    def test_values_are_copied_and_readonly(self):
        src = np.ones((2, 2))
        s = ProcessSeries(values=src, variable_labels=("a", "b"))
        src[0, 0] = 99.0
        assert s.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            s.values[0, 0] = 5.0


@pytest.fixture
def counting_series() -> ProcessSeries:
    # one variable whose value at period t is simply t
    return ProcessSeries(values=np.arange(1.0, 6.0).reshape(1, 5), variable_labels=("x",))


class TestSliceWindow:
    def test_rows_are_lagged_columns(self, counting_series):
        window = slice_window(counting_series, t=4, k=2)
        assert window.tolist() == [[3.0], [2.0]]

    def test_full_history_window(self, counting_series):
        window = slice_window(counting_series, t=5, k=4)
        assert window.ravel().tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_window_after_last_period(self, counting_series):
        window = slice_window(counting_series, t=6, k=3)
        assert window.ravel().tolist() == [5.0, 4.0, 3.0]

    def test_out_of_range_before_history(self, counting_series):
        with pytest.raises(WindowOutOfRange):
            slice_window(counting_series, t=3, k=3)

    def test_out_of_range_after_history(self, counting_series):
        with pytest.raises(WindowOutOfRange):
            slice_window(counting_series, t=7, k=2)

    def test_result_is_a_copy(self, counting_series):
        window = slice_window(counting_series, t=4, k=2)
        window[0, 0] = 123.0
        assert counting_series.values[0, 2] == 3.0

    def test_repeated_calls_identical(self, counting_series):
        a = slice_window(counting_series, t=5, k=3)
        b = slice_window(counting_series, t=5, k=3)
        assert np.array_equal(a, b)

    @given(
        t=st.integers(min_value=2, max_value=30),
        k=st.integers(min_value=1, max_value=29),
        data=st.data(),
    )
    def test_index_bookkeeping(self, t, k, data):
        # row 1 of the window at t and row k of the window at t+k-1 both hold column t-1
        if t - k < 1:
            return
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        t_max = t + k  # large enough for both windows
        series = ProcessSeries(
            values=rng.normal(size=(3, t_max)),
            variable_labels=("a", "b", "c"),
        )
        first = slice_window(series, t, k)[0]
        last = slice_window(series, t + k - 1, k)[k - 1]
        assert np.array_equal(first, last)
        assert np.array_equal(first, series.values[:, t - 2])

    @given(
        t=st.integers(min_value=2, max_value=30),
        k=st.integers(min_value=1, max_value=29),
        count=st.integers(min_value=1, max_value=30),
        data=st.data(),
    )
    def test_stack_slices_are_the_windows_of_consecutive_periods(self, t, k, count, data):
        if t - k < 1:
            return
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        series = ProcessSeries(values=rng.normal(size=(3, t + count - 2 + data.draw(st.integers(1, 3)))),
                               variable_labels=("a", "b", "c"))
        stack = slice_window(series, t, k, count)
        assert stack.flags.c_contiguous and not np.shares_memory(stack, series.values)
        assert stack.shape == ((k, 3) if count == 1 else (count, k, 3))
        for i, window in enumerate(stack if count > 1 else [stack]):
            assert np.array_equal(window, slice_window(series, t + i, k))

    def test_stack_past_history_is_out_of_range(self, counting_series):
        # periods 4 and 5 have windows, period 7 would need period 6
        slice_window(counting_series, t=5, k=2, count=2)
        with pytest.raises(WindowOutOfRange, match="need periods 3..6, not all inside"):
            slice_window(counting_series, t=5, k=2, count=3)

    def test_empty_stack_is_out_of_range(self, counting_series):
        with pytest.raises(WindowOutOfRange):
            slice_window(counting_series, t=4, k=2, count=0)
