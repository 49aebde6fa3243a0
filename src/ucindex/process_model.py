"""Enterprise process model: a dense indicator series over discrete periods.

An enterprise is modelled as a set of processes observed over periods
1..t_max. Each period carries an n-vector of process indicators (financial
expenses and incomes, thousand rubles). All types here are immutable after
construction and all operations are pure, so values can be shared freely
across threads.

Period indices are 1-based throughout the public API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, NonFiniteValue, WindowOutOfRange


def _raise_non_finite(error: str, flag: int) -> None:
    raise NonFiniteValue(f"{error} encountered")


# a decorator only: numpy sets the state per call and per thread
_finite = np.errstate(over="call", invalid="call", call=_raise_non_finite)


class _Fresh(np.ndarray):
    """Marks an array that ucindex has just made and holds nowhere else: a series adopts it."""


@dataclass(frozen=True)
class ProcessSeries:
    """Dense n-variable indicator series.

    ``values`` holds the value of variable i at period t in row i, column t-1 (shape n x
    t_max). It is copied and frozen read-only; only a ``_Fresh`` view of an array ucindex has
    just made (a parse buffer, a derived or simulated mode, kernel rows) is adopted as it is.

    Parameters
    ----------
    values : array-like, shape (n, t_max)
        Indicator values, all finite, over at least one period.
    variable_labels : tuple[str, ...]
        Exactly n unique names.
    """

    values: np.ndarray
    variable_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float, copy=not isinstance(self.values, _Fresh))
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise DimensionMismatch(
                f"values must be an n x t_max matrix with t_max >= 1, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteValue("series contains NaN or infinite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        labels = tuple(self.variable_labels)
        object.__setattr__(self, "variable_labels", labels)
        if len(labels) != arr.shape[0]:
            raise DimensionMismatch(f"{len(labels)} variable labels for {arr.shape[0]} variables")
        if len(set(labels)) != len(labels):
            raise DimensionMismatch("variable labels must be unique")

    @property
    def n(self) -> int:
        """Number of variables."""
        return self.values.shape[0]

    @property
    def t_max(self) -> int:
        """Number of recorded periods."""
        return self.values.shape[1]


def slice_window(series: ProcessSeries, t: int, k: int, count: int = 1) -> np.ndarray:
    """Extract the lag-window matrix for period t, or a stack of them for periods t onward.

    Row l (l = 1..k) of a window is the indicator vector at period t-l, so
    the window covers the k periods immediately preceding t, most recent
    first. With ``count`` > 1, slice i of the result is the window of period
    t+i. Every window must lie fully inside recorded history: valid
    arguments satisfy 1 <= k < t and t + count - 1 <= t_max + 1.

    Parameters
    ----------
    series : ProcessSeries
        Source of the indicator columns.
    t : int
        Period the (first) window precedes (1-based).
    k : int
        Window length in periods.
    count : int
        Number of consecutive periods, at least 1.

    Returns
    -------
    np.ndarray, shape (k, n) when count is 1, else (count, k, n)
        A fresh C-ordered array; the source is never mutated.

    Raises
    ------
    WindowOutOfRange
        If t - k < 1, t + count - 1 > t_max + 1, k < 1 or count < 1.
    """
    if k < 1 or count < 1:
        raise WindowOutOfRange(f"window length and count must be >= 1, got k={k}, count={count}")
    if t - k < 1 or t + count - 1 > series.t_max + 1:
        raise WindowOutOfRange(
            f"windows of length {k} for periods {t}..{t + count - 1} need periods "
            f"{t - k}..{t + count - 2}, not all inside recorded history 1..{series.t_max}"
        )
    # the span holds periods t-k .. t+count-2; window i is its columns i .. i+k-1, reversed
    span = series.values[:, t - k - 1 : t + count - 2]
    stack = sliding_window_view(span, k, axis=1)[:, :, ::-1].transpose(1, 2, 0).copy()
    return stack[0] if count == 1 else stack
