"""Lag-window Gram-correlation matrices and integral indicators.

For a period t and window length k, the k most recent observation vectors
before t form a k x n lag matrix W. The Gram-correlation matrix is
R = W'W / (k-1): entry (i, j) is the uncentered cross-moment of variables i
and j over the window. The per-variable indicator at t is the sum of
absolute values along row i of R, and the integral indicator of a whole run
is the sum of those values over every defined period and variable.

Determinism contract: the Gram kernel forms each entry with one ``np.einsum``
of C-ordered operands (no BLAS, no ``optimize`` path), which adds its k
products in ascending lag order, so R is bit-identical to the defining loop
in :func:`gram_matrix_bruteforce`, and symmetric with no mirroring step (IEEE
multiplication commutes, and the products for (i, j) and (j, i) are added in
the same order). That order belongs to numpy's ``einsum``; the strict tests
pin it with ``np.array_equal``, for single windows, stacks and row blocks, so
a numpy that changes it fails the tests instead of shifting results. A
period's values thus depend on none of how the work is cut: its chunk of
periods, the row blocks of R, or the thread that sums a block. The indicator
path (:func:`window_indicator`) never holds the n x n matrix; past one block,
it may share the blocks and the byte cap with one worker thread. Its plain
reference, ``row_indicator(gram_matrix(window, k))``, holds R whole.

Note the entries are raw cross-moments, not Pearson correlations: columns
are not centered or scaled unless ``standardize`` is switched on, which is
an explicitly non-default variant. On monetary inputs the indicator is
therefore expressed in squared input units (see ``INDICATOR_UNIT``).
The kernel functions raise NonFiniteValue when their arithmetic overflows.

Totals and deltas are exact (Shewchuk) sums via ``math.fsum`` of the stored
values; a delta, per period or in total, is one sum over the competency values
and the negated basic values, so large, nearly equal modes do not cancel.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from math import fsum
from typing import Iterable

import numpy as np

from .errors import (
    BadWindow,
    ConfigMismatch,
    DimensionMismatch,
    NegativeIndicator,
    NonFiniteValue,
    SeriesTooShort,
)
from .process_model import ProcessSeries, slice_window

INDICATOR_UNIT = "input-unit^2"

MIN_SHRINK_LAGS = 2  # the cross-moment normalizer k-1 needs at least 2 lags

# Byte cap on the work held at once, and on each slice of output rows (io_formats.row_chunks). A
# chunk of p = max(1, CHUNK_BYTES // (8 n max(n, k))) periods (227 at n = 24, k = 12; one from
# n = 257 on) keeps its window stack (p x k x n) within the cap, and the n keeps the stack's Gram
# rows to one block, which keeps every stack on the calling thread. window_indicator forms a
# larger Gram matrix in blocks of max(1, CHUNK_BYTES // (8 n)) rows (131 at n = 1000; 65 on each
# of two threads, which share the cap), never whole. A 4 MiB cap (the L2 size) raised
# ledger-long's peak RSS 38.6 -> 46.2 MB.
CHUNK_BYTES = 2**20


class Warmup(str, Enum):
    """Policy for early periods where a full lag window does not exist.

    ``SKIP`` (default): those periods are undefined and omitted.
    ``SHRINK``: use all available lags instead, never fewer than two, so
    output starts at period 3 regardless of k.
    """

    SKIP = "skip"
    SHRINK = "shrink"


@dataclass(frozen=True)
class WindowConfig:
    """Settings for the indicator computation.

    Parameters
    ----------
    k : int
        Lag window length in periods, at least 2.
    standardize : bool
        Standardize each window column to zero mean and unit sample variance
        before forming the cross-moments. Constant columns map to all-zero.
    warmup : Warmup
        How to treat periods t <= k.
    """

    k: int
    standardize: bool = False
    warmup: Warmup = Warmup.SKIP

    def __post_init__(self) -> None:
        if self.k < 2:
            raise BadWindow(f"window length must be >= 2, got k={self.k}")
        object.__setattr__(self, "warmup", Warmup(self.warmup))


@dataclass(frozen=True)
class IndicatorSeries:
    """Per-period per-variable indicators plus their exact grand total.

    ``values[r, i]`` is the indicator of variable i at period
    ``first_period + r``; periods run consecutively to ``t_max``. ``total``
    is the exact sum of every stored value. ``config`` is None for series
    ingested from precomputed scalars.
    """

    first_period: int
    values: np.ndarray
    config: WindowConfig | None
    mode_label: str
    total: float = field(init=False)

    def __post_init__(self) -> None:
        if self.first_period < 1:
            raise DimensionMismatch(f"first defined period must be >= 1, got {self.first_period}")
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 2:
            raise DimensionMismatch(f"values must be periods x variables, got shape {arr.shape}")
        if len(arr) == 0:
            raise SeriesTooShort("an indicator series needs at least one defined period")
        for bad, error, rule in ((~np.isfinite(arr), NonFiniteValue, "must be finite"),
                                 (arr < 0, NegativeIndicator, "must be >= 0")):
            if bad.any():
                t = self.first_period + int(bad.any(axis=1).argmax())
                raise error(f"{self.mode_label}, period {t}: indicator values {rule}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        try:
            total = fsum(arr.ravel())
        except OverflowError:
            raise NonFiniteValue(f"{self.mode_label}: the indicator total overflows") from None
        object.__setattr__(self, "total", total)

    @property
    def periods(self) -> range:
        """The defined periods, ``first_period`` to ``t_max``."""
        return range(self.first_period, self.first_period + len(self.values))

    @property
    def t_max(self) -> int:
        """The last defined period."""
        return self.first_period + len(self.values) - 1

    @property
    def n(self) -> int:
        """Number of variables."""
        return self.values.shape[1]


@dataclass(frozen=True)
class ModeComparison:
    """Paired basic/competency indicator series with their per-period scalars and deltas.

    Both series must cover the same defined periods with the same variable
    count and window settings. The per-period scalars of each mode (see
    :func:`scalar_per_period`) and both deltas are derived once, on
    construction, so every consumer reads the same arrays. Each delta is
    the correctly rounded exact difference of the two modes' values.
    """

    basic: IndicatorSeries
    competency: IndicatorSeries
    basic_scalars: np.ndarray = field(init=False)
    competency_scalars: np.ndarray = field(init=False)
    delta_per_period: np.ndarray = field(init=False)
    delta_total: float = field(init=False)

    def __post_init__(self) -> None:
        basic, competency = self.basic, self.competency
        if basic.n != competency.n:
            raise ConfigMismatch(f"variable count differs: {basic.n} vs {competency.n}")
        if basic.config != competency.config:
            raise ConfigMismatch(
                f"window settings differ: {basic.config} vs {competency.config}"
            )
        if basic.periods != competency.periods:
            spans = (f"{m.first_period}..{m.t_max}" for m in (basic, competency))
            raise ConfigMismatch("defined periods differ: {} vs {}".format(*spans))
        signed = np.hstack((competency.values, -basic.values))
        for name, arr in (("basic_scalars", scalar_per_period(basic)),
                          ("competency_scalars", scalar_per_period(competency)),
                          ("delta_per_period", _row_sums(signed))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "delta_total", fsum(signed.ravel()))

    @property
    def periods(self) -> range:
        return self.basic.periods


def _raise_non_finite(error: str, flag: int) -> None:
    raise NonFiniteValue(f"{error} encountered")


# a decorator only: numpy sets the state per call and per thread, so a worker's code needs its own
_finite = np.errstate(over="call", invalid="call", call=_raise_non_finite)


def _checked_window(window: np.ndarray, k: int, ndims: tuple[int, ...]) -> np.ndarray:
    """The window as C-ordered floats, once it passes the checks the kernel and oracle share."""
    w = np.ascontiguousarray(window, dtype=float)
    if k < 2:
        raise BadWindow(f"window length must be >= 2, got k={k}")
    if w.ndim not in ndims or w.shape[-2] != k:
        raise BadWindow(f"expected {k} window rows, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NonFiniteValue("window contains NaN or infinite entries")
    return w


def _gram_block(w: np.ndarray, k: int, rows: slice, out: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of W'W / (k-1), per slice, of a checked window or stack, filled in ``out``;
    NaN or inf stays unreported, as einsum does not report overflow to np.errstate. C-ordered
    operands and a zero column appended at n = 1 (``out`` has room) keep the summation order."""
    n, left = w.shape[-1], np.ascontiguousarray(w[..., rows])
    if n == 1:
        w = np.concatenate((w, np.zeros_like(w)), axis=-1)
    np.einsum("...li,...lj->...ij", left, w, optimize=False, out=out)
    out /= k - 1
    return out[..., :n]


def gram_matrix(window: np.ndarray, k: int) -> np.ndarray:
    """Cross-moment matrix W'W / (k-1) of a k x n lag window, or one per slice of a p x k x n stack.

    Raises
    ------
    BadWindow
        If k < 2 or the window row count differs from k.
    NonFiniteValue
        If the window contains NaN or infinite entries, or the sums overflow.
    """
    w = _checked_window(window, k, (2, 3))
    n = w.shape[-1]  # at n = 1 the result has room for _gram_block's zero column
    g = _gram_block(w, k, slice(None), np.empty(w.shape[:-2] + (n, n + (n == 1))))
    if not np.isfinite(g).all():
        raise NonFiniteValue("overflow encountered")
    return g


_GRAM_MATRIX = gram_matrix
_lock = threading.Lock()  # so that two first callers start one worker, and no timing is lost
_tasks = None  # the worker's queue, made with it by the first window it shares
_pace = [np.inf, np.inf, 0]  # smoothed seconds per p k n^2 on one thread, on two; wide windows


@_finite  # on the worker too: np.errstate does not reach a thread from the one that set it
def _abs_row_sums(w: np.ndarray, k: int, starts: Iterable[int], step: int, sums: np.ndarray,
                  out: np.ndarray) -> None:
    """Fill ``sums`` from r to r + step for each start r, a Gram row block at a time in ``out``."""
    for r in starts:
        block = _gram_block(w, k, slice(r, r + step), out[..., : sums.shape[-1] - r, :])
        np.abs(block, out=block).sum(axis=-1, out=sums[..., r : r + step])


def _serve(tasks) -> None:
    """The worker thread: run each task it is given, and hand back None or what it raised."""
    while True:
        done, *task = tasks.get()
        try:
            task = _abs_row_sums(*task)  # None: the arrays are let go before the caller wakes
        except BaseException as exc:  # any, so the caller is never left waiting
            task = exc
        done.put(task)


def window_indicator(window: np.ndarray, k: int) -> np.ndarray:
    """``row_indicator(gram_matrix(window, k))``, bit for bit, from row blocks: no n x n matrix.

    Past one block, the caller and one worker thread each take the next block of half a cap's
    rows until none is left, unless one thread has lately been faster per unit of work (each
    32nd such window tries the other way). Raises as :func:`gram_matrix`, the caller's error
    first: a NaN or infinite entry makes its row's sum non-finite, so one check of the sums
    catches every overflow. A ``gram_matrix`` rebound in this module alone
    (``perfbench/selftest.py`` swaps in a drifting kernel) is used as given, on the caller.
    """
    global _tasks
    if gram_matrix is not _GRAM_MATRIX:
        return row_indicator(gram_matrix(window, k))
    w = _checked_window(window, k, (2, 3))
    n, start = w.shape[-1], time.perf_counter()
    step = max(1, CHUNK_BYTES // max(1, w[..., :1, :].nbytes))  # the Gram rows a cap holds
    two = n > step and (_pace[1] <= _pace[0]) != (_pace[2] % 32 == 1)
    step = max(1, step // 2) if two else step
    sums, starts = np.empty(w.shape[:-2] + (n,)), iter(range(0, max(n, 1), step))
    first, *second = np.empty((1 + two,) + w.shape[:-2] + (min(step, n), n + (n == 1)))
    if two:
        import queue  # here, so start-up and small windows never load it

        with _lock:
            if _tasks is None:  # set once the worker runs, so a failed start leaves no queue
                tasks = queue.SimpleQueue()
                threading.Thread(target=_serve, args=(tasks,), name="ucindex", daemon=True).start()
                _tasks = tasks
        done, start = queue.SimpleQueue(), time.perf_counter()  # the worker's start is not timed
        _tasks.put((done, w, k, starts, step, sums, *second))  # next() on starts is atomic
    try:
        _abs_row_sums(w, k, starts, step, sums, first)
    finally:  # the worker is always joined
        error = done.get() if two else None
    if error is not None:
        raise error
    if two or n > step:
        with _lock:
            _pace[2], seconds = _pace[2] + 1, (time.perf_counter() - start) / (w.size * n)
            _pace[two] = seconds if _pace[two] == np.inf else (_pace[two] + seconds) / 2
    if not np.isfinite(sums).all():
        raise NonFiniteValue("overflow encountered")
    return sums


def gram_matrix_bruteforce(window: np.ndarray, k: int) -> np.ndarray:
    """Oracle twin of :func:`gram_matrix`: an explicit sum over (i, j, l).

    No matrix-product shortcut; every entry is accumulated independently
    from the defining sum. Exists to cross-check the fast path and for
    nothing else.
    """
    w = _checked_window(window, k, (2,))
    n = w.shape[1]
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += w[l, i] * w[l, j]
            g[i, j] = acc / (k - 1)
    return g


@_finite
def standardize_window(window: np.ndarray) -> np.ndarray:
    """Standardize each column of a window (or of a stack's windows) to zero mean, unit variance.

    Columns with zero sample variance are mapped to all-zero rather than
    dividing by zero, so their cross-moments vanish.
    """
    w = np.ascontiguousarray(window, dtype=float)  # C order fixes the summation order
    if w.ndim < 2 or w.shape[-2] < 2:
        raise BadWindow(f"standardization needs >= 2 rows, got shape {w.shape}")
    centered = w - w.mean(axis=-2, keepdims=True)
    std = np.sqrt((centered * centered).sum(axis=-2, keepdims=True) / (w.shape[-2] - 1))
    return np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)


@_finite
def row_indicator(matrix: np.ndarray) -> np.ndarray:
    """Per-variable indicator: sum of absolute values along each row (of each matrix of a stack).

    Rows are summed in C order, so a row's sum does not depend on the memory layout.
    """
    return np.abs(np.ascontiguousarray(matrix, dtype=float)).sum(axis=-1)


def indicator_series(
    series: ProcessSeries,
    config: WindowConfig,
    mode_label: str = "series",
) -> IndicatorSeries:
    """Run the full per-period indicator computation over a process series.

    For every period with a complete lag window (or a shrunken one of at
    least two lags, under ``Warmup.SHRINK``) this slices the window and takes
    its :func:`window_indicator`: full windows a chunk of consecutive periods
    at a time, one stacked call per step (see ``CHUNK_BYTES``), shrunken ones singly.

    Raises
    ------
    SeriesTooShort
        If no period admits a window under the configured warmup policy.
    NonFiniteValue
        If the arithmetic at some period overflows; the error names it.
    """
    first = (MIN_SHRINK_LAGS if config.warmup is Warmup.SHRINK else config.k) + 1
    ts = range(first, series.t_max + 1)
    if len(ts) == 0:
        raise SeriesTooShort(
            f"t_max={series.t_max} leaves no period with a full window "
            f"(k={config.k}, warmup={config.warmup.value})"
        )
    rows = np.empty((len(ts), series.n))
    per_chunk = max(1, CHUNK_BYTES // (8 * series.n * max(series.n, config.k)))
    t = ts.start
    while t in ts:
        k = min(config.k, t - 1)
        count = min(per_chunk if k == config.k else 1, ts.stop - t)
        try:
            window = slice_window(series, t, k, count)
            if config.standardize:
                window = standardize_window(window)
            rows[t - ts.start : t - ts.start + count] = window_indicator(window, k)
            t += count
        except NonFiniteValue as exc:
            if count == 1:
                raise NonFiniteValue(f"{mode_label}, period {t}: {exc}") from None
            per_chunk = 1  # redo this chunk a period at a time, so the error names the period
    return IndicatorSeries(ts.start, rows, config, mode_label)


def scalar_per_period(series: IndicatorSeries) -> np.ndarray:
    """Collapse each defined period's n indicator values into one scalar (their sum).

    Summing these scalars reproduces the series total up to the rounding of
    each scalar.
    """
    return _row_sums(series.values)


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """The exact (fsum) sum of each row."""
    # a row at a time: one list of every value would cost about 32 bytes per value
    return np.fromiter(map(fsum, map(np.ndarray.tolist, rows)), float, len(rows))


def ingest_precomputed(
    scalars,
    mode_label: str,
    first_period: int = 1,
) -> IndicatorSeries:
    """Wrap already-computed per-period indicator scalars as an IndicatorSeries.

    The values are treated as a single-variable series starting at
    ``first_period``. This is the entry path for externally published
    per-period results, which can then flow through :func:`compare_modes`
    and the report emitters unchanged.

    Raises
    ------
    SeriesTooShort
        If no values are given.
    NegativeIndicator
        If any value is negative.
    NonFiniteValue
        If any value is NaN or infinite, or their total overflows.
    """
    scalars = scalars if isinstance(scalars, np.ndarray) else list(scalars)  # an array at once
    values = np.asarray(scalars, dtype=float)[:, np.newaxis]
    return IndicatorSeries(first_period, values, None, mode_label)


def compare_modes(basic: IndicatorSeries, competency: IndicatorSeries) -> ModeComparison:
    """Pair two indicator series and take their per-period and total differences.

    Both series must cover the same time axis with the same variable count
    and the same window settings, so their defined periods coincide.

    Raises
    ------
    ConfigMismatch
        If the variable count, window settings, or defined periods differ.
    """
    return ModeComparison(basic=basic, competency=competency)
