"""Lag-window Gram-correlation matrices and integral indicators.

For a period t and window length k, the k most recent observation vectors
before t form a k x n lag matrix W. The Gram-correlation matrix is
R = W'W / (k-1): entry (i, j) is the uncentered cross-moment of variables i
and j over the window. The per-variable indicator at t is the sum of
absolute values along row i of R, and the integral indicator of a whole run
is the sum of those values over every defined period and variable.

Determinism contract: a window's indicator takes one of two forms, chosen from its own values
(slice by slice in a stack), so a period's values depend on none of how the periods are chunked.
Each adds in an order of numpy's ``np.einsum`` (no BLAS, no ``optimize`` path) that the strict
tests pin with ``np.array_equal``, so a numpy that changes it fails the tests, not the results.

One-sign form, where n >= 8, each column is >= 0 or <= 0 throughout, each nonzero |w| lies in
[2^-480, 2^480] and k <= 1024: row i of |R| sums to sum_l |w_li| S_l / (k-1), S_l = sum_j |w_lj|,
in O(k n), the lags added in ascending order. (Below n = 8 its guard costs more than the tiles
save; at n = 1 the tiles add these products in this order.) No product or sum there meets a
subnormal or an overflow, and this form and :func:`gram_matrix_bruteforce` each lie within
(k + ceil(log2 n) + 3) 2^-53 of the exact row sum.

Tile form, every other window: the Gram kernel forms each entry with one einsum of a lag-contiguous
left operand and a C-ordered right one, which adds its k products in ascending lag order into a
C-ordered block. (A lag-contiguous right operand breaks that: beside a lag-contiguous left one it
takes einsum's dot path, beside a C-ordered one it gives an F-ordered block, whose rows are summed
in another order.) So R is bit-identical to the defining loop in :func:`gram_matrix_bruteforce`,
and symmetric with no mirroring step (IEEE multiplication commutes, and the products for (i, j)
and (j, i) are added in the same order). :func:`window_indicator` forms R's upper triangle alone,
in tiles of rows, on the calling thread, and never holds the n x n matrix. Each row's sum of
absolute values is added in a fixed tile order, which the cap fixes. A matrix of one tile
(n <= 362, and every stack that indicator_series forms) gets the bits of its plain reference,
``row_indicator(gram_matrix(window, k))``, which holds R whole; the strict tests hold wider ones
bit for bit to a tile-order reference.

Note the entries are raw cross-moments, not Pearson correlations: columns
are not centered or scaled unless ``standardize`` is switched on, which is
an explicitly non-default variant. On monetary inputs the indicator is
therefore expressed in squared input units (see ``INDICATOR_UNIT``).
The kernel functions raise NonFiniteValue when their arithmetic overflows.

Totals, per-period scalars and deltas are exact sums, rounded once (``math.fsum``, or a
``Fraction`` sum where fsum's partial sums overflow); a delta is one sum over the competency
values and the negated basic values, so large, nearly equal modes do not cancel. At n = 1 the
scalars are the values themselves and a delta is one subtraction, as exact and as rounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from math import fsum
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    BadWindow,
    ConfigMismatch,
    DimensionMismatch,
    NegativeIndicator,
    NonFiniteValue,
    SeriesTooShort,
)
from .process_model import ProcessSeries, _finite, _Fresh, slice_window

INDICATOR_UNIT = "input-unit^2"

MIN_SHRINK_LAGS = 2  # the cross-moment normalizer k-1 needs at least 2 lags

# Byte cap on the work held at once. Output rows (io_formats.row_chunks) take a quarter a slice,
# all they allocate at 128 bytes a float; exact sums a sixteenth, as lists at 32 bytes a value that
# pymalloc keeps. A chunk of p = max(1, CHUNK_BYTES // (32 max(2, n) max(n, k))) periods (56 at
# n = 24, k = 12; 1 from n = 129) holds its window stack, the stack's lag-contiguous copy and its
# Gram rows (with the zero column at n = 1) in a quarter of the cap each, so a stack is one tile and
# keeps its bits; window_indicator forms a larger Gram matrix in tiles of max(1, CHUNK_BYTES //
# (8 n)) rows (131 at n = 1000). A 4 MiB cap raised ledger-long's peak RSS 38.6 -> 46.2 MB.
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

    ``values[r, i]`` is the indicator of variable i at period ``first_period + r``; periods run
    consecutively to ``t_max``. ``total`` is the exact sum of every stored value. ``config`` is
    None for series ingested from precomputed scalars. ``values`` is copied or adopted as in
    ``ProcessSeries``, and its zeros are stored as +0.0, as an exact sum gives them.
    """

    first_period: int
    values: np.ndarray
    config: WindowConfig | None
    mode_label: str
    total: float = field(init=False)

    def __post_init__(self) -> None:
        if self.first_period < 1:
            raise DimensionMismatch(f"first defined period must be >= 1, got {self.first_period}")
        arr = np.array(self.values, dtype=float, copy=not isinstance(self.values, _Fresh))
        if arr.ndim != 2:
            raise DimensionMismatch(f"values must be periods x variables, got shape {arr.shape}")
        if len(arr) == 0:
            raise SeriesTooShort("an indicator series needs at least one defined period")
        for bad, error, rule in ((~np.isfinite(arr), NonFiniteValue, "must be finite"),
                                 (arr < 0, NegativeIndicator, "must be >= 0")):
            if bad.any():
                t = self.first_period + int(bad.any(axis=1).argmax())
                raise error(f"{self.mode_label}, period {t}: indicator values {rule}")
        arr += 0.0  # in place: the array is a copy or adopted; -0.0 becomes +0.0, as fsum gives it
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        try:
            total = _exact_sum(_flat, arr)
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
            raise ConfigMismatch(f"window settings differ: {basic.config} vs {competency.config}")
        if basic.periods != competency.periods:
            spans = (f"{m.first_period}..{m.t_max}" for m in (basic, competency))
            raise ConfigMismatch("defined periods differ: {} vs {}".format(*spans))
        rows = (row for s in _slices(competency.values, basic.values) for row in s.tolist())
        deltas = map(_exact_sum, itertools.repeat(iter), rows)  # _exact_sum(iter, row) each
        deltas = (competency.values[:, 0] - basic.values[:, 0] if basic.n == 1  # one rounding
                  else np.fromiter(deltas, float, len(basic.values)))
        scalars = scalar_per_period(basic), scalar_per_period(competency), deltas
        for name, arr in zip(("basic_scalars", "competency_scalars", "delta_per_period"), scalars):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        total = _exact_sum(_flat, competency.values, basic.values)  # finite: |C - B| <= max(C, B)
        object.__setattr__(self, "delta_total", total)

    @property
    def periods(self) -> range:
        return self.basic.periods


def _slices(values: np.ndarray, *negated: np.ndarray) -> Iterator[np.ndarray]:
    """``values`` beside each ``negated`` array, negated, a sixteenth of the cap at a time."""
    step = max(1, CHUNK_BYTES // (512 * max(1, values.shape[1] * (1 + len(negated)))))
    for r in range(0, len(values), step):
        yield np.hstack([values[r:r + step], *(-a[r:r + step] for a in negated)])


def _flat(*arrays: np.ndarray) -> Iterator[float]:
    return itertools.chain.from_iterable(s.ravel().tolist() for s in _slices(*arrays))


def _exact_sum(values: Callable[..., Iterable[float]], *args) -> float:
    """All of ``values(*args)`` summed exactly, rounded once (OverflowError if out of range)."""
    try:
        return fsum(values(*args))
    except OverflowError:  # one of fsum's partial sums passed the largest float, maybe not the sum
        from fractions import Fraction  # here: it imports decimal, which nothing else needs
        return float(sum(map(Fraction, values(*args))))


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


def _gram_block(w: np.ndarray, k: int, rows: slice) -> np.ndarray:
    """Rows ``rows`` of W'W / (k-1), per slice, of a checked window or stack; NaN or inf stays
    unreported, as einsum does not report overflow to np.errstate. A lag-contiguous left operand
    and a C-ordered right one (a zero column appended at n = 1, dropped from the result) give a
    C-ordered block off einsum's dot path, each entry's k products added in ascending lag order."""
    n, left = w.shape[-1], np.ascontiguousarray(np.swapaxes(w[..., rows], -1, -2))
    if n == 1:
        w = np.concatenate((w, np.zeros_like(w)), axis=-1)
    g = np.einsum("...il,...lj->...ij", left, w, optimize=False)
    g /= k - 1
    return g[..., :n]


def gram_matrix(window: np.ndarray, k: int) -> np.ndarray:
    """Cross-moment matrix W'W / (k-1) of a k x n lag window, or one per slice of a p x k x n stack.

    Raises
    ------
    BadWindow
        If k < 2 or the window row count differs from k.
    NonFiniteValue
        If the window contains NaN or infinite entries, or the sums overflow.
    """
    g = _gram_block(_checked_window(window, k, (2, 3)), k, slice(None))
    if not np.isfinite(g).all():
        raise NonFiniteValue("overflow encountered")
    return g


_GRAM_MATRIX = gram_matrix


@_finite
def window_indicator(window: np.ndarray, k: int) -> np.ndarray:
    """``row_indicator(gram_matrix(window, k))`` on the calling thread, with no n x n matrix, in
    the determinism contract's one-sign form where a window (or slice) admits it, else in the tile
    form over the whole stack: its bits for one tile, its sums in tile order past one.

    Tile r is rows r to r + step of R against columns r to n, for the step rows a cap holds. The
    absolute values of its entries are added to its rows, and those right of its diagonal block
    also to the rows they mirror, as column sums. Raises as :func:`gram_matrix`: a NaN or
    infinite entry makes a sum non-finite, so one check of the sums catches every overflow. A
    ``gram_matrix`` rebound in this module alone (``perfbench/selftest.py`` swaps in a drifting
    kernel) is used as given.
    """
    if gram_matrix is not _GRAM_MATRIX:
        return row_indicator(gram_matrix(window, k))
    w = _checked_window(window, k, (2, 3))
    n, stack = w.shape[-1], w.shape[:-2]
    one_sign = np.full(stack, n >= 8 and k <= 1024)  # per slice (0-d for one window)
    if one_sign.any():  # an einsum of booleans is their any, and far faster than .any(axis)
        mixed = np.einsum("...li->...i", w < 0) & np.einsum("...li->...i", w > 0)
        one_sign &= ~np.einsum("...i->...", mixed)
    if one_sign.any():  # nor may a nonzero |w| lie outside [2^-480, 2^480]
        a = np.abs(w)  # its row sums S_l overflow only where R's diagonal does, so no error moves
        one_sign &= ~np.einsum("...li->...", (a > 2.0**480) | (a < 2.0**-480) & (a != 0))
        rows = np.einsum("...li,...l->...i", a, a.sum(axis=-1), optimize=False)
        del a  # freed before any tile takes its buffer
    sums = np.zeros(stack + (n,))
    if not one_sign.all():  # on every slice, so the tiles are those of the whole stack
        step = max(1, CHUNK_BYTES // max(1, w[..., :1, :].nbytes))  # the Gram rows a cap holds
        for r in range(0, n, step):  # C-ordered columns r..
            tile = _gram_block(np.ascontiguousarray(w[..., r:]), k, slice(0, step))
            np.abs(tile, out=tile)
            sums[..., r : r + step] += tile.sum(axis=-1)
            sums[..., r + step :] += tile[..., step:].sum(axis=-2)
            del tile  # freed before the next tile's buffer is taken: one cap is held at a time
    if one_sign.any():  # row i of |R| sums to sum_l |w_li| S_l / (k-1), S_l = sum_j |w_lj|
        sums[one_sign] = rows[one_sign] / (k - 1)
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

    Constant columns (told by their values: a mean may round off the constant) and columns whose
    variance underflows to 0 are mapped to all-zero, not divided by 0; their cross-moments vanish.
    """
    w = np.ascontiguousarray(window, dtype=float)  # C order fixes the summation order
    if w.ndim < 2 or w.shape[-2] < 2:
        raise BadWindow(f"standardization needs >= 2 rows, got shape {w.shape}")
    centered = w - w.mean(axis=-2, keepdims=True)
    std = np.sqrt((centered * centered).sum(axis=-2, keepdims=True) / (w.shape[-2] - 1))
    varying = (std > 0) & (w != w[..., :1, :]).any(axis=-2, keepdims=True)
    np.copyto(centered, 0.0, where=~varying)  # in place: the other columns become all-zero
    return np.divide(centered, std, out=centered, where=varying)


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
    per_chunk = max(1, CHUNK_BYTES // (32 * max(2, series.n) * max(series.n, config.k)))
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
    return IndicatorSeries(ts.start, rows.view(_Fresh), config, mode_label)


def scalar_per_period(series: IndicatorSeries) -> np.ndarray:
    """Collapse each defined period's n indicator values into one scalar (their exact sum).

    Summing these scalars reproduces the series total up to the rounding of
    each scalar. A one-variable series gives a view of its values.
    """
    if series.n == 1:  # a one-value sum is the value; stored zeros are +0.0, as fsum gives
        return series.values[:, 0]
    rows = (row for s in _slices(series.values) for row in s.tolist())
    return np.fromiter(map(_exact_sum, itertools.repeat(iter), rows), float, len(series.values))


def ingest_precomputed(
    scalars,
    mode_label: str,
    first_period: int = 1,
) -> IndicatorSeries:
    """Wrap already-computed per-period indicator scalars as an IndicatorSeries.

    The values are treated as a single-variable series starting at
    ``first_period``. This is the entry path for externally published
    per-period results, which can then flow through :func:`compare_modes`
    and the report emitters unchanged. A ``_Fresh`` array (the scalar
    columns ``report`` reads) is adopted as it is; any other values are copied.

    Raises
    ------
    SeriesTooShort
        If no values are given.
    NegativeIndicator
        If any value is negative.
    NonFiniteValue
        If any value is NaN or infinite, or their total overflows.
    """
    if not isinstance(scalars, _Fresh):  # a caller's values are copied once
        scalars = np.array(scalars if isinstance(scalars, np.ndarray) else list(scalars), float)
    return IndicatorSeries(first_period, scalars[:, np.newaxis].view(_Fresh), None, mode_label)


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
