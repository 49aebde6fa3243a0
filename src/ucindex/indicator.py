"""Lag-window Gram-correlation matrices and integral indicators.

For a period t and window length k, the k most recent observation vectors
before t form a k x n lag matrix W. The Gram-correlation matrix is
R = W'W / (k-1): entry (i, j) is the uncentered cross-moment of variables i
and j over the window. The per-variable indicator at t is the sum of
absolute values along row i of R, and the integral indicator of a whole run
is the sum of those values over every defined period and variable.

R is symmetric bit for bit with no mirroring step: IEEE multiplication
commutes exactly (x_i*x_j == x_j*x_i), and :func:`gram_matrix` adds the
products for (i, j) and (j, i) in the same lag order.

Note the entries are raw cross-moments, not Pearson correlations: columns
are not centered or scaled unless ``standardize`` is switched on, which is
an explicitly non-default variant. On monetary inputs the indicator is
therefore expressed in squared input units (see ``INDICATOR_UNIT``).

Totals are accumulated with exact (Shewchuk) summation via ``math.fsum`` so
results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import fsum

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

    ``values[r, i]`` is the indicator of variable i at the r-th defined
    period ``periods[r]``. ``total`` equals the sum of every stored value.
    ``config`` is None for series ingested from precomputed scalars.
    """

    periods: tuple[int, ...]
    values: np.ndarray
    total: float
    t_max: int
    config: WindowConfig | None
    mode_label: str

    def __post_init__(self) -> None:
        periods = tuple(int(t) for t in self.periods)
        object.__setattr__(self, "periods", periods)
        if not periods:
            raise SeriesTooShort("an indicator series needs at least one defined period")
        if periods[0] < 1 or any(b <= a for a, b in zip(periods, periods[1:])):
            raise DimensionMismatch(f"periods must ascend from >= 1, got {periods}")
        if periods[-1] != self.t_max:
            raise DimensionMismatch(
                f"last defined period {periods[-1]} must equal t_max={self.t_max}"
            )
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != len(periods):
            raise DimensionMismatch(
                f"values shape {arr.shape} does not match {len(periods)} defined periods"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteValue("indicator values contain NaN or infinite entries")
        if (arr < 0).any():
            raise NegativeIndicator("indicator values must be >= 0")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        exact = fsum(arr.ravel())
        if abs(self.total - exact) > 1e-9 * max(1.0, abs(exact)):
            raise DimensionMismatch(
                f"declared total {self.total} differs from stored values' sum {exact}"
            )

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
    construction, so every consumer reads the same arrays.
    """

    basic: IndicatorSeries
    competency: IndicatorSeries
    basic_scalars: np.ndarray = field(init=False)
    competency_scalars: np.ndarray = field(init=False)
    delta_per_period: np.ndarray = field(init=False)
    delta_total: float = field(init=False)

    def __post_init__(self) -> None:
        basic, competency = self.basic, self.competency
        if basic.t_max != competency.t_max:
            raise ConfigMismatch(f"t_max differs: {basic.t_max} vs {competency.t_max}")
        if basic.n != competency.n:
            raise ConfigMismatch(f"variable count differs: {basic.n} vs {competency.n}")
        if basic.config != competency.config:
            raise ConfigMismatch(
                f"window settings differ: {basic.config} vs {competency.config}"
            )
        if basic.periods != competency.periods:
            raise ConfigMismatch("defined periods differ between the two series")
        basic_scalars = scalar_per_period(basic)
        competency_scalars = scalar_per_period(competency)
        delta = competency_scalars - basic_scalars
        for name, arr in (("basic_scalars", basic_scalars),
                          ("competency_scalars", competency_scalars),
                          ("delta_per_period", delta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "delta_total", competency.total - basic.total)

    @property
    def periods(self) -> tuple[int, ...]:
        return self.basic.periods


def _checked_window(window: np.ndarray, k: int) -> np.ndarray:
    """The window as a float array, once it passes the checks both Gram kernels share."""
    w = np.asarray(window, dtype=float)
    if k < 2:
        raise BadWindow(f"window length must be >= 2, got k={k}")
    if w.ndim != 2 or w.shape[0] != k:
        raise BadWindow(f"expected {k} window rows, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NonFiniteValue("window contains NaN or infinite entries")
    return w


def gram_matrix(window: np.ndarray, k: int) -> np.ndarray:
    """Cross-moment matrix W'W / (k-1) of a k x n lag window.

    Entries are accumulated lag by lag in ascending order (one rank-1 update
    per window row), so the reduction order is fixed and results never
    depend on a BLAS blocking choice. Symmetry is bit-exact without any
    mirroring step: IEEE multiplication commutes exactly, so entries (i, j)
    and (j, i) add the same products in the same lag order.

    Raises
    ------
    BadWindow
        If k < 2 or the window row count differs from k.
    NonFiniteValue
        If the window contains NaN or infinite entries.
    """
    w = _checked_window(window, k)
    n = w.shape[1]
    g = np.zeros((n, n))
    for row in w:
        g += np.outer(row, row)
    g /= k - 1
    return g


def gram_matrix_bruteforce(window: np.ndarray, k: int) -> np.ndarray:
    """Oracle twin of :func:`gram_matrix`: an explicit sum over (i, j, l).

    No matrix-product shortcut; every entry is accumulated independently
    from the defining sum. Exists to cross-check the fast path and for
    nothing else.
    """
    w = _checked_window(window, k)
    n = w.shape[1]
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += w[l, i] * w[l, j]
            g[i, j] = acc / (k - 1)
    return g


def standardize_window(window: np.ndarray) -> np.ndarray:
    """Standardize each window column to zero mean, unit sample variance.

    Columns with zero sample variance are mapped to all-zero rather than
    dividing by zero, so their cross-moments vanish.
    """
    w = np.asarray(window, dtype=float)
    if w.shape[0] < 2:
        raise BadWindow(f"standardization needs >= 2 rows, got shape {w.shape}")
    centered = w - w.mean(axis=0)
    std = w.std(axis=0, ddof=1)
    out = np.zeros_like(centered)
    nonconstant = std > 0
    out[:, nonconstant] = centered[:, nonconstant] / std[nonconstant]
    return out


def row_indicator(matrix: np.ndarray) -> np.ndarray:
    """Per-variable indicator: sum of absolute values along each row, diagonal included."""
    return np.abs(np.asarray(matrix, dtype=float)).sum(axis=1)


def _effective_k(config: WindowConfig, t: int) -> int:
    if config.warmup is Warmup.SHRINK:
        return min(config.k, max(t - 1, MIN_SHRINK_LAGS))
    return config.k


def _defined_periods(config: WindowConfig, t_max: int) -> range:
    if config.warmup is Warmup.SHRINK:
        return range(MIN_SHRINK_LAGS + 1, t_max + 1)
    return range(config.k + 1, t_max + 1)


def indicator_series(
    series: ProcessSeries,
    config: WindowConfig,
    mode_label: str = "series",
) -> IndicatorSeries:
    """Run the full per-period indicator computation over a process series.

    For every period with a complete lag window (or a shrunken one of at
    least two lags, under ``Warmup.SHRINK``) this slices the window, forms
    the Gram-correlation matrix, and takes the per-variable row sums of
    absolute values. The grand total over all defined periods and variables
    is accumulated exactly, in ascending period order.

    Raises
    ------
    SeriesTooShort
        If no period admits a window under the configured warmup policy.
    """
    ts = _defined_periods(config, series.t_max)
    if len(ts) == 0:
        raise SeriesTooShort(
            f"t_max={series.t_max} leaves no period with a full window "
            f"(k={config.k}, warmup={config.warmup.value})"
        )
    rows = np.empty((len(ts), series.n))
    for r, t in enumerate(ts):
        k = _effective_k(config, t)
        window = slice_window(series, t, k)
        if config.standardize:
            window = standardize_window(window)
        rows[r] = row_indicator(gram_matrix(window, k))
    total = fsum(rows.ravel())
    return IndicatorSeries(
        periods=tuple(ts),
        values=rows,
        total=total,
        t_max=series.t_max,
        config=config,
        mode_label=mode_label,
    )


def scalar_per_period(series: IndicatorSeries) -> np.ndarray:
    """Collapse each defined period's n indicator values into one scalar (their sum).

    Summing these scalars over all defined periods reproduces the series
    total exactly.
    """
    return np.array([fsum(row) for row in series.values])


def ingest_precomputed(
    scalars,
    mode_label: str,
    first_period: int = 1,
) -> IndicatorSeries:
    """Wrap already-computed per-period indicator scalars as an IndicatorSeries.

    The values are treated as a single-variable series starting at
    ``first_period``; the total is their exact sum. This is the entry path
    for externally published per-period results, which can then flow through
    :func:`compare_modes` and the report emitters unchanged.

    Raises
    ------
    SeriesTooShort
        If no values are given.
    NegativeIndicator
        If any value is negative.
    NonFiniteValue
        If any value is NaN or infinite.
    """
    arr = np.array(list(scalars), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise SeriesTooShort(
            "precomputed series must be a flat sequence with at least one value"
        )
    periods = tuple(range(first_period, first_period + arr.size))
    return IndicatorSeries(
        periods=periods,
        values=arr.reshape(-1, 1),
        # fsum raises on inf + -inf; leaving non-finite entries out lets the
        # constructor report them as NonFiniteValue instead
        total=fsum(arr[np.isfinite(arr)]),
        t_max=periods[-1],
        config=None,
        mode_label=mode_label,
    )


def compare_modes(basic: IndicatorSeries, competency: IndicatorSeries) -> ModeComparison:
    """Pair two indicator series and take their per-period and total differences.

    Both series must cover the same time axis with the same variable count
    and the same window settings, so their defined periods coincide.

    Raises
    ------
    ConfigMismatch
        If t_max, variable count, window settings, or defined periods differ.
    """
    return ModeComparison(basic=basic, competency=competency)
