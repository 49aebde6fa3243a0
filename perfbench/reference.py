"""Output checker: references computed without the ucindex kernel.

The reference indicator is the definition written out with a batched matrix
product: for each defined period, the lag window W (k x n) gives
G = W'W / (k-1), the per-variable indicator is the row sum of |G|, and the
period scalar is the exact sum of those. ``--standardize`` applies
``standardize_window``'s definition first (zero mean, unit sample variance,
zero-variance columns set to 0). A few sampled periods are cross-checked
against the repository's brute-force oracle ``gram_matrix_bruteforce``, so a
wrong reference cannot pass silently.

Every parse or comparison failure raises ``Mismatch``; the caller counts it
as a failed invocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

RTOL = 1e-12  # the repository's oracle bound for scalars and totals
ORACLE_PERIODS = 3
ORACLE_VARIABLES = 16
CHUNK_ELEMENTS = 1 << 21  # Gram entries held at once while building references


class Mismatch(Exception):
    """An output that disagrees with the reference, or cannot be parsed."""


@dataclass(frozen=True)
class Indicators:
    """Reference indicators of one mode: defined periods, per-variable rows, period scalars."""

    periods: tuple[int, ...]
    rows: np.ndarray
    scalars: tuple[float, ...]

    @property
    def total(self) -> float:
        return math.fsum(self.scalars)


def _standardize(w: np.ndarray, axis: int) -> np.ndarray:
    centered = w - w.mean(axis=axis, keepdims=True)
    std = np.sqrt((centered * centered).sum(axis=axis, keepdims=True) / (w.shape[axis] - 1))
    out = np.zeros_like(centered)
    np.divide(centered, std, out=out, where=std > 0)
    return out


def _gram_rows(windows: np.ndarray, k: int) -> np.ndarray:
    """Row sums of |W'W/(k-1)| for a batch of windows shaped (batch, n, k)."""
    gram = windows @ windows.transpose(0, 2, 1) / (k - 1)
    return np.abs(gram).sum(axis=2)


def indicators(values: np.ndarray, k: int, standardize: bool = False, shrink: bool = False) -> Indicators:
    """Reference indicators of a series held as variables x periods."""
    n, t_max = values.shape
    periods: list[int] = []
    rows: list[np.ndarray] = []
    if shrink:  # periods 3..k use all t-1 available lags
        for t in range(3, min(k, t_max) + 1):
            w = values[:, : t - 1][np.newaxis]
            if standardize:
                w = _standardize(w, axis=2)
            periods.append(t)
            rows.append(_gram_rows(w, t - 1))
    # window s covers periods s+1..s+k and serves period s+k+1
    full = sliding_window_view(values, k, axis=1).transpose(1, 0, 2)[: t_max - k]
    chunk = max(1, CHUNK_ELEMENTS // (n * n))
    for s in range(0, full.shape[0], chunk):
        w = full[s : s + chunk]
        if standardize:
            w = _standardize(w, axis=2)
        rows.extend(_gram_rows(w, k))
        periods.extend(range(s + k + 1, s + k + 1 + w.shape[0]))
    table = np.vstack(rows)
    return Indicators(tuple(periods), table, tuple(math.fsum(r) for r in table.tolist()))


def oracle_cross_check(values: np.ndarray, k: int, ref: Indicators, rng: np.random.Generator,
                       standardize: bool = False, focus: tuple[int, ...] = ()) -> None:
    """Compare the reference Gram entries with ``gram_matrix_bruteforce`` on sampled periods.

    Variables listed in ``focus`` (such as spiked ones) are always sampled.
    Raises RuntimeError: a disagreement means the reference itself is wrong.
    """
    from ucindex.indicator import gram_matrix_bruteforce

    n = values.shape[0]
    full_periods = [t for t in ref.periods if t > k]
    for t in rng.choice(full_periods, size=min(ORACLE_PERIODS, len(full_periods)), replace=False):
        t = int(t)
        rest = np.setdiff1d(np.arange(n), focus)
        sample = rng.choice(rest, size=min(ORACLE_VARIABLES, rest.size), replace=False)
        pick = np.sort(np.concatenate([focus, sample]).astype(int))
        window = values[:, t - k - 1 : t - 1]
        if standardize:
            window = _standardize(window, axis=1)
        mine = (window @ window.T / (k - 1))[np.ix_(pick, pick)]
        oracle = gram_matrix_bruteforce(window[pick].T, k)
        scale = np.abs(mine).max()
        if not np.allclose(mine, oracle, rtol=RTOL, atol=RTOL * scale):
            raise RuntimeError(f"reference Gram disagrees with gram_matrix_bruteforce at period {t}")


def close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * max(abs(want), abs(got))


def fmt2(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def _num(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise Mismatch(f"{token!r} is not a number") from None


def check_close(what: str, got: float, want: float) -> None:
    if not close(got, want):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


def check_delta(what: str, got: float, basic: float, comp: float) -> None:
    """A difference agrees to RTOL of the larger operand; it may cancel to near zero."""
    if abs(got - (comp - basic)) > RTOL * max(abs(basic), abs(comp)):
        raise Mismatch(f"{what}: got {got!r}, reference {comp - basic!r}")


def check_2dp(what: str, token: str, want: float) -> None:
    """A two-decimal cell equals the reference rounded, allowing only a rounding-boundary tie."""
    if token != fmt2(want) and abs(_num(token) - want) > 0.005 + RTOL * abs(want):
        raise Mismatch(f"{what}: printed {token}, reference {want!r}")


def split_metadata(text: str) -> tuple[list[str], dict[str, str]]:
    body, meta = [], {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            body.append(line)
    return body, meta


def check_metadata(meta: dict[str, str], expected: dict[str, str]) -> None:
    for key, value in expected.items():
        if meta.get(key) != value:
            raise Mismatch(f"metadata {key}={meta.get(key)!r}, expected {value!r}")


def _rows(body: list[str], header: str, fields: int, footer: str | None) -> list[list[str]]:
    if not body or body[0] != header:
        raise Mismatch(f"header is {body[0] if body else None!r}, expected {header!r}")
    rows = [line.split(",") for line in body[1:]]
    if any(len(r) != fields for r in rows):
        raise Mismatch("ragged output row")
    if footer is not None and (not rows or rows[-1][0] != footer):
        raise Mismatch(f"missing {footer!r} row")
    return rows


def _check_periods(rows: list[list[str]], periods: tuple[int, ...]) -> None:
    if [r[0] for r in rows] != [str(t) for t in periods]:
        raise Mismatch("reported periods differ from the defined periods")


def check_compare_csv(text: str, basic: Indicators, comp: Indicators, meta: dict[str, str],
                      exact: bool = False) -> int:
    """A ``--format csv`` report: both modes and the delta, per period and in total.

    With ``exact`` the full-precision columns must round-trip bit for bit
    (re-reported scalars); otherwise they agree within RTOL. Returns the
    number of (mode, period) pairs checked.
    """
    body, got_meta = split_metadata(text)
    header = "t,basic,universal_competencies,delta,basic_full,universal_competencies_full,delta_full"
    rows = _rows(body, header, 7, "total")
    _check_periods(rows[:-1], basic.periods)
    check_metadata(got_meta, meta)
    want = zip(basic.scalars, comp.scalars)
    for row, (b, c) in zip(rows, want):
        fb, fc, fd = (_num(x) for x in row[4:7])
        if exact:
            if (fb, fc) != (b, c):
                raise Mismatch(f"period {row[0]}: scalars do not round-trip")
        else:
            check_close(f"period {row[0]} basic", fb, b)
            check_close(f"period {row[0]} universal", fc, c)
        check_delta(f"period {row[0]} delta", fd, b, c)
        for token, full in zip(row[1:4], (fb, fc, fd)):
            if token != fmt2(full):
                raise Mismatch(f"period {row[0]}: printed {token}, full value {full!r}")
    tb, tc, td = (_num(x) for x in rows[-1][4:7])
    check_close("total basic", tb, basic.total)
    check_close("total universal", tc, comp.total)
    check_delta("total delta", td, basic.total, comp.total)
    return 2 * len(basic.periods)


def check_compare_table(text: str, basic: Indicators, comp: Indicators, meta: dict[str, str]) -> int:
    """A ``--format table`` report, printed at two decimals."""
    body, got_meta = split_metadata(text)
    if not body or body[0].split() != ["t", "V_basic", "V_universal", "dV"]:
        raise Mismatch("table header missing")
    rows = [line.split() for line in body[1:]]
    if any(len(r) != 4 for r in rows) or not rows or rows[-1][0] != "Total":
        raise Mismatch("malformed table")
    _check_periods(rows[:-1], basic.periods)
    check_metadata(got_meta, meta)
    for row, b, c in zip(rows, basic.scalars, comp.scalars):
        for token, want, col in zip(row[1:], (b, c, c - b), ("basic", "universal", "delta")):
            check_2dp(f"period {row[0]} {col}", token, want)
    for token, want in zip(rows[-1][1:], (basic.total, comp.total, comp.total - basic.total)):
        check_2dp("Total", token, want)
    return 2 * len(basic.periods)


def check_plot_data(text: str, basic: Indicators, comp: Indicators) -> None:
    """Per-period scalars of both modes at full precision."""
    rows = _rows(text.splitlines(), "t,basic,universal_competencies", 3, None)
    _check_periods(rows, basic.periods)
    for row, b, c in zip(rows, basic.scalars, comp.scalars):
        check_close(f"plot period {row[0]} basic", _num(row[1]), b)
        check_close(f"plot period {row[0]} universal", _num(row[2]), c)


def check_indicator(text: str, ref: Indicators, meta: dict[str, str]) -> int:
    """``ucindex indicator``: per-variable values, the period scalar, and the total."""
    body, got_meta = split_metadata(text)
    n = ref.rows.shape[1]
    if not body or len(body[0].split(",")) != n + 2:
        raise Mismatch("indicator header has the wrong width")
    rows = [line.split(",") for line in body[1:]]
    if any(len(r) != n + 2 for r in rows):
        raise Mismatch("ragged indicator row")
    _check_periods(rows, ref.periods)
    check_metadata(got_meta, meta)
    for row, want_row, want in zip(rows, ref.rows, ref.scalars):
        check_close(f"period {row[0]} scalar", _num(row[-1]), want)
        for i, (token, v) in enumerate(zip(row[1:-1], want_row.tolist())):
            if abs(_num(token) - v) > RTOL * want:
                raise Mismatch(f"period {row[0]} variable {i + 1}: got {token}, reference {v!r}")
    check_close("total", _num(got_meta.get("total", "nan")), ref.total)
    return len(ref.periods)


def check_series_file(text: str, values: np.ndarray) -> None:
    """A series CSV written by ``simulate`` holds exactly the scenario's values."""
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    if len(body) != values.shape[1] + 1:
        raise Mismatch("simulated series has the wrong number of periods")
    got = np.array([[_num(x) for x in line.split(",")[1:]] for line in body[1:]]).T
    if got.shape != values.shape or not np.array_equal(got, values):
        raise Mismatch("simulated series differs from the scenario's definition")


def check_budget_line(text: str, cost: float, limit: float) -> None:
    parts = text.split()
    if len(parts) != 3 or parts[0] != "ACCEPT" or not parts[1].startswith("cost=") \
            or not parts[2].startswith("limit="):
        raise Mismatch(f"unexpected budget verdict {text!r}")
    check_close("budget cost", _num(parts[1][5:]), cost)
    check_close("budget limit", _num(parts[2][6:]), limit)


def fixture_totals(text: str) -> tuple[float, float, float]:
    """Totals of the shipped reference fixture, summed from its rows."""
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")][1:]
    basic = math.fsum(float(r[1]) for r in rows)
    comp = math.fsum(float(r[2]) for r in rows)
    return basic, comp, comp - basic


def check_fixture_verify(text: str, totals: tuple[float, float, float]) -> None:
    lines = text.split("\n")
    names = ("basic_total", "competency_total", "delta_total")
    if len(lines) != 4 or lines[3] != "":
        raise Mismatch("fixture-verify printed an unexpected number of lines")
    for line, name, want in zip(lines, names, totals):
        key, _, token = line.partition("=")
        if key != name:
            raise Mismatch(f"expected {name}=, got {line!r}")
        check_2dp(name, token, want)
