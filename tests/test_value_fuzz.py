"""Well-formed files whose values sit at the edges of the float range, through the CLI.

Byte and token mutations (``test_mutations.py``) exercise the readers; these
strategies keep every file well formed and draw its cells from near the
largest float, subnormals, both zeros, equal pairs and pairs that cancel, and
build scalar rows whose delta total takes fsum's partials past the largest
float. A run passes one of two ways: it exits 0 and a ``Fraction`` oracle
agrees exactly with every full-precision delta, scalar and total (and
``gram_matrix_bruteforce`` with every indicator, within 1e-12), or it exits 1
with one ``error:`` line, for the error the oracle predicts, and writes no file.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ucindex.cli import cli_main
from ucindex.indicator import gram_matrix_bruteforce

BIG = 1.7976931348623157e308
EDGES = (0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.0, 2.5,
         8.98846567431158e307, 1e308, math.nextafter(BIG, 0.0), BIG)
MAGNITUDES = st.one_of(st.sampled_from(EDGES), st.floats(0.0, BIG), st.floats(0.0, 1e3))
MODERATE = st.one_of(st.sampled_from(EDGES[:7]), st.floats(0.0, 1e3))
BOUNDED = st.floats(1.0, 1e3)  # inside the one-sign form's magnitude bounds, and never zero
HUGE = st.one_of(st.sampled_from((0.0, -0.0, *EDGES[7:])), st.floats(1e307, BIG))
RELATIVE = 1e-12  # the acceptance gate's bound on the kernel against its oracle


def exact(values) -> Fraction:
    return sum(map(Fraction, values), Fraction(0))


def rounded(value: Fraction) -> float | None:
    """``value`` rounded once to a float, or None if it is out of range."""
    try:
        return float(value)
    except OverflowError:
        return None


def fmt2(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def run(argv: list[str], out: Path | None) -> tuple[int, str, list[str]]:
    """``cli_main(argv)``: its exit code, its report (``out`` or stdout) and its stderr lines."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    errors = stderr.getvalue().splitlines()
    if out is not None and code == 0:
        return code, out.read_text(encoding="utf-8"), errors
    return code, stdout.getvalue(), errors


def assert_outcome(code: int, errors: list[str], error: str | None, folder: Path,
                   inputs: set[str]) -> None:
    """Exit 0 with no stderr, or exit 1 with one error line naming ``error`` and no new file."""
    if error is None:
        assert (code, errors) == (0, []), errors
    else:
        assert code == 1 and len(errors) == 1, (code, errors)
        assert errors[0].startswith(f"error: {error}: "), (error, errors)
        assert set(os.listdir(folder)) == inputs


# --- per-period scalars: report and fixture-verify ---------------------------------------------


@st.composite
def past_the_largest_float(draw) -> list[tuple[float, float]]:
    """MODERATE pairs, two cells of one column in [2^1022, 2^1023) whose sum is a tie that rounds
    away from zero, and after them, in the delta total's order (c1, -b1, c2, -b2, ...), the
    largest float in the other column. fsum then holds a partial of half an ulp of the largest
    float, of that float's sign in the delta, and adding the float to it passes the largest
    float, while every sum the oracle takes stays finite (or is out of range on its own)."""
    rows = [list(row) for row in draw(st.lists(st.tuples(MODERATE, MODERATE), min_size=3,
                                               max_size=8))]
    side = draw(st.integers(0, 1))  # the two cells' column: 0 basic, 1 competency
    i, j = sorted(draw(st.lists(st.integers(0, len(rows) - 2 + side), min_size=2, max_size=2,
                                unique=True)))
    quarters = st.integers(2**50, 2**51 - 1)  # a quarter of a mantissa of [2^1022, 2^1023)
    rows[i][side] = math.ldexp(4 * draw(quarters), 970)
    rows[j][side] = math.ldexp(4 * draw(quarters) + 3, 970)  # mantissas 3 mod 4: a tie, away
    # the largest float follows row j's cell in the delta's order: in row j itself only as its
    # basic value, which comes after its competency value (so basic cells leave a later row free)
    rows[draw(st.integers(j + 1 - side, len(rows) - 1))][1 - side] = BIG
    return [tuple(row) for row in rows]


@st.composite
def scalar_rows(draw) -> list[tuple[float, float]]:
    """Scalar pairs of one magnitude regime: equal pairs (their delta cancels) and any pairs, or
    rows past the largest float; now and then one cell is negated, which the ingest must reject."""
    cell = draw(st.sampled_from([MAGNITUDES, MODERATE, HUGE, None]))
    if cell is None:
        rows = draw(past_the_largest_float())
    else:
        pair = st.one_of(st.tuples(cell, cell), cell.map(lambda x: (x, x)))
        rows = draw(st.lists(pair, min_size=1, max_size=8))
    if draw(st.integers(0, 7)) == 0:
        r, side = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 1))
        row = list(rows[r])
        row[side] = -row[side]
        rows[r] = tuple(row)
    return rows


def ingest_error(columns) -> str | None:
    """The error ingesting each column in turn raises first, or None."""
    for column in columns:
        if any(x < 0 for x in column):
            return "NegativeIndicator"
        if rounded(exact(column)) is None:
            return "NonFiniteValue"
    return None


def scalar_csv(rows, first: int) -> str:
    return "t,basic,universal_competencies\n" + "".join(
        f"{t},{b!r},{c!r}\n" for t, (b, c) in enumerate(rows, start=first))


def check_report(text: str, fmt: str, rows, first: int) -> None:
    basic, competency = zip(*rows)
    want = [(float(exact([b])), float(exact([c])), float(Fraction(c) - Fraction(b)))
            for b, c in rows]
    total = (float(exact(basic)), float(exact(competency)), float(exact(competency) - exact(basic)))
    body = [line for line in text.splitlines() if not line.startswith("#")]
    if fmt == "csv":
        assert body[0].startswith("t,basic,universal_competencies,delta,")
        expected = [f"{t},{','.join(map(fmt2, v))},{','.join(map(repr, v))}"
                    for t, v in [*enumerate(want, start=first), ("total", total)]]
        assert body[1:] == expected
    else:
        assert len(set(map(len, body))) == 1, body  # every cell right-aligned to its column
        expected = [[str(t), *map(fmt2, v)]
                    for t, v in [*enumerate(want, start=first), ("Total", total)]]
        assert [line.split() for line in body[1:]] == expected


@settings(max_examples=150, deadline=None)
@given(scalar_rows(), st.integers(1, 40), st.sampled_from(["csv", "table"]))
@example([(0.0, 8.510162095219329e307), (1.7976931348623157e308, 1.780488503565008e307)],
         1, "csv")  # fsum's partial sums overflow; the exact delta total is -7.68628074983882e307
@example([(-0.0, -0.0), (0.0, -0.0), (5e-324, 5e-324), (BIG, BIG)], 13, "table")
def test_report_agrees_with_the_exact_sums(rows, first, fmt):
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        path, out = folder / "scalars.csv", folder / "report.out"
        path.write_text(scalar_csv(rows, first), encoding="utf-8")
        code, text, errors = run(["report", str(path), "--format", fmt, "--out", str(out)], out)
        error = ingest_error(zip(*rows))
        assert_outcome(code, errors, error, folder, {"scalars.csv"})
        if error is None:
            check_report(text, fmt, rows, first)


@settings(max_examples=100, deadline=None)
@given(scalar_rows(), st.sampled_from(["exact", "within", "beyond"]))
def test_fixture_verify_agrees_with_the_exact_totals(rows, declare):
    basic, competency = zip(*rows)
    totals = [rounded(exact(basic)), rounded(exact(competency)),
              rounded(exact(competency) - exact(basic))]
    moved = {"exact": lambda x: x, "within": lambda x: x + 0.015,  # the band is +/-0.02
             "beyond": lambda x: x + 0.5 if abs(x) < 1 else x / 2}[declare]
    declared = [0.0 if x is None else moved(x) for x in totals]
    lines = [f"# declared_total_{name}={value!r}"
             for name, value in zip(("basic", "competency", "delta"), declared)]
    lines.append("t,basic,universal_competencies,delta")
    lines += [f"{t},{b!r},{c!r},{c - b if math.isfinite(c - b) else 0.0!r}"
              for t, (b, c) in enumerate(rows, start=1)]
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        path = folder / "fixture.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, text, errors = run(["fixture-verify", "--fixture", str(path)], None)
        error = ingest_error((basic, competency))
        if error is None:
            names = ("basic_total", "competency_total", "delta_total")
            assert text.splitlines() == [f"{n}={x:.2f}" for n, x in zip(names, totals)]
            if any(abs(x - d) > 0.02 for x, d in zip(totals, declared)):
                error = "FixtureMismatch"
        assert_outcome(code, errors, error, folder, {"fixture.csv"})


# --- process series: indicator and compare -----------------------------------------------------


@st.composite
def series_rows(draw, n: int, periods: int) -> np.ndarray:
    """A periods x n series of one magnitude regime. Either each column's sign is drawn once, so
    that windows take the one-sign form where their magnitudes allow (subnormal and near-max
    cells do not; ``BOUNDED`` ones, always signed so, do from n = 8 on), or each cell is signed
    on its own, and a row may negate the one before, so that the products of adjacent lags
    cancel."""
    cell = draw(st.sampled_from([MAGNITUDES, MODERATE, BOUNDED]))
    if cell is BOUNDED or draw(st.booleans()):
        signs = np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)), -1.0, 1.0)
        return signs * np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                              min_size=periods, max_size=periods)))
    signed = st.tuples(cell, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    rows = []
    for _ in range(periods):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append([-x for x in rows[-1]])
        else:
            rows.append(draw(st.lists(signed, min_size=n, max_size=n)))
    return np.array(rows)


@st.composite
def series_pairs(draw):
    """Two series of one shape, the second independent, equal to the first, or its negation (the
    same Gram matrices: every delta cancels); a window length and a warm-up policy. From 8
    variables on, windows may take the one-sign form."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(7, 9)))
    periods, k = draw(st.integers(2, 8)), draw(st.integers(2, 4))
    basic = draw(series_rows(n, periods))
    kind = draw(st.sampled_from(["independent", "equal", "negated"]))
    competency = {"equal": basic, "negated": -basic}.get(kind)
    if competency is None:
        competency = draw(series_rows(n, periods))
    return basic, competency, k, draw(st.sampled_from(["skip", "shrink"]))


def oracle_indicators(values: np.ndarray, k: int, warmup: str) -> tuple[int, np.ndarray | None]:
    """The first defined period and the brute-force indicators of each, or None on overflow."""
    first = (2 if warmup == "shrink" else k) + 1
    rows = []
    for t in range(first, len(values) + 1):
        lags = min(k, t - 1)
        window = values[t - 1 - lags : t - 1][::-1]  # periods t-1 down to t-lags
        with np.errstate(over="ignore", invalid="ignore"):
            rows.append(np.abs(gram_matrix_bruteforce(window, lags)).sum(axis=1))
    result = np.array(rows).reshape(-1, values.shape[1])
    return first, result if np.isfinite(result).all() else None


def series_csv(values: np.ndarray) -> str:
    header = "t," + ",".join(f"v{i}" for i in range(values.shape[1]))
    return "\n".join([header, *(f"{t}," + ",".join(map(repr, row))
                                for t, row in enumerate(values.tolist(), start=1))]) + "\n"


def indicator_rows(text: str, first: int) -> np.ndarray:
    """The per-variable values of an ``indicator`` output, after checking its exact scalars and
    total against them."""
    body = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
    assert [int(cells[0]) for cells in body] == list(range(first, first + len(body)))
    values = [list(map(float, cells[1:-1])) for cells in body]
    assert [cells[-1] for cells in body] == [repr(float(exact(row))) for row in values]
    assert f"# total={float(exact(np.ravel(values).tolist()))!r}" in text.splitlines()
    return np.array(values)


@settings(max_examples=120, deadline=None)
@given(series_pairs())
@example((np.array([[1e200], [1.0], [2.0]]), np.array([[1.0], [2.0], [3.0]]), 2, "skip"))
@example((np.array([[5e-324, -0.0], [-5e-324, 0.0], [1.0, -1.0], [-1.0, 1.0]]),
          np.array([[-5e-324, 0.0], [5e-324, -0.0], [-1.0, 1.0], [1.0, -1.0]]), 2, "shrink"))
@example((np.array([[2.0**481] + [1.5] * 7, [3.0] * 8, [2.0] + [2.0**480] * 7, [1.25] * 8]),
          np.array([[2.0**-481] + [-1.5] * 7, [3.0] + [-2.5] * 7, [2.0**-480] + [-2.0] * 7,
                    [1.25] + [-3.0] * 7]), 2, "shrink"))  # the one-sign form's magnitude edges
def test_indicator_and_compare_agree_with_their_oracles(case):
    basic, competency, k, warmup = case
    window = ["--window", str(k), "--warmup", warmup]
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        inputs = {"basic.csv": basic, "universal.csv": competency}
        for name, values in inputs.items():
            (folder / name).write_text(series_csv(values), encoding="utf-8")
        indicators, errors_seen = [], []
        for name, values in inputs.items():
            first, want = oracle_indicators(values, k, warmup)
            out = folder / "indicator.out"
            code, text, errors = run(["indicator", str(folder / name), *window, "--out", str(out)],
                                     out)
            error = ("SeriesTooShort" if first > len(values) else
                     "NonFiniteValue" if want is None or rounded(exact(want.ravel())) is None
                     else None)
            assert_outcome(code, errors, error, folder, set(inputs))
            errors_seen.append(error)
            if error is None:
                got = indicator_rows(text, first)
                np.testing.assert_allclose(got, want, rtol=RELATIVE, atol=0)
                indicators.append(got)
                out.unlink()
        out = folder / "report.csv"
        code, text, errors = run(["compare", "--basic", str(folder / "basic.csv"), "--universal",
                                  str(folder / "universal.csv"), *window, "--format", "csv",
                                  "--out", str(out)], out)
        error = next((e for e in errors_seen if e is not None), None)
        assert_outcome(code, errors, error, folder, set(inputs))
        if error is None:
            b, c = indicators
            want = [(float(exact(rb)), float(exact(rc)), float(exact(rc) - exact(rb)))
                    for rb, rc in zip(b.tolist(), c.tolist())]
            totals = [exact(b.ravel().tolist()), exact(c.ravel().tolist())]
            want.append((float(totals[0]), float(totals[1]), float(totals[1] - totals[0])))
            body = [line.split(",")[1:] for line in text.splitlines()
                    if not line.startswith("#")][1:]
            assert [cells[3:] for cells in body] == [list(map(repr, v)) for v in want]
            assert [cells[:3] for cells in body] == [list(map(fmt2, v)) for v in want]
