"""Invariant suite for the indicator engine on randomized inputs."""

from __future__ import annotations

from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucindex import (
    ProcessSeries,
    WindowConfig,
    gram_matrix,
    gram_matrix_bruteforce,
    indicator_series,
    scalar_per_period,
)
from ucindex import indicator
from ucindex.indicator import standardize_window, window_indicator


def random_window(rng: np.random.Generator) -> tuple[np.ndarray, int]:
    n = int(rng.integers(1, 9))
    k = int(rng.integers(2, 11))
    return rng.uniform(-10, 10, size=(k, n)), k


def random_series(rng: np.random.Generator, n_max: int = 6, t_max: int = 25) -> ProcessSeries:
    n = int(rng.integers(1, n_max + 1))
    t = int(rng.integers(10, t_max + 1))
    return ProcessSeries(
        values=rng.uniform(-10, 10, size=(n, t)),
        variable_labels=tuple(f"v{i}" for i in range(n)),
    )


@pytest.mark.parametrize("seed", range(40))
def test_gram_symmetry_bit_exact(seed):
    window, k = random_window(np.random.default_rng(seed))
    g = gram_matrix(window, k)
    assert np.array_equal(g, g.T)


@pytest.mark.parametrize("seed", range(40))
def test_gram_positive_semidefinite(seed):
    window, k = random_window(np.random.default_rng(seed))
    g = gram_matrix(window, k)
    assert np.linalg.eigvalsh(g).min() >= -1e-10


@pytest.mark.parametrize("seed", range(40))
def test_oracle_equivalence(monkeypatch, seed):
    window, k = random_window(np.random.default_rng(seed))
    oracle = gram_matrix_bruteforce(window, k)
    np.testing.assert_allclose(gram_matrix(window, k), oracle, rtol=1e-12, atol=0)
    # the fast path in tiles of two rows: several tiles from n = 3 on
    monkeypatch.setattr(indicator, "CHUNK_BYTES", 2 * window[:1].nbytes)
    np.testing.assert_allclose(
        window_indicator(window, k), np.abs(oracle).sum(axis=-1), rtol=1e-12, atol=0
    )


@pytest.mark.parametrize("seed", range(20))
def test_indicators_nonnegative(seed):
    rng = np.random.default_rng(seed)
    result = indicator_series(random_series(rng), WindowConfig(k=int(rng.integers(2, 7))))
    assert (result.values >= 0).all()


@pytest.mark.parametrize("seed", range(20))
def test_scaling_is_quadratic(seed):
    rng = np.random.default_rng(seed)
    series = random_series(rng)
    config = WindowConfig(k=4)
    alpha = float(rng.uniform(0.1, 5.0))
    scaled = ProcessSeries(
        values=series.values * alpha, variable_labels=series.variable_labels
    )
    base = indicator_series(series, config)
    grown = indicator_series(scaled, config)
    np.testing.assert_allclose(grown.values, base.values * alpha**2, rtol=1e-9)
    assert abs(grown.total - base.total * alpha**2) <= 1e-9 * abs(base.total * alpha**2)
    # argmax of the per-period scalar is scale-invariant
    assert np.argmax(scalar_per_period(grown)) == np.argmax(scalar_per_period(base))


@pytest.mark.parametrize("seed", range(20))
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    series = random_series(rng)
    config = WindowConfig(k=4)
    perm = rng.permutation(series.n)
    permuted = ProcessSeries(
        values=series.values[perm],
        variable_labels=tuple(series.variable_labels[i] for i in perm),
    )
    base = indicator_series(series, config)
    shuffled = indicator_series(permuted, config)
    # per-variable indicators permute along with the variables
    np.testing.assert_allclose(shuffled.values, base.values[:, perm], rtol=1e-12)
    # period scalars and the total are permutation-invariant
    np.testing.assert_allclose(
        scalar_per_period(shuffled), scalar_per_period(base), rtol=1e-9
    )
    assert abs(shuffled.total - base.total) <= 1e-9 * abs(base.total)


@pytest.mark.parametrize("seed", range(20))
def test_total_additivity_over_periods(seed):
    rng = np.random.default_rng(seed)
    result = indicator_series(random_series(rng), WindowConfig(k=3))
    assert abs(fsum(scalar_per_period(result)) - result.total) <= 1e-9 * max(
        1.0, abs(result.total)
    )


@pytest.mark.parametrize("seed", range(20))
def test_standardized_entries_bounded(seed):
    rng = np.random.default_rng(seed)
    series = random_series(rng)
    config = WindowConfig(k=5, standardize=True)
    result = indicator_series(series, config)
    # every |r_ij| <= 1 and the diagonal is 1, so row sums are within [1, n]
    assert (result.values <= series.n + 1e-9).all()
    assert (result.values >= 1 - 1e-9).all()


@given(st.integers(2, 10), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_standardize_then_gram_has_unit_diagonal(k, n, seed):
    rng = np.random.default_rng(seed)
    window = rng.uniform(-100, 100, size=(k, n))
    g = gram_matrix(standardize_window(window), k)
    np.testing.assert_allclose(np.diag(g), 1.0, rtol=1e-9)
    assert np.abs(g).max() <= 1 + 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_constant_series_closed_form(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    k = int(rng.integers(2, 8))
    level = float(rng.uniform(0.1, 50.0))
    t_max = k + int(rng.integers(1, 10))
    series = ProcessSeries(
        values=np.full((n, t_max), level),
        variable_labels=tuple(f"v{i}" for i in range(n)),
    )
    result = indicator_series(series, WindowConfig(k=k))
    expected = n * k / (k - 1) * level**2
    np.testing.assert_allclose(result.values, expected, rtol=1e-9)
