"""Inputs shared by the indicator and CLI tests."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest


def traced_peak(fn, *args):
    """``fn(*args)`` under ``tracemalloc``: its result and the peak of the bytes it allocated."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_sign_indicator(window: np.ndarray, k: int) -> np.ndarray:
    """``window_indicator``'s one-sign form, its einsum written out: row i of |W'W| / (k-1) of a
    window or stack is sum_l |w_li| S_l / (k-1), S_l = sum_j |w_lj|, the lags added in ascending
    order. It gives ``window_indicator``'s bits where the form's guard admits the window, and at
    n <= 1, where the tiles add the same products in the same order."""
    a = np.abs(np.ascontiguousarray(window, dtype=float))
    s = a.sum(axis=-1)
    rows = np.zeros(a.shape[:-2] + a.shape[-1:])
    for l in range(k):
        rows += a[..., l, :] * s[..., l, np.newaxis]
    return rows / (k - 1)


def mixed_signs(values: np.ndarray) -> np.ndarray:
    """A variables x periods copy of ``values`` with every third variable negated in alternate
    runs of five periods, so that a window of six or more lags mixes signs in those columns."""
    mixed = values.copy()
    mixed[::3, (np.arange(values.shape[1]) // 5) % 2 == 1] *= -1
    return mixed


@pytest.fixture
def nearly_equal_series() -> tuple[np.ndarray, np.ndarray]:
    """Two large, nearly equal 32-variable series over 57 periods, as periods x variables.

    Basic is 1e7 + U(0, 1e3); the competency mode raises variable 4 by
    U(0, 1e-3) from period 21 on. Their indicator totals (k=12) agree to
    about 12 digits, so subtracting the two rounded totals cancels.
    """
    rng = np.random.default_rng(5)
    basic = 1e7 + rng.uniform(0, 1e3, size=(57, 32))
    competency = basic.copy()
    competency[20:, 3] += rng.uniform(0, 1e-3, size=37)
    return basic, competency


@pytest.fixture
def nearly_equal_scalars() -> tuple[np.ndarray, np.ndarray]:
    """1000 per-period scalar pairs near 1e15 that differ by U(0, 10)."""
    rng = np.random.default_rng(3)
    basic = 1e15 + rng.uniform(0, 1e6, 1000)
    return basic, basic + rng.uniform(0, 10, 1000)
