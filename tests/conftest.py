"""Inputs shared by the indicator and CLI tests."""

from __future__ import annotations

import numpy as np
import pytest


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
