"""Universal-competencies compliance mapping and resource budget.

A compliance matrix marks with 0/1 which competency applies to which
enterprise process; its m rows are the competencies, identified by row.
Activating competency mappings costs money; the budget gate checks that cost
against an available limit. Finally, the mapping can be projected onto a
process series to produce the "universal competencies" management-mode series.

All types are immutable values and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import fsum

import numpy as np

from .errors import DimensionMismatch, NonBinaryEntry, NonFiniteValue
from .process_model import ProcessSeries, _finite, _Fresh


@dataclass(frozen=True)
class ComplianceMatrix:
    """Binary m x n matrix: entry (i, j) is 1 when competency i applies to process j."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, copy=True)
        if arr.ndim != 2:
            raise DimensionMismatch(
                f"compliance matrix must be 2-d, got {arr.ndim} dimension(s)"
            )
        if not np.isin(arr, (0, 1)).all():
            raise NonBinaryEntry("compliance entries must all be 0 or 1")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        """Competency count (rows)."""
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        """Process count (columns)."""
        return self.entries.shape[1]


@dataclass(frozen=True)
class ResourceBudget:
    """Available resource limit and per-competency activation costs (thousand rubles)."""

    limit_c: float
    cost_per_competency: tuple[float, ...]

    def __post_init__(self) -> None:
        limit = float(self.limit_c)
        if not np.isfinite(limit) or limit < 0:
            raise NonFiniteValue(f"budget limit must be finite and >= 0, got {limit}")
        object.__setattr__(self, "limit_c", limit)
        costs = tuple(float(c) for c in self.cost_per_competency)
        for i, c in enumerate(costs, start=1):
            if not np.isfinite(c) or c < 0:
                raise NonFiniteValue(f"cost for competency {i} must be finite and >= 0, got {c}")
        object.__setattr__(self, "cost_per_competency", costs)


@dataclass(frozen=True)
class BudgetCheck:
    """Outcome of the budget gate: the computed cost, the limit, and the verdict."""

    accepted: bool
    cost: float
    limit: float


class DerivationRule(str, Enum):
    """How the compliance matrix projects a process series into competency mode.

    ``MASK`` (coverage-mask): a process variable is copied through when at
    least one competency maps to it, and zeroed otherwise.
    ``WEIGHT`` (coverage-weight): each variable is scaled by the number of
    competencies mapped to it.
    """

    MASK = "mask"
    WEIGHT = "weight"


def check_budget(matrix: ComplianceMatrix, budget: ResourceBudget) -> BudgetCheck:
    """Gate the mapping's activation cost against the limit (cost == limit passes).

    A competency is active when its row has at least one 1; the cost is the
    exact sum of ``cost_per_competency`` over active competencies.

    Raises
    ------
    DimensionMismatch
        If the cost vector length differs from the matrix row count.
    """
    if len(budget.cost_per_competency) != matrix.m:
        raise DimensionMismatch(
            f"{len(budget.cost_per_competency)} costs for {matrix.m} competencies"
        )
    active = matrix.entries.any(axis=1)
    try:  # costs are >= 0, so fsum overflows only where the exact cost does
        cost = fsum(c for c, a in zip(budget.cost_per_competency, active) if a)
    except OverflowError:
        raise NonFiniteValue("the activation cost overflows") from None
    return BudgetCheck(accepted=cost <= budget.limit_c, cost=cost, limit=budget.limit_c)


@_finite
def derive_mode_series(
    series: ProcessSeries,
    matrix: ComplianceMatrix,
    rule: DerivationRule | str = DerivationRule.MASK,
) -> ProcessSeries:
    """Project a process series into competency mode under an explicit rule.

    The source series is never modified. Which rule was used should be
    echoed in any downstream report metadata; see :class:`DerivationRule`
    for the two rules.

    Raises
    ------
    DimensionMismatch
        If the matrix process count differs from the series variable count.
    """
    rule = DerivationRule(rule)
    if matrix.n != series.n:
        raise DimensionMismatch(
            f"compliance matrix covers {matrix.n} processes, series has {series.n}"
        )
    counts = matrix.entries.sum(axis=0).astype(float)  # competencies per process
    if rule is DerivationRule.MASK:
        factors = (counts > 0).astype(float)
    else:
        factors = counts
    values = series.values * factors[:, np.newaxis]
    return ProcessSeries(values=values.view(_Fresh), variable_labels=series.variable_labels)
