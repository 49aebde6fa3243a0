from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ucindex import (
    ComplianceMatrix,
    DerivationRule,
    DimensionMismatch,
    NonBinaryEntry,
    NonFiniteValue,
    ProcessSeries,
    ResourceBudget,
    check_budget,
    derive_mode_series,
)


class TestComplianceMatrix:
    def test_shape(self):
        m = ComplianceMatrix(entries=np.zeros((32, 10), dtype=int))
        assert (m.m, m.n) == (32, 10)

    def test_rejects_non_binary(self):
        with pytest.raises(NonBinaryEntry):
            ComplianceMatrix(entries=[[0, 2]])

    def test_rejects_fractional(self):
        with pytest.raises(NonBinaryEntry):
            ComplianceMatrix(entries=[[0.5, 1.0]])


class TestMappingCost:
    def test_all_zero_matrix_costs_nothing(self):
        matrix = ComplianceMatrix(entries=np.zeros((3, 4), dtype=int))
        budget = ResourceBudget(limit_c=100.0, cost_per_competency=(10.0, 20.0, 30.0))
        assert check_budget(matrix, budget).cost == 0.0

    def test_only_active_rows_counted(self):
        matrix = ComplianceMatrix(entries=[[1, 0], [0, 0]])
        budget = ResourceBudget(limit_c=100.0, cost_per_competency=(10.0, 20.0))
        assert check_budget(matrix, budget).cost == 10.0

    def test_single_bundle_measurement_cost(self):
        # one competency bundle mapped to every process, at the reference
        # measurement cost of 2,936 thousand rubles
        matrix = ComplianceMatrix(entries=[[1, 1, 1]])
        budget = ResourceBudget(limit_c=5_644_378.0, cost_per_competency=(2936.0,))
        assert check_budget(matrix, budget).cost == 2936.0

    def test_cost_vector_length_must_match(self):
        matrix = ComplianceMatrix(entries=[[1, 0], [0, 1]])
        budget = ResourceBudget(limit_c=1.0, cost_per_competency=(1.0,))
        with pytest.raises(DimensionMismatch):
            check_budget(matrix, budget)

    @given(st.data())
    def test_adding_a_one_never_decreases_cost(self, data):
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 6))
        entries = np.array(
            data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                               min_size=m, max_size=m))
        )
        costs = tuple(data.draw(st.lists(st.floats(0, 1e6), min_size=m, max_size=m)))
        budget = ResourceBudget(limit_c=0.0, cost_per_competency=costs)
        base = check_budget(ComplianceMatrix(entries=entries), budget).cost
        zero_cells = np.argwhere(entries == 0)
        if len(zero_cells) == 0:
            return
        i, j = zero_cells[data.draw(st.integers(0, len(zero_cells) - 1))]
        grown = entries.copy()
        grown[i, j] = 1
        assert check_budget(ComplianceMatrix(entries=grown), budget).cost >= base


class TestCheckBudget:
    def test_reference_cost_fits_reference_limit(self):
        matrix = ComplianceMatrix(entries=[[1, 1, 1]])
        budget = ResourceBudget(limit_c=5_644_378.0, cost_per_competency=(2936.0,))
        result = check_budget(matrix, budget)
        assert result.accepted
        assert result.cost == 2936.0
        assert result.limit == 5_644_378.0

    def test_zero_cost_zero_limit_accepted(self):
        matrix = ComplianceMatrix(entries=[[0]])
        result = check_budget(matrix, ResourceBudget(limit_c=0.0, cost_per_competency=(7.0,)))
        assert result.accepted and result.cost == 0.0

    def test_exact_limit_accepted(self):
        matrix = ComplianceMatrix(entries=[[1]])
        result = check_budget(matrix, ResourceBudget(limit_c=5.0, cost_per_competency=(5.0,)))
        assert result.accepted

    def test_over_limit_rejected(self):
        matrix = ComplianceMatrix(entries=[[1]])
        result = check_budget(matrix, ResourceBudget(limit_c=9.99, cost_per_competency=(10.0,)))
        assert not result.accepted


def series_of_rows(*rows: tuple[float, ...]) -> ProcessSeries:
    return ProcessSeries(
        values=np.array(rows, dtype=float),
        variable_labels=tuple(f"v{i}" for i in range(len(rows))),
    )


class TestDeriveModeSeries:
    def test_full_coverage_mask_is_identity(self):
        series = series_of_rows((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
        matrix = ComplianceMatrix(entries=np.ones((3, 2), dtype=int))
        derived = derive_mode_series(series, matrix, DerivationRule.MASK)
        assert np.array_equal(derived.values, series.values)

    def test_zero_coverage_mask_zeroes_everything(self):
        series = series_of_rows((1.0, 2.0), (3.0, 4.0))
        matrix = ComplianceMatrix(entries=np.zeros((5, 2), dtype=int))
        derived = derive_mode_series(series, matrix, "mask")
        assert not derived.values.any()

    def test_weight_scales_by_coverage_count(self):
        # coverage counts per process: (2, 0); values (5, 7) at every period
        series = ProcessSeries(
            values=np.array([[5.0, 5.0], [7.0, 7.0]]),
            variable_labels=("a", "b"),
        )
        matrix = ComplianceMatrix(entries=[[1, 0], [1, 0]])
        derived = derive_mode_series(series, matrix, DerivationRule.WEIGHT)
        assert derived.values[:, 0].tolist() == [10.0, 0.0]
        assert derived.values[:, 1].tolist() == [10.0, 0.0]

    def test_mask_is_idempotent(self):
        rng = np.random.default_rng(7)
        series = ProcessSeries(
            values=rng.normal(size=(4, 6)),
            variable_labels=("a", "b", "c", "d"),
        )
        matrix = ComplianceMatrix(entries=rng.integers(0, 2, size=(5, 4)))
        once = derive_mode_series(series, matrix, "mask")
        twice = derive_mode_series(once, matrix, "mask")
        assert np.array_equal(once.values, twice.values)

    def test_source_unchanged(self):
        series = series_of_rows((1.0, 2.0))
        matrix = ComplianceMatrix(entries=[[0]])
        derive_mode_series(series, matrix)
        assert series.values.tolist() == [[1.0, 2.0]]

    def test_process_count_must_match(self):
        series = series_of_rows((1.0, 2.0), (3.0, 4.0))
        matrix = ComplianceMatrix(entries=[[1, 0, 1]])
        with pytest.raises(DimensionMismatch):
            derive_mode_series(series, matrix)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ComplianceMatrix(entries=[0, 1]), DimensionMismatch,
     "compliance matrix must be 2-d, got 1 dimension(s)"),
    (lambda: ComplianceMatrix(entries=np.zeros((1, 2, 2), dtype=int)), DimensionMismatch,
     "compliance matrix must be 2-d, got 3 dimension(s)"),
    (lambda: ResourceBudget(float("nan"), ()), NonFiniteValue,
     "budget limit must be finite and >= 0, got nan"),
    (lambda: ResourceBudget(-1, ()), NonFiniteValue,
     "budget limit must be finite and >= 0, got -1.0"),
    (lambda: ResourceBudget(1, (1, float("inf"))), NonFiniteValue,
     "cost for competency 2 must be finite and >= 0, got inf"),
    (lambda: ResourceBudget(1, (-0.5,)), NonFiniteValue,
     "cost for competency 1 must be finite and >= 0, got -0.5"),
], ids=["one-dimension", "three-dimensions", "nan-limit", "negative-limit", "inf-cost",
        "negative-cost"])
def test_invalid_inputs_name_the_rule_they_break(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
