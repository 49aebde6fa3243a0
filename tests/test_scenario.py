from __future__ import annotations

import numpy as np
import pytest

from ucindex import (
    InvalidScenario,
    WindowConfig,
    generate_series,
    indicator_series,
    reference_scenario,
)
from ucindex.scenario import EventKind, Scenario, ScenarioEvent, role_blocks


def test_no_events_no_noise_gives_constant_identical_series():
    scenario = Scenario(t_max=10, n=2, seed=1, base_level=1.0, noise_scale=0.0)
    basic, competency = generate_series(scenario)
    assert np.array_equal(basic.values, np.ones((2, 10)))
    assert np.array_equal(basic.values, competency.values)


def test_constant_scenario_hits_indicator_closed_form():
    scenario = Scenario(t_max=12, n=3, seed=1, base_level=2.0, noise_scale=0.0)
    basic, _ = generate_series(scenario)
    result = indicator_series(basic, WindowConfig(k=5))
    # n*k/(k-1)*level^2 = 3*5/4*4 = 15
    np.testing.assert_allclose(result.values, 15.0, rtol=1e-12)


def test_same_seed_bit_identical():
    scenario = reference_scenario()
    b1, c1 = generate_series(scenario)
    b2, c2 = generate_series(scenario)
    assert np.array_equal(b1.values, b2.values)
    assert np.array_equal(c1.values, c2.values)


def test_different_seed_differs():
    base = reference_scenario()
    other = Scenario(
        t_max=base.t_max, n=base.n, seed=base.seed + 1,
        base_level=base.base_level, noise_scale=base.noise_scale,
        event_effect=base.event_effect, events=base.events,
    )
    b1, _ = generate_series(base)
    b2, _ = generate_series(other)
    assert not np.array_equal(b1.values, b2.values)


def test_modes_split_at_first_event():
    basic, competency = generate_series(reference_scenario())
    assert np.array_equal(basic.values[:, :6], competency.values[:, :6])
    assert not np.array_equal(basic.values[:, 6:], competency.values[:, 6:])


def test_only_event_variables_change():
    scenario = Scenario(
        t_max=20, n=8, seed=3,
        events=(ScenarioEvent(period=5, kind=EventKind.HIRE, role="ops", count=2),),
    )
    basic, competency = generate_series(scenario)
    affected = list(role_blocks(scenario)["ops"])[:2]
    untouched = [i for i in range(8) if i not in affected]
    assert np.array_equal(basic.values[untouched], competency.values[untouched])
    for i in affected:
        np.testing.assert_allclose(
            competency.values[i, 4:], basic.values[i, 4:] * scenario.event_effect
        )
        assert np.array_equal(competency.values[i, :4], basic.values[i, :4])


def test_dismiss_applies_inverse_effect():
    scenario = Scenario(
        t_max=10, n=4, seed=3, noise_scale=0.0, base_level=10.0, event_effect=2.0,
        events=(ScenarioEvent(period=4, kind="dismiss", role="ops", count=1),),
    )
    basic, competency = generate_series(scenario)
    np.testing.assert_allclose(competency.values[0, 3:], 5.0)
    np.testing.assert_allclose(competency.values[0, :3], 10.0)
    np.testing.assert_allclose(basic.values, 10.0)


def test_reference_scenario_shape():
    scenario = reference_scenario()
    assert scenario.t_max == 57
    assert scenario.n == 32
    assert len(scenario.events) == 3
    assert sorted(e.period for e in scenario.events) == [7, 7, 13]
    kinds = {(e.period, e.kind) for e in scenario.events}
    assert (13, EventKind.DISMISS) in kinds


def test_role_blocks_partition_evenly():
    blocks = role_blocks(reference_scenario())
    assert blocks["manager"] == range(0, 16)
    assert blocks["personnel-manager"] == range(16, 32)


class TestValidation:
    def test_rejects_short_axis(self):
        with pytest.raises(InvalidScenario):
            Scenario(t_max=2, n=1, seed=0)

    def test_rejects_negative_noise(self):
        with pytest.raises(InvalidScenario):
            Scenario(t_max=5, n=1, seed=0, noise_scale=-1.0)

    def test_rejects_event_beyond_axis(self):
        with pytest.raises(InvalidScenario):
            Scenario(
                t_max=5, n=2, seed=0,
                events=(ScenarioEvent(period=6, kind="hire", role="x", count=1),),
            )

    def test_rejects_nonpositive_effect(self):
        with pytest.raises(InvalidScenario):
            Scenario(t_max=5, n=1, seed=0, event_effect=0.0)

    def test_rejects_count_exceeding_role_block(self):
        with pytest.raises(InvalidScenario):
            Scenario(
                t_max=5, n=2, seed=0,
                events=(
                    ScenarioEvent(period=1, kind="hire", role="a", count=2),
                    ScenarioEvent(period=2, kind="hire", role="b", count=1),
                ),
            )

    def test_checks_role_blocks_wider_than_sys_maxsize(self):
        # len() of such a range raises OverflowError; the block size must not need it
        events = (ScenarioEvent(period=1, kind="hire", role="a", count=10**400),)
        assert Scenario(t_max=5, n=10**400, seed=0, events=events).n == 10**400
        with pytest.raises(InvalidScenario, match="holds only"):
            Scenario(t_max=5, n=10**400 - 1, seed=0, events=events)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ScenarioEvent(period=1, kind="promote", role="x", count=1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"t_max": "5"}, "t_max must be an integer"),
            ({"n": 2.0}, "n must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"base_level": None}, "base_level must be a real number"),
            ({"noise_scale": "5"}, "noise_scale must be a real number"),
            ({"event_effect": False}, "event_effect must be a real number"),
            ({"base_level": 10**400}, "base_level is too large for a float"),
        ],
    )
    def test_wrong_field_type_is_type_error(self, fields, message):
        with pytest.raises(TypeError, match=message):
            Scenario(**{"t_max": 5, "n": 1, "seed": 0, **fields})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"period": "1"}, "period must be an integer"),
            ({"count": 1.0}, "count must be an integer"),
            ({"count": True}, "count must be an integer"),
            ({"role": None}, "role must be a string"),
            ({"role": 3}, "role must be a string"),
        ],
    )
    def test_wrong_event_field_type_is_type_error(self, fields, message):
        with pytest.raises(TypeError, match=message):
            ScenarioEvent(**{"period": 1, "kind": "hire", "role": "x", "count": 1, **fields})

    def test_numbers_are_stored_as_their_field_types(self):
        scenario = Scenario(t_max=np.int64(5), n=1, seed=0, base_level=100,
                            noise_scale=np.float32(0.5))
        assert type(scenario.t_max) is int
        assert (type(scenario.base_level), scenario.base_level) == (float, 100.0)
        assert (type(scenario.noise_scale), scenario.noise_scale) == (float, 0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: ScenarioEvent(0, "hire", "ops", 1), "event period must be >= 1, got 0"),
    (lambda: ScenarioEvent(1, "hire", "ops", 0), "event count must be >= 1, got 0"),
    (lambda: ScenarioEvent(1, "dismiss", "", 1), "event role must be a nonempty string"),
    (lambda: Scenario(t_max=5, n=0, seed=1), "n must be >= 1, got 0"),
    (lambda: Scenario(t_max=5, n=1, seed=-1), "seed must be a nonnegative integer, got -1"),
    (lambda: Scenario(t_max=5, n=1, seed=1, base_level=float("nan")), "base_level must be finite"),
    (lambda: Scenario(t_max=5, n=1, seed=1, base_level=-float("inf")), "base_level must be finite"),
], ids=["event-period-0", "event-count-0", "empty-role", "n-0", "negative-seed", "nan-level",
        "infinite-level"])
def test_invalid_scenarios_name_the_rule_they_break(call, message):
    with pytest.raises(InvalidScenario) as info:
        call()
    assert str(info.value) == message
