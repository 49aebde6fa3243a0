"""Deterministic synthetic scenarios with staffing regime changes.

Real enterprise ledgers are rarely publishable, so end-to-end runs are
exercised on generated data instead. A scenario describes a flat noisy
process series plus a list of staffing events (hire or dismiss) that shift
the level of some variables from their event period onward. Two series come
out: the basic mode, untouched by the events, and the competency mode where
the events take effect. Before the earliest event the two are identical.

Everything is a pure function of the scenario value, seed included: the same
scenario always yields bit-identical series. Noise comes from numpy's
default generator (see ``NOISE_ALGORITHM``); only seeded self-consistency is
promised, not a particular stream across numpy versions.

Role-to-variable assignment: the distinct event roles, in order of first
appearance, split the variable axis into equal contiguous blocks (earlier
blocks take the remainder). An event touches the first ``count`` variables
of its role's block.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidScenario
from .process_model import ProcessSeries, _finite, _Fresh

NOISE_ALGORITHM = "numpy-pcg64"

REFERENCE_SEED = 20057


def _store_typed(value: object, kind: type, *names: str) -> None:
    """Store each named field of ``value`` as ``kind`` (int or float), or raise TypeError naming it.

    Bools never pass; a float field also takes an integer, if it fits a float.
    """
    accepted = numbers.Integral if kind is int else numbers.Real
    for name in names:
        field_value = getattr(value, name)
        if isinstance(field_value, bool) or not isinstance(field_value, accepted):
            called = "an integer" if kind is int else "a real number"
            raise TypeError(f"{name} must be {called}, got {field_value!r:.40}")
        try:
            object.__setattr__(value, name, kind(field_value))
        except OverflowError:
            raise TypeError(f"{name} is too large for a float") from None


class EventKind(str, Enum):
    HIRE = "hire"
    DISMISS = "dismiss"


@dataclass(frozen=True)
class ScenarioEvent:
    """One staffing change: from ``period`` onward, ``count`` staff of ``role`` join or leave."""

    period: int
    kind: EventKind
    role: str
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", EventKind(self.kind))
        _store_typed(self, int, "period", "count")
        if not isinstance(self.role, str):
            raise TypeError(f"role must be a string, got {self.role!r:.40}")
        if self.period < 1:
            raise InvalidScenario(f"event period must be >= 1, got {self.period}")
        if self.count < 1:
            raise InvalidScenario(f"event count must be >= 1, got {self.count}")
        if not self.role:
            raise InvalidScenario("event role must be a nonempty string")


@dataclass(frozen=True)
class Scenario:
    """Full description of a synthetic run; a pure value, safe to share.

    ``event_effect`` is the level multiplier a hire applies to each affected
    variable from the event period onward; a dismissal applies its inverse.
    """

    t_max: int
    n: int
    seed: int
    base_level: float = 100.0
    noise_scale: float = 5.0
    event_effect: float = 1.25
    events: tuple[ScenarioEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        _store_typed(self, int, "t_max", "n", "seed")
        _store_typed(self, float, "base_level", "noise_scale", "event_effect")
        if self.t_max < 3:
            raise InvalidScenario(f"t_max must be >= 3, got {self.t_max}")
        if self.n < 1:
            raise InvalidScenario(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise InvalidScenario(f"seed must be a nonnegative integer, got {self.seed}")
        if not np.isfinite(self.base_level):
            raise InvalidScenario("base_level must be finite")
        if not np.isfinite(self.noise_scale) or self.noise_scale < 0:
            raise InvalidScenario(f"noise_scale must be >= 0, got {self.noise_scale}")
        if not np.isfinite(self.event_effect) or self.event_effect <= 0:
            raise InvalidScenario(
                f"event_effect must be a positive multiplier, got {self.event_effect}"
            )
        for event in self.events:
            if event.period > self.t_max:
                raise InvalidScenario(
                    f"event at period {event.period} is beyond t_max={self.t_max}"
                )
        role_blocks(self)  # rejects counts that exceed a role's block


def role_blocks(scenario: Scenario) -> dict[str, range]:
    """Contiguous variable block owned by each role.

    Blocks are as equal as possible, earlier roles taking the remainder.
    Indices are 0-based into the variable axis.

    Raises
    ------
    InvalidScenario
        If an event's count exceeds its role's block size.
    """
    roles = list(dict.fromkeys(event.role for event in scenario.events))  # in order of first appearance
    blocks: dict[str, range] = {}
    if roles:
        per_role, extra = divmod(scenario.n, len(roles))
        start = 0
        for b, role in enumerate(roles):
            size = per_role + (1 if b < extra else 0)
            blocks[role] = range(start, start + size)
            start += size
    for event in scenario.events:
        block = blocks[event.role]
        held = block.stop - block.start  # len() raises OverflowError past sys.maxsize
        if event.count > held:
            raise InvalidScenario(
                f"event needs {event.count} variables for role {event.role!r}, "
                f"but its block holds only {held}"
            )
    return blocks


@_finite
def generate_series(scenario: Scenario) -> tuple[ProcessSeries, ProcessSeries]:
    """Generate the (basic mode, competency mode) series pair for a scenario.

    Both series share one seeded noise draw around ``base_level``. The basic
    series is that draw unchanged. The competency series additionally scales
    each event's affected variables by ``event_effect`` (hire) or its inverse
    (dismiss) from the event period onward, events applied in listed order.
    """
    rng = np.random.default_rng(scenario.seed)
    base = scenario.base_level + scenario.noise_scale * rng.standard_normal(
        (scenario.n, scenario.t_max)
    )
    competency = base.copy()
    blocks = role_blocks(scenario)
    for event in scenario.events:
        block = blocks[event.role]
        affected = range(block.start, block.start + event.count)
        factor = (
            scenario.event_effect
            if event.kind is EventKind.HIRE
            else 1.0 / scenario.event_effect
        )
        competency[affected.start : affected.stop, event.period - 1 :] *= factor
    labels = variable_labels(scenario.n)
    return (
        ProcessSeries(values=base.view(_Fresh), variable_labels=labels),
        ProcessSeries(values=competency.view(_Fresh), variable_labels=labels),
    )


def variable_labels(n: int) -> tuple[str, ...]:
    """Generated process names p01, p02, ... (width grows with n)."""
    width = max(2, len(str(n)))
    return tuple(f"p{i:0{width}d}" for i in range(1, n + 1))


def reference_scenario() -> Scenario:
    """The canonical demo: 57 periods, 32 processes, staffing events at periods 7 and 13.

    Three managers and three personnel managers are hired from period 7; two
    managers are dismissed from period 13. The seed is a fixed published
    constant so every run of the demo is reproducible.
    """
    return Scenario(
        t_max=57,
        n=32,
        seed=REFERENCE_SEED,
        base_level=100.0,
        noise_scale=5.0,
        event_effect=1.25,
        events=(
            ScenarioEvent(period=7, kind=EventKind.HIRE, role="manager", count=3),
            ScenarioEvent(period=7, kind=EventKind.HIRE, role="personnel-manager", count=3),
            ScenarioEvent(period=13, kind=EventKind.DISMISS, role="manager", count=2),
        ),
    )
