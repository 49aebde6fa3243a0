"""Seeded input generator for the ucindex benchmark workloads.

Every input is a pure function of (workload, seed): the same seed writes the
same bytes. Files are written with the benchmark's own writers, not with
ucindex's, so the CLI sees only generated files. The arrays behind each file
are kept in memory for the output checker (``reference.py``).

Sizes, against this machine's caches (L2 4 MiB per core, L3 300 MiB shared):

* desk-session: 32 x 57 series; the 32 x 32 Gram matrix is 8 KiB (fits L1/L2).
* paper-wide: 1000 x 92 series, 0.74 MB per mode in memory; the 1000 x 1000
  Gram matrix is 8 MB per period, twice L2 and far below L3. 80 defined
  periods x 2 modes = 160 Gram calls, each the per-period cost of the paper's
  full 1000 x 1200 run.
* ledger-long: 24 x 5000 series, 0.96 MB per mode; a 24 x 24 Gram is 4.6 KiB.
* replay-report: 100000 x 2 scalars, 1.6 MB as arrays, about 4.4 MB as text.

The sizes keep one session (one pass over a workload's CLI calls) between one
and six seconds, so a run of 20 s holds three or more sessions and its median
is steady on a shared machine whose speed drifts over seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

K = 12

DESK_N, DESK_T = 32, 57
WIDE_N, WIDE_T = 1000, 92
LEDGER_N, LEDGER_T, LEDGER_M = 24, 5000, 32
REPLAY_ROWS, REPLAY_FIRST = 100_000, K + 1

BASE_LEVEL, NOISE_SCALE = 100.0, 5.0
SPIKE_FACTOR = 1e6  # one-period spikes about 10^6 x the level
SPIKES_PER_MODE = 4

# The paper's reference scenario: hires at period 7, a dismissal at period 13.
DESK_EVENTS = (
    {"period": 7, "kind": "hire", "role": "manager", "count": 3},
    {"period": 7, "kind": "hire", "role": "personnel-manager", "count": 3},
    {"period": 13, "kind": "dismiss", "role": "manager", "count": 2},
)
EVENT_EFFECT = 1.25


@dataclass
class Inputs:
    """Generated files of one workload, plus what the checker needs to verify outputs."""

    workload: str
    seed: int
    dir: Path
    files: dict[str, Path] = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    manifest: list[dict] = field(default_factory=list)
    budget: float = 0.0

    def record(self, name: str, path: Path, n: int, t_max: int, array: np.ndarray | None) -> None:
        self.files[name] = path
        self.manifest.append({
            "name": name,
            "n": n,
            "t_max": t_max,
            "k": K,
            "bytes": path.stat().st_size,
            "array_bytes": 0 if array is None else int(array.nbytes),
        })


def labels(n: int) -> list[str]:
    width = max(2, len(str(n)))
    return [f"p{i:0{width}d}" for i in range(1, n + 1)]


def write_series(path: Path, values: np.ndarray) -> None:
    """Series CSV (variables x periods in memory, one row per period on disk)."""
    lines = ["t," + ",".join(labels(values.shape[0]))]
    for t, column in enumerate(values.T.tolist(), start=1):
        lines.append(f"{t}," + ",".join(map(repr, column)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_compliance(path: Path, entries: np.ndarray) -> None:
    lines = ["competency_id," + ",".join(labels(entries.shape[1]))]
    for cid, row in enumerate(entries.tolist(), start=1):
        lines.append(f"{cid}," + ",".join(str(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def compliance_matrix(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Random 0/1 mapping with some unmapped processes and some inactive competencies."""
    entries = (rng.random((m, n)) < 0.3).astype(np.int64)
    entries[:, rng.choice(n, size=max(1, n // 8), replace=False)] = 0
    entries[rng.choice(m, size=max(1, m // 8), replace=False), :] = 0
    return entries


def noise(rng: np.random.Generator, n: int, t_max: int) -> np.ndarray:
    return BASE_LEVEL + NOISE_SCALE * rng.standard_normal((n, t_max))


def desk_series(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The 57 x 32 reference scenario, computed from its definition.

    Role blocks split the variables evenly in order of first appearance; an
    event scales the first ``count`` variables of its role's block from its
    period onward.
    """
    basic = noise(np.random.default_rng(seed), DESK_N, DESK_T)
    competency = basic.copy()
    roles = list(dict.fromkeys(e["role"] for e in DESK_EVENTS))
    per_role, extra = divmod(DESK_N, len(roles))
    starts, start = {}, 0
    for b, role in enumerate(roles):
        starts[role] = start
        start += per_role + (1 if b < extra else 0)
    for e in DESK_EVENTS:
        factor = EVENT_EFFECT if e["kind"] == "hire" else 1.0 / EVENT_EFFECT
        first = starts[e["role"]]
        competency[first:first + e["count"], e["period"] - 1:] *= factor
    return basic, competency


def spiked_noise(rng: np.random.Generator) -> np.ndarray:
    """Monetary noise plus one-period spikes that enter and leave windows inside the run."""
    values = noise(rng, WIDE_N, WIDE_T)
    variables = rng.choice(WIDE_N, size=SPIKES_PER_MODE, replace=False)
    # A spike at period p is in the windows of periods p+1..p+K and leaves at p+K+1 <= t_max.
    periods = rng.integers(K + 1, WIDE_T - K - 1, size=SPIKES_PER_MODE, endpoint=True)
    values[variables, periods - 1] = BASE_LEVEL * SPIKE_FACTOR * (1.0 + rng.random(SPIKES_PER_MODE))
    return values


def generate(workload: str, seed: int, out: Path) -> Inputs:
    """Write the inputs of ``workload`` for ``seed`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload=workload, seed=seed, dir=out)
    rng = np.random.default_rng([seed, 1])
    if workload == "desk-session":
        basic, competency = desk_series(seed)
        scenario = {
            "t_max": DESK_T, "n": DESK_N, "seed": seed,
            "base_level": BASE_LEVEL, "noise_scale": NOISE_SCALE,
            "event_effect": EVENT_EFFECT, "events": list(DESK_EVENTS),
        }
        (out / "scenario.json").write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
        inputs.record("scenario", out / "scenario.json", DESK_N, DESK_T, None)
        for name, values in (("basic", basic), ("universal", competency)):
            write_series(out / f"{name}.csv", values)
            inputs.record(name, out / f"{name}.csv", DESK_N, DESK_T, values)
            inputs.arrays[name] = values
        entries = compliance_matrix(rng, DESK_N, DESK_N)
        write_compliance(out / "compliance.csv", entries)
        inputs.record("compliance", out / "compliance.csv", DESK_N, 0, entries)
        inputs.arrays["compliance"] = entries
        costs = np.round(rng.uniform(10.0, 100.0, DESK_N), 2)
        (out / "costs.csv").write_text(
            "competency_id,cost\n" + "".join(f"{i},{c!r}\n" for i, c in enumerate(costs.tolist(), 1)),
            encoding="utf-8",
        )
        inputs.record("costs", out / "costs.csv", DESK_N, 0, costs)
        inputs.arrays["costs"] = costs
        inputs.budget = float(np.ceil(costs.sum()))  # every mapping fits: check-budget accepts
    elif workload == "paper-wide":
        for name in ("basic", "universal"):
            values = spiked_noise(rng)
            write_series(out / f"{name}.csv", values)
            inputs.record(name, out / f"{name}.csv", WIDE_N, WIDE_T, values)
            inputs.arrays[name] = values
    elif workload == "ledger-long":
        basic = noise(rng, LEDGER_N, LEDGER_T)
        write_series(out / "basic.csv", basic)
        inputs.record("basic", out / "basic.csv", LEDGER_N, LEDGER_T, basic)
        inputs.arrays["basic"] = basic
        entries = compliance_matrix(rng, LEDGER_M, LEDGER_N)
        write_compliance(out / "compliance.csv", entries)
        inputs.record("compliance", out / "compliance.csv", LEDGER_N, 0, entries)
        inputs.arrays["compliance"] = entries
    elif workload == "replay-report":
        # Indicator scalars span many magnitudes, so many print in exponent form.
        scalars = 10.0 ** rng.uniform(-2.0, 17.0, (2, REPLAY_ROWS))
        lines = ["t,basic,universal_competencies"]
        for t, b, c in zip(range(REPLAY_FIRST, REPLAY_FIRST + REPLAY_ROWS), *scalars.tolist()):
            lines.append(f"{t},{b!r},{c!r}")
        path = out / "scalars.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        inputs.record("scalars", path, 2, REPLAY_ROWS, scalars)
        inputs.arrays["scalars"] = scalars
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
