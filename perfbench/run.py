"""ucindex benchmark: runs the CLI as a child process on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all    # every workload untraced, one table

A run generates the workload's inputs from the seed and builds the
references (untimed), then repeats the workload's session -- its list of CLI
invocations, run one after another, each a fresh single-threaded process --
for about S seconds. The CLI's cold start (``ucindex --version``, reported as
``setup_s``) is timed three times before the first session and once before
each session, so its samples span the run as the sessions do. Every
invocation is timed from process start to exit and its rusage read with
``os.wait4``, both by the small launcher ``spawn.py``; its output is checked against references computed without the ucindex kernel
(``reference.py``). An invocation fails on a nonzero exit, a traceback or
warning on stderr, or an output outside the reference tolerance.

With ``--trace 1`` sessions alternate between plain and traced
(``traced_cli.py``), and the per-layer metrics come from the traced ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1), each a median over the run's sessions (peak RSS: the maximum).
Exits nonzero without that line if the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

CHILD_ENV = dict(os.environ)
# The references use BLAS; keep it on one thread so it never competes with a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference as ref  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"
CLI = "from ucindex.cli import main; main()"
SETUP_REPEATS = 3  # before the first session; one more before each session
WORKLOADS = ("desk-session", "paper-wide", "ledger-long", "replay-report")
# Per-layer metrics that do not come from spans: rusage of the plain sessions, and trace cost.
PROCESS_METRICS = ("process.minor_faults", "process.sys_s", "process.invol_ctx_switches", "trace.overhead_s")
K = inputs.K


@dataclass
class Invocation:
    """One CLI call of a session and how to check what it printed and wrote."""

    args: list[str]
    check: Callable[[str, dict[Path, str]], int]  # returns (mode, period) pairs; raises Mismatch
    outputs: tuple[Path, ...] = ()


@dataclass
class Child:
    wall: float
    cpu: float
    sys: float
    rss_mb: float
    minor_faults: int
    invol_ctx: int
    status: int
    stdout: str
    stderr: str


@dataclass
class Session:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    sys: float = 0.0
    rss_mb: float = 0.0
    minor_faults: int = 0
    invol_ctx: int = 0
    attempted: int = 0
    failed: int = 0
    pairs: int = 0
    spans: list[list] = field(default_factory=list)


class Launcher:
    """Starts CLI children through ``spawn.py``, so each child's max-RSS is its own."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=CHILD_ENV)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], work: Path) -> Child:
        """Run one child with stdout and stderr in files; timed from spawn to reaped exit."""
        job = {"argv": argv, "stdout": str(work / "stdout"), "stderr": str(work / "stderr"),
               "env": dict(CHILD_ENV, PYTHONPATH=str(SRC)), "cwd": str(ROOT)}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("error: the child launcher stopped")
        r = json.loads(line)
        return Child(
            wall=r["wall"],
            cpu=r["utime"] + r["stime"],
            sys=r["stime"],
            rss_mb=r["maxrss_kb"] * 1024 / 1e6,
            minor_faults=r["minflt"],
            invol_ctx=r["nivcsw"],
            status=r["status"],
            stdout=(work / "stdout").read_text(encoding="utf-8", errors="replace"),
            stderr=(work / "stderr").read_text(encoding="utf-8", errors="replace"),
        )


# --- workloads ---------------------------------------------------------------


def _meta(k: str = str(K), standardize: str = "false", warmup: str = "skip", derivation: str = "none"):
    return {"window_k": k, "standardize": standardize, "warmup": warmup, "derivation": derivation}


def _derived(basic: np.ndarray, compliance: np.ndarray, rule: str) -> np.ndarray:
    counts = compliance.sum(axis=0).astype(float)
    factors = (counts > 0).astype(float) if rule == "mask" else counts
    return basic * factors[:, np.newaxis]


def _no_stdout(stdout: str) -> None:
    if stdout:
        raise ref.Mismatch("unexpected output on stdout")


def desk_session(inp: inputs.Inputs, out: Path) -> list[Invocation]:
    f, a = inp.files, inp.arrays
    basic = ref.indicators(a["basic"], K)
    universal = ref.indicators(a["universal"], K)
    masked = ref.indicators(_derived(a["basic"], a["compliance"], "mask"), K)
    sim, plot = out / "sim", out / "plot.csv"
    sim_files = tuple(sim / name for name in ("scenario.json", "basic.csv", "universal.csv"))
    active = a["compliance"].any(axis=1)
    cost = math.fsum(c for c, on in zip(a["costs"].tolist(), active) if on)
    fixture = (SRC / "ucindex" / "data" / "mode_comparison_57.csv").read_text(encoding="utf-8")

    def simulate(stdout, files):
        if stdout.split() != [str(p) for p in sim_files]:
            raise ref.Mismatch("simulate listed unexpected files")
        ref.check_series_file(files[sim_files[1]], a["basic"])
        ref.check_series_file(files[sim_files[2]], a["universal"])
        return 0

    def masked_compare(stdout, files):
        ref.check_plot_data(files[plot], basic, masked)
        return ref.check_compare_table(stdout, basic, masked, _meta(derivation="mask"))

    def budget(stdout, files):
        ref.check_budget_line(stdout, cost, inp.budget)
        return 0

    def fixture_verify(stdout, files):
        ref.check_fixture_verify(stdout, ref.fixture_totals(fixture))
        return 0

    window = ["--window", str(K)]
    return [
        Invocation(["simulate", "--scenario", str(f["scenario"]), "--out-dir", str(sim)], simulate, sim_files),
        Invocation(["indicator", str(f["basic"]), *window],
                   lambda stdout, files: ref.check_indicator(stdout, basic, {
                       "window_k": str(K), "standardize": "false", "warmup": "skip", "mode": "series"})),
        Invocation(["compare", "--basic", str(f["basic"]), "--universal", str(f["universal"]), *window],
                   lambda stdout, files: ref.check_compare_table(stdout, basic, universal, _meta())),
        Invocation(["compare", "--basic", str(f["basic"]), "--compliance", str(f["compliance"]),
                    "--derive", "mask", *window, "--plot-data", str(plot)], masked_compare, (plot,)),
        Invocation(["report", str(plot)],
                   lambda stdout, files: ref.check_compare_table(stdout, basic, masked, _meta("none", "n/a", "n/a"))),
        Invocation(["check-budget", "--compliance", str(f["compliance"]), "--costs", str(f["costs"]),
                    "--budget", repr(inp.budget)], budget),
        Invocation(["fixture-verify"], fixture_verify),
    ]


def paper_wide(inp: inputs.Inputs, out: Path) -> list[Invocation]:
    modes = []
    rng = np.random.default_rng([inp.seed, 2])
    for name in ("basic", "universal"):
        values = inp.arrays[name]
        spiked = tuple(int(i) for i in np.flatnonzero(values.max(axis=1) > 1e3 * inputs.BASE_LEVEL))
        modes.append(ref.indicators(values, K))
        ref.oracle_cross_check(values, K, modes[-1], rng, focus=spiked)
    basic, universal = modes
    return [Invocation(
        ["compare", "--basic", str(inp.files["basic"]), "--universal", str(inp.files["universal"]),
         "--window", str(K), "--format", "csv"],
        lambda stdout, files: ref.check_compare_csv(stdout, basic, universal, _meta()),
    )]


def ledger_long(inp: inputs.Inputs, out: Path) -> list[Invocation]:
    values = inp.arrays["basic"]
    weighted = _derived(values, inp.arrays["compliance"], "weight")
    rng = np.random.default_rng([inp.seed, 2])
    basic = ref.indicators(values, K, standardize=True, shrink=True)
    ref.oracle_cross_check(values, K, basic, rng, standardize=True)
    universal = ref.indicators(weighted, K, standardize=True, shrink=True)
    report, plot = out / "report.csv", out / "plot.csv"

    def check(stdout, files):
        _no_stdout(stdout)
        ref.check_plot_data(files[plot], basic, universal)
        meta = _meta(standardize="true", warmup="shrink", derivation="weight")
        return ref.check_compare_csv(files[report], basic, universal, meta)

    return [Invocation(
        ["compare", "--basic", str(inp.files["basic"]), "--compliance", str(inp.files["compliance"]),
         "--derive", "weight", "--standardize", "--warmup", "shrink", "--window", str(K),
         "--format", "csv", "--out", str(report), "--plot-data", str(plot)],
        check, (report, plot),
    )]


def replay_report(inp: inputs.Inputs, out: Path) -> list[Invocation]:
    b, c = inp.arrays["scalars"].tolist()
    periods = tuple(range(inputs.REPLAY_FIRST, inputs.REPLAY_FIRST + len(b)))
    empty = np.empty((len(b), 0))
    basic, universal = ref.Indicators(periods, empty, tuple(b)), ref.Indicators(periods, empty, tuple(c))
    report = out / "report.csv"

    def check(stdout, files):
        _no_stdout(stdout)
        return ref.check_compare_csv(files[report], basic, universal, _meta("none", "n/a", "n/a"), exact=True)

    return [Invocation(["report", str(inp.files["scalars"]), "--format", "csv", "--out", str(report)],
                       check, (report,))]


SESSIONS = {
    "desk-session": desk_session,
    "paper-wide": paper_wide,
    "ledger-long": ledger_long,
    "replay-report": replay_report,
}


# --- measuring ---------------------------------------------------------------


class Checker:
    """Checks invocation outputs; bytes identical to an already verified output pass directly."""

    def __init__(self, invocations: list[Invocation]) -> None:
        self.invocations = invocations
        self.verified: dict[int, tuple[str, int]] = {}
        self.errors: list[str] = []

    def __call__(self, index: int, child: Child) -> int | None:
        """(mode, period) pairs the output carries, or None if the invocation failed."""
        inv = self.invocations[index]
        if child.status != 0 or "Traceback" in child.stderr or "Warning" in child.stderr:
            self.errors.append(f"{inv.args[0]}: exit {child.status}: {child.stderr.strip()[-300:]}")
            return None
        try:
            files = {p: p.read_text(encoding="utf-8") for p in inv.outputs}
        except OSError as exc:
            self.errors.append(f"{inv.args[0]}: {exc}")
            return None
        digest = hashlib.sha256(child.stdout.encode())
        for p in inv.outputs:
            digest.update(files[p].encode())
        seen = self.verified.get(index)
        if seen and seen[0] == digest.hexdigest():
            return seen[1]
        try:
            pairs = inv.check(child.stdout, files)
        except (ref.Mismatch, ValueError, IndexError, KeyError) as exc:
            self.errors.append(f"{inv.args[0]}: {type(exc).__name__}: {exc}")
            return None
        self.verified[index] = (digest.hexdigest(), pairs)
        return pairs


def run_session(launcher: Launcher, invocations: list[Invocation], checker: Checker, work: Path,
                traced: bool, session_id: int) -> Session:
    session = Session(traced=traced)
    for index, inv in enumerate(invocations):
        for p in inv.outputs:
            p.unlink(missing_ok=True)
        if traced:
            spans = work / "spans.json"
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), f"{session_id}.{index}",
                    str(SRC), "--", *inv.args]
        else:
            argv = [sys.executable, "-c", CLI, *inv.args]
        child = launcher.run(argv, work)
        session.wall += child.wall
        session.cpu += child.cpu
        session.sys += child.sys
        session.rss_mb = max(session.rss_mb, child.rss_mb)
        session.minor_faults += child.minor_faults
        session.invol_ctx += child.invol_ctx
        session.attempted += 1
        pairs = checker(index, child)
        if pairs is None:
            session.failed += 1
        else:
            session.pairs += pairs
        if traced and spans.exists():
            doc = json.loads(spans.read_text(encoding="utf-8"))
            session.spans.append(doc["spans"])
    return session


def measure_setup(launcher: Launcher, work: Path, repeats: int) -> list[float]:
    """Cold ``ucindex --version``: interpreter start, imports and parser build."""
    times = []
    for _ in range(repeats):
        child = launcher.run([sys.executable, "-c", CLI, "--version"], work)
        if child.status != 0 or not child.stdout.startswith("ucindex "):
            raise SystemExit(f"error: the ucindex CLI does not start: {child.stderr.strip()[-500:]}")
        times.append(child.wall)
    return times


def layer_metrics(spans_per_child: list[list[list]]) -> dict[str, float]:
    """Per-layer totals of one traced session; self time is duration minus child spans."""
    total, self_time, work = defaultdict(float), defaultdict(float), defaultdict(float)
    calls = Counter()
    for spans in spans_per_child:
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, parent, w), inner in zip(spans, children):
            total[name] += end - start
            self_time[name] += end - start - inner
            calls[name] += 1
            work[name] += w

    def rate(name: str, scale: float) -> float:
        return work[name] / scale / total[name] if total[name] > 0 else 0.0

    m = {
        "import.numpy_s": total["import.numpy"],
        "import.ucindex_s": total["import.ucindex"],
        "cli.cli_main_self_s": self_time["cli.cli_main"],
    }
    for name in ("io_formats.read_series_csv", "io_formats.read_scalar_csv"):
        m[f"{name}_s"] = total[name]
        m[f"{name}_mb_per_s"] = rate(name, 1e6)
    m["io_formats.atomic_write_text_s"] = total["io_formats.atomic_write_text"]
    m["io_formats.bytes_written"] = work["io_formats.atomic_write_text"]
    for name in ("process_model.slice_window", "indicator.gram_matrix", "indicator.scalar_per_period"):
        m[f"{name}_s"] = total[name]
        m[f"{name}_calls"] = calls[name]
    m["indicator.gram_matrix_nominal_gflops"] = rate("indicator.gram_matrix", 1e9)
    m["indicator.indicator_series_self_s"] = self_time["indicator.indicator_series"]
    for name in ("competencies.derive_mode_series", "competencies.check_budget",
                 "indicator.row_indicator", "indicator.standardize_window",
                 "indicator.compare_modes", "indicator.ingest_precomputed",
                 "report.build_report_table", "report.render_report", "report.emit_plot_data",
                 "scenario.generate_series"):
        m[f"{name}_s"] = total[name]
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    launcher = Launcher()
    try:
        inp = inputs.generate(workload, seed, work / "in")
        (work / "out").mkdir()
        for item in inp.manifest:
            print("input", workload, json.dumps(item), flush=True)
        invocations = SESSIONS[workload](inp, work / "out")
        setup = measure_setup(launcher, work, SETUP_REPEATS)
        checker = Checker(invocations)
        sessions: list[Session] = []
        timed = 0.0
        while True:
            setup += measure_setup(launcher, work, 1)  # spread over the run, like the sessions
            traced = trace and len(sessions) % 2 == 1
            session = run_session(launcher, invocations, checker, work, traced, len(sessions))
            sessions.append(session)
            timed += session.wall
            if len(sessions) >= (2 if trace else 1) and timed + session.wall / 2 >= seconds:
                break
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    for error in checker.errors[:5]:
        print("FAILED", workload, error, file=sys.stderr)
    plain = [s for s in sessions if not s.traced]
    walls = sorted(s.wall for s in plain)
    print(f"sessions {workload}: {len(sessions)} ({len(plain)} plain), plain wall_s min {walls[0]:.4f} "
          f"median {statistics.median(walls):.4f} max {walls[-1]:.4f}; setup_s samples {len(setup)}")
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    median = statistics.median
    if trace:
        traced = [s for s in sessions if s.traced]
        layers = [layer_metrics(s.spans) for s in traced]
        values = {name: median(d[name] for d in layers) for name in layers[0]}
        values["process.minor_faults"] = median(s.minor_faults for s in plain)
        values["process.sys_s"] = median(s.sys for s in plain)
        values["process.invol_ctx_switches"] = median(s.invol_ctx for s in plain)
        values["trace.overhead_s"] = median(s.wall for s in traced) - median(s.wall for s in plain)
        TRACES.mkdir(exist_ok=True)
        (TRACES / f"trace-{workload}-{seed}.json").write_text(
            json.dumps({"workload": workload, "seed": seed, "spans": [s.spans for s in traced]}),
            encoding="utf-8")
    else:
        values = {
            "wall_s": median(s.wall for s in plain),
            "cpu_s": median(s.cpu for s in plain),
            "peak_rss_mb": max(s.rss_mb for s in plain),
            "periods_per_s": median(s.pairs / s.wall for s in plain),
            "setup_s": median(setup),
        }
    units = metric_units()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ucindex" / "cli.py").is_file():
        print(f"error: no ucindex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))  # for the brute-force oracle only
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        for name, m in result["metrics"].items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
        return 0
    results = {}
    print(f"{'workload':15s} {'wall_s':>8s} {'cpu_s':>8s} {'peak_rss_mb':>12s} "
          f"{'periods_per_s':>14s} {'setup_s':>8s} {'error_rate':>10s}")
    for workload in WORKLOADS:
        r = run_workload(workload, args.seed, args.seconds, trace=False)
        v = {name: m["value"] for name, m in r["metrics"].items()}
        print(f"{workload:15s} {v['wall_s']:8.3f} {v['cpu_s']:8.3f} {v['peak_rss_mb']:12.1f} "
              f"{v['periods_per_s']:14.1f} {v['setup_s']:8.3f} {r['failed'] / r['attempted']:10.3g}",
              flush=True)
        results[workload] = r
    print("units: wall_s s, cpu_s s, peak_rss_mb MB, periods_per_s 1/s, setup_s s, "
          "error_rate failed/attempted")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
