"""Self-test: shows that the benchmark's checker is live.

Usage, from the repository root:  python3 perfbench/selftest.py

Each case must come out as stated, or the script exits 1:

* a desk-session pass of the real CLI has no failures (the control);
* a report with one digit changed is a failure;
* a child exiting 1 is a failure;
* a naive sliding-window Gram (add the newest lag, subtract the oldest, never
  re-anchor), run in-process on paper-wide's spiked inputs, is a failure,
  while the same kernel on spike-free inputs passes -- so it is the spikes
  leaving the window that expose the drift;
* the per-layer metrics the trace yields are exactly those BENCHMARK.json
  and layers.json declare.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import numpy as np

import inputs
import run
import traced_cli

K = inputs.K


def fake_child(stdout: str, status: int = 0, stderr: str = "") -> run.Child:
    return run.Child(0.0, 0.0, 0.0, 0.0, 0, 0, status, stdout, stderr)


def change_digit(text: str, line_prefix: str) -> str:
    """Change the first digit after ``line_prefix`` on the line that starts with it."""
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(line_prefix))
    line = lines[i]
    j = next(j for j in range(len(line_prefix), len(line)) if line[j].isdigit())
    lines[i] = line[:j] + str((int(line[j]) + 1) % 10) + line[j + 1:]
    return "\n".join(lines)


class NaiveSlidingGram:
    """W'W/(k-1) by rank-1 updates from the previous window; drifts once a spike leaves."""

    def __init__(self) -> None:
        self.window = None
        self.sums = None

    def __call__(self, window: np.ndarray, k: int) -> np.ndarray:
        w = np.asarray(window, dtype=float)
        prev = self.window
        if prev is not None and prev.shape == w.shape and np.array_equal(w[1:], prev[:-1]):
            self.sums += np.multiply.outer(w[0], w[0]) - np.multiply.outer(prev[-1], prev[-1])
        else:
            self.sums = w.T @ w
        self.window = w
        return self.sums / (k - 1)


def run_naive(inp: inputs.Inputs) -> str:
    import ucindex.cli
    import ucindex.indicator

    original = ucindex.indicator.gram_matrix
    ucindex.indicator.gram_matrix = NaiveSlidingGram()
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ucindex.cli.cli_main(["compare", "--basic", str(inp.files["basic"]), "--universal",
                                         str(inp.files["universal"]), "--window", str(K), "--format", "csv"])
    finally:
        ucindex.indicator.gram_matrix = original
    if code != 0:
        raise SystemExit(f"naive kernel run exited {code}")
    return out.getvalue()


def main() -> int:
    sys.path.insert(1, str(run.SRC))
    work = run.WORK / f"selftest-{os.getpid()}"
    results: list[tuple[str, bool]] = []
    launcher = run.Launcher()
    try:
        # Control: every desk-session invocation passes against the references.
        inp = inputs.generate("desk-session", 7, work / "in")
        (work / "out").mkdir()
        invocations = run.desk_session(inp, work / "out")
        checker = run.Checker(invocations)
        session = run.run_session(launcher, invocations, checker, work, traced=False, session_id=0)
        results.append(("desk-session control passes", session.failed == 0 and session.attempted == 7))

        # One digit changed, in a two-decimal table row and in a full-precision scalar.
        table = launcher.run([sys.executable, "-c", run.CLI, *invocations[2].args], work).stdout
        ok_table = run.Checker(invocations)(2, fake_child(table)) is not None
        bad = change_digit(table, "   13")
        results.append(("changed digit in a table row fails",
                         ok_table and run.Checker(invocations)(2, fake_child(bad)) is None))
        scalars = launcher.run([sys.executable, "-c", run.CLI, *invocations[1].args], work).stdout
        line = next(x for x in scalars.split("\n") if x.startswith("14,"))
        last = line.rsplit(",", 1)[1]
        corrupted = scalars.replace(line, line[: -len(last)] + str((int(last[0]) + 1) % 10) + last[1:])
        results.append(("changed digit in a full-precision scalar fails",
                        run.Checker(invocations)(1, fake_child(corrupted)) is None))

        # Re-reported scalars must round-trip exactly: a last-digit change fails.
        replay = inputs.generate("replay-report", 7, work / "replay")
        inv = run.replay_report(replay, work / "out")
        child = launcher.run([sys.executable, "-c", run.CLI, *inv[0].args], work)
        report = inv[0].outputs[0]
        text = report.read_text(encoding="utf-8")
        ok_replay = run.Checker(inv)(0, child) is not None
        row = text.split("\n")[1].split(",")
        row[4] = row[4][:-1] + str((int(row[4][-1]) + 1) % 10) if row[4][-1].isdigit() else row[4]
        report.write_text(text.replace(text.split("\n")[1], ",".join(row), 1), encoding="utf-8")
        results.append(("last digit changed in a replayed scalar fails",
                        ok_replay and run.Checker(inv)(0, child) is None))

        # A child exiting 1, through the real runner: a missing input file.
        missing = run.Invocation(["compare", "--basic", str(work / "nope.csv"), "--universal",
                                  str(work / "nope.csv")], invocations[2].check)
        session = run.run_session(launcher, [missing], run.Checker([missing]), work, traced=False, session_id=1)
        results.append(("child exiting 1 fails", session.failed == 1))
        results.append(("exit code 1 alone fails", run.Checker(invocations)(2, fake_child(table, 1)) is None))
        warned = fake_child(table, 0, "RuntimeWarning: overflow encountered")
        results.append(("warning on stderr fails", run.Checker(invocations)(2, warned) is None))

        # The naive sliding kernel drifts on paper-wide's spikes, and only there.
        wide = inputs.generate("paper-wide", 7, work / "wide")
        naive = run_naive(wide)
        inv = run.paper_wide(wide, work / "out")
        drift = run.Checker(inv)
        results.append(("naive sliding Gram on spikes fails", drift(0, fake_child(naive)) is None))
        print("naive sliding Gram:", drift.errors[:1])
        rng = np.random.default_rng(7)
        for name in ("basic", "universal"):
            values = inputs.noise(rng, inputs.WIDE_N, inputs.WIDE_T)
            inputs.write_series(wide.files[name], values)
            wide.arrays[name] = values
        naive = run_naive(wide)
        inv = run.paper_wide(wide, work / "out")
        results.append(("naive sliding Gram without spikes passes",
                        run.Checker(inv)(0, fake_child(naive)) is not None))

        # Declared per-layer metrics match what the trace yields.
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layers = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))
        fake_spans = [[[f"{layer}.{name}", 0.0, 1.0, -1, 0] for layer, names in traced_cli.TRACED.items()
                       for name in names]]
        emitted = set(run.layer_metrics(fake_spans)) | set(run.PROCESS_METRICS)
        declared = {m["name"] for m in spec["per_layer"]}
        results.append(("per-layer metrics match BENCHMARK.json", emitted == declared))
        results.append(("layers.json covers every per-layer metric",
                        {m["metric"] for m in layers["per_layer"]} == declared))
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
