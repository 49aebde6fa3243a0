"""Run the ucindex CLI with a span around every call into the traced functions.

Usage: python3 traced_cli.py SPANS_JSON RUN_ID SRC_DIR -- <ucindex arguments>

The functions are wrapped from outside the program: each public function in
``TRACED`` is replaced, in every ``ucindex`` module that holds it, by a
wrapper that records (name, start, end, parent span, work). Nothing in the
package is edited. Spans stay in memory and are written to SPANS_JSON when
the CLI returns; the exit code is the CLI's.
"""

from __future__ import annotations

import os
import sys
import time

perf = time.perf_counter

# layer module -> traced public functions
TRACED = {
    "cli": ("cli_main",),
    "io_formats": ("read_series_csv", "read_scalar_csv", "atomic_write_text"),
    "process_model": ("slice_window",),
    "competencies": ("derive_mode_series", "check_budget"),
    "indicator": ("indicator_series", "gram_matrix", "row_indicator", "standardize_window",
                  "scalar_per_period", "compare_modes", "ingest_precomputed"),
    "report": ("build_report_table", "render_report", "emit_plot_data"),
    "scenario": ("generate_series",),
}

# Work attached to a span: bytes read or written, or nominal flops (2*k*n^2 per Gram).
WORK = {
    "io_formats.read_series_csv": lambda path: os.path.getsize(path),
    "io_formats.read_scalar_csv": lambda path: os.path.getsize(path),
    "io_formats.atomic_write_text": lambda path, text: len(text),  # ASCII text: chars == bytes
    "indicator.gram_matrix": lambda window, k: 2 * k * window.shape[1] ** 2,
}


class Tracer:
    """In-memory span recorder; a span is [name, start, end, parent index, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self.stack[-1] if self.stack else -1, 0])

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()

        return traced


def install(tracer: Tracer) -> None:
    """Replace each traced function in every loaded ucindex module that refers to it."""
    modules = [m for name, m in sys.modules.items() if name == "ucindex" or name.startswith("ucindex.")]
    for layer, names in TRACED.items():
        home = sys.modules[f"ucindex.{layer}"]
        for name in names:
            original = getattr(home, name)
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main() -> int:
    spans_path, run_id, src = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON RUN_ID SRC_DIR -- ARGS...")
    sys.path.insert(0, src)
    tracer = Tracer()
    t0 = perf()
    import numpy  # noqa: F401  (timed on its own: the largest share of start-up)
    t1 = perf()
    import ucindex.cli
    t2 = perf()
    tracer.add("import.numpy", t0, t1)
    tracer.add("import.ucindex", t1, t2)
    install(tracer)
    try:
        return ucindex.cli.cli_main(sys.argv[5:])
    finally:
        import json

        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"run_id": run_id, "spans": tracer.spans}, f)


if __name__ == "__main__":
    sys.exit(main())
