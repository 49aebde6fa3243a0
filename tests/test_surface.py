"""The package's public surface, and the functions the benchmark's trace wraps.

``ucindex.__all__`` names are resolved lazily from their submodules, so each must be the very
object its submodule holds, and a bare ``import ucindex`` must load neither numpy nor them.

``perfbench/traced_cli.py`` wraps the functions named in its ``TRACED`` table
by module attribute, so deleting or renaming one of them would break the
benchmark's per-layer trace; this test makes that a test failure instead. Its
``WORK`` table calls some of them with their arguments, so a traced ``compare``
is run as well: a changed signature makes that run fail. The benchmark's
self-test swaps ``indicator.gram_matrix`` for a drifting kernel and must see
the output move, so it is run too.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import mixed_signs
import ucindex
from ucindex.io_formats import write_series_csv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACED_CLI = PERFBENCH / "traced_cli.py"


def traced_table() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("name", ucindex.__all__)
def test_every_exported_name_resolves(name):
    home = importlib.import_module(f"ucindex.{ucindex._HOME.get(name, '_version')}")
    assert getattr(ucindex, name) is getattr(home, name) is not None


def test_import_loads_no_submodule_and_no_numpy(tmp_path):
    script = (
        "import os, sys\n"
        "import ucindex\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('ucindex')),"
        " os.environ.get('OPENBLAS_NUM_THREADS'), hasattr(ucindex, 'nope'))\n"
        "from ucindex import indicator\n"
        "print(indicator.__name__, indicator is sys.modules['ucindex.indicator'])\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(ucindex.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.stdout, run.stderr) == (
        "['ucindex', 'ucindex._version'] None False\nucindex.indicator True\n", "")


def test_traced_functions_exist():
    wanted = [(layer, name) for layer, names in traced_table().items() for name in names]
    wanted += [("cli", "main"), ("indicator", "gram_matrix_bruteforce")]
    for layer, name in wanted:
        module = importlib.import_module(f"ucindex.{layer}")
        assert callable(getattr(module, name, None)), f"ucindex.{layer}.{name} is missing"


def test_traced_compare_runs_cleanly(tmp_path):
    rng = np.random.default_rng(3)
    args = ["compare", "--window", "3", "--format", "csv"]
    for mode in ("basic", "universal"):
        path = tmp_path / f"{mode}.csv"
        write_series_csv(path, ucindex.ProcessSeries(rng.uniform(1, 10, (4, 20)), tuple("abcd")))
        args += [f"--{mode}", str(path)]
    spans = tmp_path / "spans.json"
    src = Path(ucindex.__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, str(TRACED_CLI), str(spans), "0", str(src), "--", *args],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    # report.build_report_table is an alias of report_metadata: a missing or copied one drops it
    assert {"indicator.indicator_series", "io_formats.read_series_csv",
            "report.build_report_table"} <= names


def test_traced_compare_on_the_multi_tile_path_runs_cleanly(tmp_path):
    # n = 400 spans two tiles of the kernel, and mixed signs keep each window off the one-sign
    # form, so it takes the multi-tile path
    rng = np.random.default_rng(4)
    args = ["compare", "--window", "12", "--format", "csv"]
    labels = tuple(f"v{i}" for i in range(400))
    for mode in ("basic", "universal"):
        path = tmp_path / f"{mode}.csv"
        values = mixed_signs(rng.uniform(1, 10, (400, 16)))
        write_series_csv(path, ucindex.ProcessSeries(values, labels))
        args += [f"--{mode}", str(path)]
    spans = tmp_path / "spans.json"
    src = Path(ucindex.__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, str(TRACED_CLI), str(spans), "0", str(src), "--", *args],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert "indicator.indicator_series" in names


def test_benchmark_selftest_passes():
    run = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=PERFBENCH.parent,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
