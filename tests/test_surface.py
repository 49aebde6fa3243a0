"""The package's public surface, and the functions the benchmark's trace wraps.

``perfbench/traced_cli.py`` wraps the functions named in its ``TRACED`` table
by module attribute, so deleting or renaming one of them would break the
benchmark's per-layer trace; this test makes that a test failure instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import ucindex

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def traced_table() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("name", ucindex.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(ucindex, name) is not None


def test_traced_functions_exist():
    wanted = [(layer, name) for layer, names in traced_table().items() for name in names]
    wanted += [("cli", "main"), ("indicator", "gram_matrix_bruteforce")]
    for layer, name in wanted:
        module = importlib.import_module(f"ucindex.{layer}")
        assert callable(getattr(module, name, None)), f"ucindex.{layer}.{name} is missing"
