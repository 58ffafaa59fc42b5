"""The benchmark in ``perfbench/`` wraps package functions by module and
attribute name. These tests keep every name it hooks bound, so a rename in
the package shows up here rather than only in the benchmark's own selftest."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict:
    """Every attribute of every loaded uplinkgame module, and every entry of
    its module-level dicts, by identity."""
    state = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "uplinkgame" or name.startswith("uplinkgame."):
            for attr, value in vars(mod).items():
                state[(name, attr)] = id(value)
                if isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        state[(name, attr, key)] = id(item)
    return state


def test_every_benchmark_hook_installs_and_is_restored(tracing):
    importlib.import_module("uplinkgame.cli")  # the deepest importer of the hooked modules
    before = package_bindings()
    with tracing.Hooks(tracing.Tracer()) as hooks:
        assert hooks.missing == []
        assert len(hooks.installed) == len(tracing.HOOKS)
        assert package_bindings() != before
    assert package_bindings() == before
