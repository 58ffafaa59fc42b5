"""The benchmark in ``perfbench/`` wraps package functions by module and
attribute name. These tests keep every name it hooks bound, and the bindings
it counts called, so a rename or a call moved off a hooked binding shows up
here rather than only in the benchmark's own selftest or as a silent zero."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import uplinkgame as ug

from conftest import make_scenario

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


def test_counted_bindings_are_called(tracing):
    sc = make_scenario(5, 2, 8, seed=1)
    config = ug.JaspaConfig(memory_len=5, seed=1)
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer):
        runs = {algo: getattr(ug, algo)(sc, config) for algo in ("jaspa", "se_jaspa", "si_jaspa")}
        joint = ug.j_jaspa(sc, config)
        ug.exhaustive_search(sc)
        ug.InnerConfig().run(sc, np.arange(5) % 2)
    assert all(run.converged for run in runs.values()) and joint.converged
    calls = {name: count for name, (count, _) in tracing.summarize(tracer)["by_name"].items()}
    for name in (
        "jaspa.best_reply_table",
        "inner.evaluate_profile",
        "inner.a_iwf",
        "trace.inner_rows",
        "game.verify_jep@jjaspa",
        "inner.s_iwf@baselines",
    ):
        assert calls.get(name, 0) >= 1, name
    # One coalition update per AP per j_jaspa iteration, as the benchmark's
    # replay of the coalition updates counts them.
    assert calls["jjaspa.ap_memory_update"] == sc.num_aps * (len(joint.detail) - 1)
