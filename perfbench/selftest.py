"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import uplinkgame  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def module_state() -> dict:
    """Every attribute of every loaded uplinkgame module, plus the entries of
    module-level dicts, by identity."""
    state = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "uplinkgame" or name.startswith("uplinkgame."):
            for attr, value in vars(mod).items():
                state[(name, attr)] = id(value)
                if isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        state[(name, attr, key)] = id(item)
    return state


class SmokeRun(unittest.TestCase):
    def test_every_declared_metric_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                                 "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_refuses_to_run_without_sources(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = bench("--workload", "desk_sweep", "--seed", "1", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class HookLifecycle(unittest.TestCase):
    def test_uninstall_restores_every_attribute(self):
        before = module_state()
        with tracing.Hooks(tracing.Tracer()) as hooks:
            self.assertNotEqual(module_state(), before)
        self.assertEqual(hooks.missing, [])
        self.assertEqual(module_state(), before)

    def test_restored_when_the_traced_work_raises(self):
        before = module_state()
        with self.assertRaises(ZeroDivisionError):
            with tracing.Hooks(tracing.Tracer()):
                1 / 0
        self.assertEqual(module_state(), before)

    def test_missing_target_is_listed_not_fatal(self):
        table = tracing.HOOKS + (
            ("uplinkgame.jjaspa", "no_such_function", "jjaspa.no_such_function", None),
            ("uplinkgame.cli", "JOINT_ALGOS[no_such_algo]", "jaspa.no_such_algo", None),
            ("uplinkgame.no_such_module", "f", "x.f", None),
        )
        before = module_state()
        with tracing.Hooks(tracing.Tracer(), table) as hooks:
            pass
        self.assertEqual(hooks.missing, [
            "uplinkgame.jjaspa.no_such_function",
            "uplinkgame.cli.JOINT_ALGOS[no_such_algo]",
            "uplinkgame.no_such_module.f",
        ])
        self.assertEqual(module_state(), before)

    def test_self_times_add_up(self):
        tracer = tracing.Tracer()
        sc = workloads.suite_scenario(4, 2, 8, 0, 0)
        with tracing.Hooks(tracer):
            uplinkgame.jaspa(sc, uplinkgame.JaspaConfig(memory_len=4, seed=0))
        summary = tracing.summarize(tracer)
        self.assertGreater(summary["spans"], 0)
        self.assertGreaterEqual(summary["min_self_s"], 0.0)
        self.assertAlmostEqual(sum(summary["layer_self"].values()), summary["covered_s"], places=9)
        a = tracer.arrays()
        self.assertTrue(np.all(a["solve"] == 0))  # one top-level call


class ReferenceSampler(unittest.TestCase):
    def test_samples_during_the_pass_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with calibrate.Sampler(interval=0.05) as sampler:
            start = sampler.clock()
            deadline = time.perf_counter() + 0.5
            while time.perf_counter() < deadline:
                sum(range(1000))
            net = sampler.clock() - start
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(len(sampler.samples), 2 * sampler.edge_reps)
        self.assertLess(net, 0.5)  # time spent sampling is not counted
        self.assertGreater(sampler.reference(), 0.0)


class CorrectnessCheck(unittest.TestCase):
    def test_perturbed_power_profile_trips_the_check(self):
        sc = workloads.suite_scenario(5, 2, 8, 1, 0)
        table = {rec.association: rec for rec in uplinkgame.exhaustive_search(sc).table}
        result = uplinkgame.jaspa(sc, uplinkgame.JaspaConfig(memory_len=5, seed=1))
        self.assertTrue(result.converged)
        self.assertIsNone(workloads.potential_error(sc, table, result.association, result.powers))
        rng = np.random.default_rng(0)
        perturbed = [p * rng.uniform(0.8, 1.0, p.shape) for p in result.powers]
        err = workloads.potential_error(sc, table, result.association, perturbed)
        self.assertIsNotNone(err)
        self.assertIn("potential off the table", err)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(10))
        for n in (11, 24, 100, 1000):
            q = run.tail_percentile(n)
            values = list(range(n))
            beyond = n - 1 - values.index(run.nearest_rank(values, q))
            self.assertGreaterEqual(beyond, 10)
            self.assertLess(n - 1 - values.index(run.nearest_rank(values, q + 1)), 10)


if __name__ == "__main__":
    unittest.main()
