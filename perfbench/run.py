"""Layered benchmark of uplinkgame: one process, one thread, one caller that
waits for each result (a closed loop).

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 25 --trace 0

A run sets up its workload's inputs, then repeats passes over them for
``--seconds`` (at least two passes; at least one untraced and one traced pass
with ``--trace 1``), checks every pass's outputs, and prints a report whose
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json declares, end-to-end ones with ``--trace 0`` and
per-layer ones with ``--trace 1``. It exits 1 when a correctness or
determinism check fails and 2 when the sources are missing. Files go to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported; inherited by setup probes

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
WORKLOAD_NAMES = ("desk_sweep", "paper_run", "large_certify", "ground_truth_w3")
# End-to-end metrics that are printed but not declared in BENCHMARK.json.
# Raw times drift with the machine's speed (the declared *_ref metrics divide
# it out); failed_frac is 0 on a healthy run; profiles_per_s is a fixed count
# over wall_s where (N, W) fix the count, and follows the dynamics' path
# elsewhere.
PRINTED_ONLY = {"wall_s": "s", "solve_s_p50": "s", "solve_s_tail": "s", "ref_unit_s": "s",
                "profiles_per_s": "1/s", "failed_frac": "ratio"}
TIMED_SUFFIXES = ("_s", "_per_iter", "_per_round", "_per_profile")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="perturbation seed of the inputs")
    p.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--suite-base", type=int, default=None,
                   help="first scenario seed of the suite (default: the workload's own); "
                        "seeds are consecutive from it")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or (args.suite_base or 0) < 0:
        p.error("--seed and --suite-base must be non-negative")
    return args


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def tail_percentile(n: int):
    """Highest integer percentile with at least ten samples above its
    nearest-rank position; None when there are fewer than eleven samples."""
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n)


def nearest_rank(sorted_values, q: float):
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes: spawn to the end of their set-up."""
    out = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        cmd += ["--suite-base", str(args.suite_base)] if args.suite_base is not None else []
        cmd += ["--smoke"] if args.smoke else []
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe {i} failed: {proc.stderr.strip()}")
        done = json.loads(proc.stdout.strip().splitlines()[-1])["setup_done"]
        out.append(done - spawned)
    return out


@dataclass
class Pass:
    traced: bool
    result: object  # workloads.PassResult
    ref_s: float  # seconds per reference unit during the pass (untraced only)
    tracer: object = None
    summary: dict = None
    missing: list = None


def run_pass(wl, tracing, calibrate, traced: bool) -> Pass:
    """One pass: the timed work, then its checks. An untraced pass runs under
    a reference sampler and is timed with its clock; a traced pass runs under
    the hooks, unsampled, so that span times hold only package work."""
    if traced:
        tracer = tracing.Tracer()
        with tracing.Hooks(tracer) as hooks:
            start = time.perf_counter()
            raw = wl.work()
            wall = time.perf_counter() - start
        p = Pass(True, None, math.nan, tracer, tracing.summarize(tracer), hooks.missing)
    else:
        with calibrate.Sampler() as sampler:
            wl.clock = sampler.clock
            start = sampler.clock()
            raw = wl.work()
            wall = sampler.clock() - start
        wl.clock = time.perf_counter
        p = Pass(False, None, sampler.reference())
    p.result = wl.check(raw)
    p.result.wall_s = wall
    return p


def solve_times(untraced: list, scale) -> tuple:
    """p50 and tail over the per-solve medians across passes."""
    n = len(untraced[0].result.solve_s)
    per_solve = sorted(statistics.median(scale(p, p.result.solve_s[i]) for p in untraced)
                       for i in range(n))
    q = tail_percentile(n)
    tail = nearest_rank(per_solve, q) if q is not None else per_solve[-1]
    return statistics.median(per_solve), tail, q


def end_to_end(wl, untraced: list, setup, attempted: int, failed: int) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, plus report details."""
    raw_p50, raw_tail, q = solve_times(untraced, lambda p, t: t)
    ref_p50, ref_tail, _ = solve_times(untraced, lambda p, t: t / p.ref_s)
    ratios = untraced[0].result.ratios
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_ref": statistics.median(p.result.wall_s / p.ref_s for p in untraced),
        "solve_ref_p50": ref_p50,
        "solve_ref_tail": ref_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tstar_ratio_mean": statistics.fmean(ratios) if ratios else float("nan"),
        "wall_s": statistics.median(p.result.wall_s for p in untraced),
        "solve_s_p50": raw_p50,
        "solve_s_tail": raw_tail,
        "ref_unit_s": statistics.median(p.ref_s for p in untraced),
        "profiles_per_s": statistics.median(p.result.profiles / p.result.wall_s for p in untraced),
        "failed_frac": failed / attempted,
    }
    details = {
        "solve_tail_percentile": q if q is not None else 100,
        "solve_samples": len(untraced[0].result.solve_s),
        "solve_samples_note": "per-solve medians over the untraced passes",
        "setup_samples_s": setup,
        "tstar_reference": "T* from exhaustive search"
        if wl.name in ("desk_sweep", "ground_truth_w3") else "pooled-AP capacity bound",
        "untraced_passes": len(untraced),
    }
    return metrics, details


def per_layer(tracing, p: Pass, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    by, counters, counts = p.summary["by_name"], p.tracer.counters, p.result.counts

    def ct(base):
        return tracing.calls_and_time(by, base)

    def per(t, n):
        return t / n if n else 0.0

    wf_calls, wf_s = ct("waterfill.water_fill_batch")
    gate_jaspa = ct("game.verify_power_ne@jaspa")[0]
    m = {
        "waterfill.calls": wf_calls,
        "waterfill.rows": int(counters["waterfill.rows"]),
        "waterfill.cells": int(counters["waterfill.cells"]),
        # floors and budgets in, powers and levels out: 8 bytes per value.
        "waterfill.bytes_computed": int(16 * (counters["waterfill.cells"] + counters["waterfill.rows"])),
        "waterfill.cells_per_s": per(counters["waterfill.cells"], wf_s),
        "game.verify_jep_calls": ct("game.verify_jep")[0],
        "game.verify_jep_s": ct("game.verify_jep")[1],
        "game.verify_power_ne_calls": ct("game.verify_power_ne")[0],
        "game.all_rates_calls": ct("game.all_rates")[0],
        "game.all_rates_s": ct("game.all_rates")[1],
        "game.best_response_rate_calls": ct("game.best_response_rate")[0],
        "inner.a_iwf_calls": ct("inner.a_iwf")[0],
        "inner.a_iwf_iters": int(counters["inner.a_iwf_iters"]),
        "inner.a_iwf_s_per_iter": per(ct("inner.a_iwf")[1], counters["inner.a_iwf_iters"]),
        "inner.s_iwf_calls": ct("inner.s_iwf")[0],
        "inner.s_iwf_rounds": int(counters["inner.s_iwf_rounds"]),
        "inner.s_iwf_s_per_round": per(ct("inner.s_iwf")[1], counters["inner.s_iwf_rounds"]),
        "inner.evaluate_profile_calls": ct("inner.evaluate_profile")[0],
        "inner.nonconverged": int(counters["inner.nonconverged"]),
        "jaspa.jaspa.outer_iters_p50": counts.get("jaspa.outer_iters_p50", 0),
        "jaspa.se_jaspa.outer_iters_p50": counts.get("se_jaspa.outer_iters_p50", 0),
        "jaspa.si_jaspa.outer_iters_p50": counts.get("si_jaspa.outer_iters_p50", 0),
        "jaspa.best_reply_table_calls": ct("jaspa.best_reply_table")[0],
        "jaspa.best_reply_table_s": ct("jaspa.best_reply_table")[1],
        "jaspa.gate_proposals": gate_jaspa,
        "jaspa.gate_accept_ratio": per(counts.get("gate_accepts", 0), gate_jaspa),
        "jjaspa.j_jaspa.outer_iters_p50": counts.get("j_jaspa.outer_iters_p50", 0),
        "jjaspa.coalition_updates": counts.get("coalition_updates", 0),
        "jjaspa.coalition_hit_ratio": per(counts.get("coalition_hits", 0), counts.get("coalition_lookups", 0)),
        "jjaspa.coalition_entries_max": counts.get("coalition_entries_max", 0),
        "jjaspa.gate_proposals": ct("game.verify_jep@jjaspa")[0],
        "baselines.profiles": int(counters["baselines.profiles"]),
        "baselines.inner_solves": ct("inner.a_iwf@baselines")[0] + ct("inner.s_iwf@baselines")[0],
        "baselines.s_per_profile": per(ct("baselines.exhaustive_search")[1], counters["baselines.profiles"]),
        "trace.rows_written": int(counters["trace.rows_written"]),
        "trace.bytes_written": int(counters["trace.bytes_written"]),
        "trace.write_s": ct("trace.write_trace")[1],
        "trace.inner_rows_s": ct("trace.inner_rows")[1],
        "scenario.generate_s": ct("scenario.generate_scenario")[1],
        "scenario.save_s": ct("scenario.save_scenario")[1],
        "scenario.load_s": ct("scenario.load_scenario")[1],
        "scenario.bytes": int(counters["scenario.bytes"]),
        "cli.runs": ct("cli.main")[0],
        "bench.spans": p.summary["spans"],
        "bench.traced_wall_s": p.result.wall_s,
        "bench.unattributed_s": p.result.wall_s - p.summary["self_sum_s"],
        "bench.trace_overhead_s": p.result.wall_s - untraced_wall,
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = p.summary["layer_self"][layer]
    return m


def count_metrics(m: dict) -> dict:
    """The per-layer metrics that are counts or ratios of counts, which must
    repeat exactly."""
    return {k: v for k, v in m.items() if not k.endswith(TIMED_SUFFIXES)}


def traced_metrics(tracing, passes: list, untraced_wall: float, errors: list):
    """Per-layer metrics of the traced pass with the median wall time, after
    the checks the traced passes support. Returns the metrics and the pass."""
    traced = sorted((p for p in passes if p.traced), key=lambda p: p.result.wall_s)
    runs = [per_layer(tracing, p, untraced_wall) for p in traced]
    if any(count_metrics(m) != count_metrics(runs[0]) for m in runs):
        errors.append("per-layer counts differ between traced passes")
    pick = (len(traced) - 1) // 2
    m, p = runs[pick], traced[pick]
    if p.summary["min_self_s"] < -1e-6:
        errors.append(f"negative span self time {p.summary['min_self_s']!r}")
    layer_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    if abs(layer_sum + m["bench.unattributed_s"] - m["bench.traced_wall_s"]) > 1e-6:
        errors.append("layer self times plus unattributed time do not add up to the traced wall time")
    memo_calls = tracing.calls_and_time(p.summary["by_name"], "jjaspa.ap_memory_update")[0]
    if "uplinkgame.jjaspa.ap_memory_update" not in p.missing and memo_calls != m["jjaspa.coalition_updates"]:
        errors.append(f"ap_memory_update ran {memo_calls} times, replay counts "
                      f"{m['jjaspa.coalition_updates']}")
    return m, p


def environment(args, wl, numpy_version) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "workload": wl.name,
        "seed": args.seed,
        "suite_base": wl.suite_base,
        "scenario_seeds": wl.scenario_seeds,
        "size": {"N": wl.n, "W": wl.w, "K": wl.k, "scenarios": wl.count},
        "smoke": args.smoke,
    }


def declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and of the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uplinkgame" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'uplinkgame'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import calibrate
    import tracing
    import workloads

    run_dir = OUT / (f"probe-{os.getpid()}" if args.setup_probe
                     else f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](run_dir, args.seed, args.suite_base, args.smoke)
    wl.setup()
    if args.setup_probe:
        done = time.monotonic()
        shutil.rmtree(run_dir, ignore_errors=True)
        print(json.dumps({"setup_done": done}))
        return 0
    e2e_units, layer_units = declared_units()
    units = layer_units if args.trace else e2e_units
    setup = setup_samples(args)

    passes: list[Pass] = []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(wl, tracing, calibrate, traced)
        passes.append(p)
        kinds = [q.traced for q in passes]
        enough = (False in kinds and True in kinds) if args.trace else len(passes) >= 2
        nxt = bool(args.trace) and len(passes) % 2 == 1
        estimate = [q.result.wall_s for q in passes if q.traced == nxt] or [p.result.wall_s]
        if enough and time.monotonic() + estimate[-1] > deadline:
            break

    results = [p.result for p in passes]
    errors = [e for r in results for e in r.errors]
    if len({r.digest for r in results}) != 1:
        errors.append("output digests differ between passes: " + ", ".join(r.digest[:12] for r in results))
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)

    e2e, details = end_to_end(wl, [p for p in passes if not p.traced], setup, attempted, failed)
    report = {
        "environment": environment(args, wl, np.__version__),
        "digest": results[0].digest,
        "counts": results[0].counts,
        "passes": [{"traced": p.traced, "wall_s": p.result.wall_s, "ref_unit_s": p.ref_s,
                    "attempted": p.result.attempted, "failed": p.result.failed} for p in passes],
        "end_to_end": e2e,
        "details": details,
        "failures": sorted({f for r in results for f in r.failures}),
        "errors": errors,
    }
    metrics = e2e
    if args.trace:
        metrics, picked = traced_metrics(tracing, passes, e2e["wall_s"], errors)
        report["hooks_not_installed"] = picked.missing
        report["per_layer"] = metrics
        np.savez_compressed(run_dir / "spans.npz", names=np.array(picked.tracer.names),
                            **picked.tracer.arrays())

    mismatch = sorted(set(units) ^ (set(metrics) - set(PRINTED_ONLY)))
    if mismatch:
        errors.append(f"metrics and BENCHMARK.json disagree on: {mismatch}")
    correct = not errors
    report["correct"] = correct
    (run_dir / "report.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    for f in run_dir.iterdir():  # inputs and CLI outputs; keep the report and spans
        if f.name not in ("report.json", "spans.npz"):
            f.unlink()

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, digest {results[0].digest[:16]}")
    for name, value in e2e.items():
        print(f"  {name:<24} {value:>16.6g} {e2e_units.get(name) or PRINTED_ONLY[name]}")
    print(f"  failed operations: {failed} of {attempted}")
    print(f"  solve tail is p{details['solve_tail_percentile']} of {details['solve_samples']} solves")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<34} {value:>16.6g} {layer_units[name]}")
        if report["hooks_not_installed"]:
            print("  hooks not installed: " + ", ".join(report["hooks_not_installed"]))
    for line in report["failures"][:20]:
        print(f"  failed: {line}")
    for line in errors:
        print(f"  CHECK FAILED: {line}")
    print("environment " + json.dumps(report["environment"]))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
