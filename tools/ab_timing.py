"""In-process A/B timing of the joint dynamics and the exhaustive search
between another source tree (the base) and this one (the change):

    python tools/ab_timing.py BASE_SRC [--algos jaspa,si_jaspa,exhaustive]
                              [--size 8,2,16] [--scenarios 6] [--passes 20] [--moved]

BASE_SRC is a ``src`` directory that holds an ``uplinkgame`` package, for
example a ``git archive`` of the parent commit. Both packages are copied to a
temporary directory under two names; the package imports only relatively, so
both load in one process. The suite is ``generate_scenario`` at the size with
seeds 0..S-1, each run with ``JaspaConfig(memory_len=N, seed=s)`` as
``perfbench``'s ``desk_sweep`` does; ``exhaustive`` runs ``exhaustive_search``
on each suite scenario with the default ``InnerConfig``. Before timing, the
tool checks that both trees give each run the same outer iterations, final
association and last trace row (for ``exhaustive``, the same table and both
argmax associations), and stops with exit code 1 when they do not.
``--moved`` is for a change that moves results: instead of that check it
prints, per algorithm and tree, the suite's total outer and inner iterations
(an inner iteration is a trace row with ``inner_iter`` above 0) and how many
runs converged and end at a verified joint equilibrium (for ``exhaustive``:
the profiles solved, how many converged, and the summed T*), then times both
trees alike.

Each pass times every algorithm's whole suite on both trees, the order
alternating from pass to pass. Per algorithm it prints each tree's minimum
and median seconds per suite, the median of the per-pass change/base ratios,
and in how many passes the change was faster. Times move with the host's
load; it is a measuring aid, not a gate.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE_SRC = Path(__file__).resolve().parents[1] / "src"
DYNAMICS = ("jaspa", "se_jaspa", "si_jaspa", "j_jaspa")
ALGOS = DYNAMICS + ("exhaustive",)


def load_trees(base_src: Path, tmp: Path) -> dict:
    """The base's and this tree's ``uplinkgame``, imported as two packages."""
    trees = {}
    for name, src in (("base", base_src), ("change", HERE_SRC)):
        shutil.copytree(src / "uplinkgame", tmp / f"ab_{name}_uplinkgame",
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    for name in ("base", "change"):
        trees[name] = importlib.import_module(f"ab_{name}_uplinkgame")
    return trees


def suite(ug, size, count: int) -> list:
    """(scenario, config) per seed, built by the tree ``ug``."""
    n, w, k = size
    return [(ug.generate_scenario(ug.ScenarioGenParams(n, w, k, seed=s)),
             ug.JaspaConfig(memory_len=n, seed=s)) for s in range(count)]


def runner(ug, algo: str):
    """The tree ``ug``'s call of ``algo`` on one suite case."""
    if algo == "exhaustive":
        return lambda scenario, config: ug.exhaustive_search(scenario)
    return getattr(ug, algo)


def fingerprint(result) -> tuple:
    """A joint run's outer iterations, final association and last trace row's
    fields (each tree has its own ``TraceRow`` class); an exhaustive search's
    whole table, as plain tuples, and both argmax associations."""
    if hasattr(result, "table"):
        return ([*map(tuple, result.table)], result.best_association,
                result.max_potential_association)
    return result.outer_iterations, result.association.tolist(), vars(result.rows[-1])


def counts(results) -> str:
    """A suite's totals: of joint runs, the outer and inner iterations,
    converged runs and verified JEPs; of exhaustive searches, the profiles,
    converged profiles and the summed T*."""
    n = len(results)
    if hasattr(results[0], "table"):
        records = [rec for r in results for rec in r.table]
        tstar = sum(r.best_sum_rate for r in results)
        return (f"profiles {len(records)}  converged {sum(rec.converged for rec in records)}"
                f"  T* sum {tstar:.12g}")
    return (f"outer {sum(r.outer_iterations for r in results)}"
            f"  inner {sum(row.inner_iter > 0 for r in results for row in r.rows)}"
            f"  converged {sum(r.converged for r in results)}/{n}"
            f"  jep {sum(r.jep_report.is_equilibrium for r in results)}/{n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path, help="src directory of the base tree")
    parser.add_argument("--algos", default=",".join(DYNAMICS))
    parser.add_argument("--size", default="8,2,16", help="N,W,K")
    parser.add_argument("--scenarios", type=int, default=6)
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--moved", action="store_true",
                        help="print each tree's iteration totals and verdicts; skip the identity check")
    args = parser.parse_args(argv)
    algos = args.algos.split(",")
    size = tuple(int(v) for v in args.size.split(","))
    if unknown := set(algos) - set(ALGOS):
        parser.error(f"unknown algorithms {sorted(unknown)}")
    if len(size) != 3 or args.scenarios < 1 or args.passes < 1:
        parser.error("--size takes N,W,K; --scenarios and --passes at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        trees = load_trees(args.base_src, Path(tmp))
        suites = {name: suite(ug, size, args.scenarios) for name, ug in trees.items()}
        for algo in algos:
            runs = {name: [runner(ug, algo)(*case) for case in suites[name]]
                    for name, ug in trees.items()}
            if args.moved:
                for name, results in runs.items():
                    print(f"{algo:<11}{name:<8}{counts(results)}")
            elif [*map(fingerprint, runs["base"])] != [*map(fingerprint, runs["change"])]:
                print(f"{algo}: the trees' runs differ", file=sys.stderr)
                return 1
        times = {(algo, name): [] for algo in algos for name in trees}
        for p in range(args.passes):
            for name in ("base", "change") if p % 2 == 0 else ("change", "base"):
                for algo in algos:
                    run = runner(trees[name], algo)
                    start = time.perf_counter()
                    for case in suites[name]:
                        run(*case)
                    times[algo, name].append(time.perf_counter() - start)

    print(f"{args.passes} passes, ({args.size}) x {args.scenarios}, seconds per suite")
    print(f"{'algorithm':<10}{'base min':>10}{'base p50':>10}{'chg min':>10}{'chg p50':>10}"
          f"{'ratio p50':>11}{'chg wins':>10}")
    for algo in algos:
        base, change = (np.array(times[algo, name]) for name in ("base", "change"))
        ratio = np.median(change / base)
        wins = int(np.count_nonzero(change < base))
        print(f"{algo:<10}{base.min():10.4f}{np.median(base):10.4f}{change.min():10.4f}"
              f"{np.median(change):10.4f}{ratio:11.3f}{wins:>7}/{args.passes}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
