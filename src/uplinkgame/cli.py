"""Experiment runner CLI: scenario generation, single runs with trace/summary
persistence, and multi-seed algorithm comparisons.

Exit codes: 0 success (including non-converged runs), 2 usage, 3 validation,
4 resource cap, 5 I/O. The default output directory comes from the
UPLINKGAME_OUTDIR environment variable (falling back to the working
directory).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import InnerConfig, closest_ap, exhaustive_search, virtual_ap_bound
from .errors import ResourceError, ValidationError, check_count, check_seed
from .game import verify_jep
from .inner import StepsizeSchedule
from .jaspa import JaspaConfig, jaspa, se_jaspa, si_jaspa
from .jjaspa import j_jaspa
from .scenario import ScenarioGenParams, generate_scenario, load_scenario, save_scenario
from .trace import association_label, inner_rows, outer_row, write_summary, write_trace

JOINT_ALGOS = {"jaspa": jaspa, "se_jaspa": se_jaspa, "si_jaspa": si_jaspa, "j_jaspa": j_jaspa}
COST_ALGOS = ("jaspa", "si_jaspa")  # the dynamics that read connection_cost
ALGORITHMS = ("a_iwf", "s_iwf", *JOINT_ALGOS, "closest_ap", "exhaustive", "virtual_bound")


def _outdir(args) -> Path:
    return Path(args.outdir or os.environ.get("UPLINKGAME_OUTDIR", "."))


def _default_paths(args, scenario_path: str):
    stem = Path(scenario_path).stem
    label = f"{stem}_{args.algo}_seed{args.seed}"
    outdir = _outdir(args)
    trace = Path(args.out_trace) if args.out_trace else outdir / f"{label}.trace.csv"
    summary = Path(args.out_summary) if args.out_summary else outdir / f"{label}.summary.json"
    return trace, summary


def _jaspa_config(args) -> JaspaConfig:
    return JaspaConfig(
        memory_len=args.m,
        connection_cost=args.cost,
        inner_solver=args.inner_solver,
        eps_wf=args.eps_wf,
        max_inner=args.max_inner,
        max_outer=args.max_outer,
        seed=args.seed,
        schedule=StepsizeSchedule(rule=args.schedule, exponent=args.exponent),
        selection="best" if args.greedy else "uniform",
        eps_eq=args.eps_eq,
    )


def _inner_config(args, algo: str) -> InnerConfig:
    """Inner solver of the fixed-association algorithms: a_iwf for a_iwf and
    closest_ap, s_iwf (the library default) for s_iwf, exhaustive and
    virtual_bound."""
    return InnerConfig(
        solver="a_iwf" if algo in ("a_iwf", "closest_ap") else "s_iwf",
        eps_wf=args.eps_wf,
        max_iters=args.max_inner,
        schedule=StepsizeSchedule(rule=args.schedule, exponent=args.exponent),
    )


def _inner_association(scenario, args) -> np.ndarray:
    if args.assoc == "closest":
        return closest_ap(scenario)
    rng = np.random.default_rng(check_seed("seed", args.seed))
    return rng.integers(0, scenario.num_aps, scenario.num_mus).astype(np.intp)


def _report_dict(report) -> dict:
    return {
        "is_equilibrium": bool(report.is_equilibrium),
        "tolerance": report.tolerance,
        "worst_violator": list(report.worst_violator) if report.worst_violator else None,
    }


def _run_one(scenario, algo: str, args):
    """Execute one algorithm; returns (rows, summary_fields)."""
    if algo in JOINT_ALGOS:
        result = JOINT_ALGOS[algo](scenario, _jaspa_config(args))
        last = result.rows[-1]
        return result.rows, {
            "converged": result.converged,
            "outer_iterations": result.outer_iterations,
            "inner_nonconverged": result.inner_nonconverged,
            "final_sum_rate": last.sum_rate,
            "final_potential": last.system_potential,
            "final_association": last.association,
            "jep": _report_dict(result.jep_report),
        }

    inner = _inner_config(args, algo)
    if algo in ("a_iwf", "s_iwf", "closest_ap"):
        assoc = closest_ap(scenario) if algo == "closest_ap" else _inner_association(scenario, args)
        res = inner.run(scenario, assoc)
        rows = inner_rows(0, assoc, res.trace)
        r = rows[-1]
        last = outer_row(0, assoc, r.system_potential, r.sum_rate, r.residual_inf_norm)
        rows.append(last)  # the closing record
        report = verify_jep(scenario, assoc, res.powers, args.eps_eq)
        return rows, {
            "converged": res.converged,
            "inner_iterations": res.iterations,
            "final_sum_rate": last.sum_rate,
            "final_potential": last.system_potential,
            "final_association": last.association,
            "jep": _report_dict(report),
        }

    if algo == "exhaustive":
        ex = exhaustive_search(scenario, inner, enumeration_cap=args.enumeration_cap)
        rows = [
            outer_row(j, rec.association, rec.potential, rec.sum_rate)
            for j, rec in enumerate(ex.table)
        ]
        witness = np.asarray(ex.max_potential_association, dtype=np.intp)
        powers = inner.run(scenario, witness).powers
        report = verify_jep(scenario, witness, powers, args.eps_eq)
        return rows, {
            "converged": all(rec.converged for rec in ex.table),
            "profiles_enumerated": len(ex.table),
            "final_sum_rate": ex.best_sum_rate,
            "final_potential": ex.max_potential,
            "final_association": association_label(ex.best_association),
            "max_potential_association": association_label(ex.max_potential_association),
            "jep": _report_dict(report),
        }

    if algo == "virtual_bound":
        vr = virtual_ap_bound(scenario, inner)
        rows = [outer_row(0, [0] * scenario.num_mus, vr.capacity_bound, vr.equilibrium_sum_rate)]
        return rows, {
            "converged": vr.converged,
            "final_sum_rate": vr.equilibrium_sum_rate,
            "final_potential": vr.capacity_bound,
            "capacity_bound": vr.capacity_bound,
        }

    raise ValidationError(f"unknown algorithm {algo!r}")


def cmd_generate(args) -> int:
    params = ScenarioGenParams(
        num_mus=args.n,
        num_aps=args.w,
        num_channels=args.k,
        area_side=args.area_side,
        seed=args.seed,
    )
    scenario = generate_scenario(params)
    save_scenario(scenario, args.out)
    digest = hashlib.sha256(Path(args.out).read_bytes()).hexdigest()
    print(f"wrote {args.out} sha256={digest}")
    return 0


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    trace_path, summary_path = _default_paths(args, args.scenario)
    start = time.perf_counter()
    rows, fields = _run_one(scenario, args.algo, args)
    elapsed = time.perf_counter() - start
    write_trace(trace_path, rows)
    summary = {
        "algorithm": args.algo,
        "scenario": str(args.scenario),
        "seed": args.seed,
        **fields,
        "wall_time_s": elapsed,
        "trace": str(trace_path),
    }
    write_summary(summary_path, summary)
    verdict = fields.get("jep", {}).get("is_equilibrium")
    print(
        f"{args.algo}: converged={fields.get('converged')} "
        f"sum_rate={fields.get('final_sum_rate'):.6g} jep={verdict} "
        f"trace={trace_path} summary={summary_path}"
    )
    return 0


def _cost_list(text: str) -> list[float]:
    """argparse type of ``--costs``: comma-separated numbers."""
    try:
        return [float(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _expand_compare_algos(args) -> dict[str, tuple[str, float | None]]:
    """The compare entries as {label: (algorithm, connection cost or None)};
    an algorithm of COST_ALGOS gives one entry per ``--costs`` value, and
    ``--costs`` with none of them listed is refused."""
    out = {}
    for algo in args.algos.split(","):
        algo = algo.strip()
        if algo not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {algo!r}")
        costs = args.costs if algo in COST_ALGOS and args.costs else [None]
        for cost in costs:
            label = algo if cost is None else f"{algo}(c={cost:g})"
            if label in out:
                raise ValidationError(f"compare entry {label} is listed twice")
            out[label] = (algo, cost)
    if args.costs and all(cost is None for _, cost in out.values()):
        raise ValidationError(f"--costs sweeps only {', '.join(COST_ALGOS)}, and none is listed")
    return out


# The summary fields a compare row reads as a run's iterations, the first
# one present; a virtual_bound run has none and counts 0.
_ITERATION_FIELDS = ("outer_iterations", "inner_iterations", "profiles_enumerated")


def cmd_compare(args) -> int:
    """Run every entry as ``run`` does on each rep's scenario (seed
    ``--seed-base + rep``), then table each entry's sum rates, iterations
    and ratios to T*, the sum rate of that rep's exhaustive entry."""
    entries = _expand_compare_algos(args)
    reps = check_count("reps", args.reps)
    fixed = load_scenario(args.scenario) if args.scenario else None
    runs: dict[str, list[dict]] = {label: [] for label in entries}  # summary fields per rep
    for seed in range(args.seed_base, args.seed_base + reps):
        scenario = fixed or generate_scenario(
            ScenarioGenParams(num_mus=args.n, num_aps=args.w, num_channels=args.k, seed=seed)
        )
        for label, (algo, cost) in entries.items():
            run_args = argparse.Namespace(**vars(args), seed=seed)
            if cost is not None:
                run_args.cost = cost
            runs[label].append(_run_one(scenario, algo, run_args)[1])
    # T* of each rep: the sum rate of its exhaustive entry, if one is listed.
    tstars = [f["final_sum_rate"] for f in runs.get("exhaustive", [])] or [None] * reps

    header = (
        "algorithm", "runs", "converged_runs",
        "mean_sum_rate", "median_sum_rate",
        "mean_outer_iterations", "median_outer_iterations",
        "mean_ratio_to_tstar", "median_ratio_to_tstar",
    )
    table = []
    for label, fields in runs.items():
        rates = [f["final_sum_rate"] for f in fields]
        iters = [next((f[k] for k in _ITERATION_FIELDS if k in f), 0) for f in fields]
        ratios = [rate / tstar for rate, tstar in zip(rates, tstars) if tstar]
        table.append(
            (
                label,
                len(rates),
                sum(bool(f["converged"]) for f in fields),
                statistics.fmean(rates),
                statistics.median(rates),
                statistics.fmean(iters),
                statistics.median(iters),
                statistics.fmean(ratios) if ratios else "",
                statistics.median(ratios) if ratios else "",
            )
        )
    out = Path(args.out) if args.out else _outdir(args) / "compare.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in table:
            writer.writerow(
                [format(v, ".17g") if isinstance(v, float) else v for v in row]
            )
    widths = [max(len(str(h)), 14) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in table:
        cells = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uplinkgame",
        description="Uplink AP-selection and power-allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random scenario file")
    gen.add_argument("--n", type=int, required=True, help="number of MUs")
    gen.add_argument("--w", type=int, required=True, help="number of APs")
    gen.add_argument("--k", type=int, required=True, help="number of channels")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--area-side", type=float, default=10.0)
    gen.add_argument("--out", required=True, help="output scenario path")
    gen.set_defaults(func=cmd_generate)

    def common_run_flags(p):
        p.add_argument("--m", type=int, default=10, help="best-reply memory length")
        p.add_argument("--cost", type=float, default=None, help="uniform connection cost")
        p.add_argument("--eps-wf", type=float, default=1e-8)
        p.add_argument("--eps-eq", type=float, default=1e-6)
        p.add_argument("--max-outer", type=int, default=10_000)
        p.add_argument("--max-inner", type=int, default=100_000)
        p.add_argument("--inner-solver", choices=("a_iwf", "s_iwf"), default="a_iwf")
        p.add_argument("--schedule", choices=("safeguarded", "polynomial", "harmonic"),
                       default="safeguarded", help="stepsize rule")
        p.add_argument("--exponent", type=float, default=0.55)
        p.add_argument("--greedy", action="store_true", help="always pick the best AP")
        p.add_argument("--assoc", choices=("random", "closest"), default="random",
                       help="association for the fixed-association solvers")
        p.add_argument("--enumeration-cap", type=int, default=100_000)
        p.add_argument("--outdir", default=None)

    run = sub.add_parser("run", help="run one algorithm on a scenario")
    run.add_argument("--algo", choices=ALGORITHMS, required=True)
    run.add_argument("--scenario", required=True)
    run.add_argument("--seed", type=int, default=0)
    common_run_flags(run)
    run.add_argument("--out-trace", default=None)
    run.add_argument("--out-summary", default=None)
    run.set_defaults(func=cmd_run)

    # No abbreviations: run's --seed would otherwise read as --seed-base.
    cmp_ = sub.add_parser("compare", help="compare algorithms over seeded repetitions",
                          allow_abbrev=False)
    cmp_.add_argument("--algos", required=True, help="comma-separated algorithm list")
    cmp_.add_argument("--reps", type=int, default=1)
    cmp_.add_argument("--seed-base", type=int, default=0)
    cmp_.add_argument("--scenario", default=None, help="fixed scenario file (else generate)")
    cmp_.add_argument("--n", type=int, default=8)
    cmp_.add_argument("--w", type=int, default=2)
    cmp_.add_argument("--k", type=int, default=16)
    cmp_.add_argument("--costs", type=_cost_list, default=None,
                      help="comma-separated connection-cost sweep")
    cmp_.add_argument("--out", default=None, help="comparison CSV path")
    common_run_flags(cmp_)
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
