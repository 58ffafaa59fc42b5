"""One sha256 over the results of the solvers, the profile kernel and the
joint dynamics, to show that a change which claims bit-identical results
keeps them.

Run it on the parent commit and on the change; a bit-identical change prints
the same digest:

    PYTHONPATH=src python tools/result_digest.py [--quick] [--verbose]

Per scenario size and seed it hashes every float bit of:
- ``a_iwf`` under the paper's schedule and the safeguarded rule, plain and
  Anderson-accelerated, and ``s_iwf``: powers, iteration count, converged
  flag, all five trace columns;
- ``evaluate_profile`` and ``best_reply_table`` on those powers and on
  random feasible powers;
- ``solve_profiles`` under both solvers on a batch of random associations;
- ``jaspa``, ``se_jaspa``, ``si_jaspa`` and ``j_jaspa`` under both schedules
  (sizes up to 12 MUs, and (16,4,48) at seed 0): the whole ``RunResult``;
  and, under the safeguarded schedule at sizes up to 12 MUs, ``jaspa`` with
  the ``s_iwf`` inner solver, and ``jaspa`` and ``si_jaspa`` with
  ``selection="best"`` and with a connection cost of 0.05. Each of these
  runs is followed by a ``<case>/path`` case, which hashes only its
  association sequence, outer iteration count and converged flag: a run
  whose case moves while its path stays made the same picks, and differs
  by rounding alone.

At seed 0 of every size where the dynamics run, it also hashes the CLI's
outputs, each run in-process in a temporary directory: ``generate``'s
scenario file; ``run --algo X`` of all nine algorithms (exit code, trace CSV,
and the summary without ``wall_time_s``, ``scenario`` and ``trace``), where
``exhaustive`` over the enumeration cap is its exit code 4; and the CSV of
two ``compare`` runs over two generated scenarios, one of every algorithm
(``exhaustive`` under the cap only) and one of the four dynamics with
``--costs 0,0.05``.

The sizes include mixed channel widths (12,5,23), width-1 blocks (6,4,5),
one AP (10,1,16), one MU (1,2,4) and blocks of up to 31 members (48,3,31),
where ``s_iwf`` and ``solve_profiles`` sweep 20 or more member slots.
``--quick`` runs four sizes at one seed, in a few seconds; ``--verbose``
prints each case's digest, to find where two runs part.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

import uplinkgame as ug
from uplinkgame import cli
from uplinkgame.inner import evaluate_profile, solve_profiles
from uplinkgame.waterfill import best_reply_table

SIZES = [
    (1, 2, 4), (4, 2, 8), (5, 3, 7), (6, 4, 5), (7, 3, 12),
    (8, 2, 16), (10, 1, 16), (12, 5, 23), (16, 4, 48), (48, 3, 31),
]
QUICK_SIZES = [(1, 2, 4), (6, 4, 5), (10, 1, 16), (12, 5, 23)]
SCHEDULES = {"paper": ug.StepsizeSchedule(), "safeguarded": ug.StepsizeSchedule(rule="safeguarded")}
MAX_ITERS = 400  # per inner solve; a capped run is as deterministic as a converged one
DYNAMICS_MAX_MUS = 12
# One larger run of the dynamics, (N, W, K, seed): the size where a best
# reply for one MU, not the whole table, makes the difference.
DYNAMICS_LARGE = (16, 4, 48, 0)
# Runs of jaspa and si_jaspa down the branches that other settings take,
# under JaspaConfig's default (safeguarded) schedule.
VARIANTS = (
    ("jaspa/s_iwf", {"inner_solver": "s_iwf"}),
    ("jaspa/best", {"selection": "best"}),
    ("si_jaspa/best", {"selection": "best"}),
    ("jaspa/cost", {"connection_cost": 0.05}),
    ("si_jaspa/cost", {"connection_cost": 0.05}),
)
ENUMERATION_CAP = 100_000  # the CLI's default
# Summary fields that name a path or a time, not a result.
UNHASHED_FIELDS = ("wall_time_s", "scenario", "trace")


def feed(h, x) -> None:
    """Hash ``x`` by value: every float by its exact bits."""
    if isinstance(x, np.ndarray):
        h.update(f"a{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (bool, np.bool_, int, np.integer, str)) or x is None:
        h.update(f"{type(x).__name__}:{x!r};".encode())
    elif isinstance(x, (float, np.floating)):
        h.update(f"f{float(x).hex()};".encode())
    elif isinstance(x, bytes):
        h.update(f"b{len(x)};".encode())
        h.update(x)
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            feed(h, getattr(x, f.name))
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for item in x:
            feed(h, item)
        h.update(b"]")
    else:
        raise TypeError(f"cannot hash a {type(x).__name__}")


def random_feasible(scenario, association, rng) -> list:
    out = []
    for i, ap in enumerate(association.tolist()):
        k = scenario.chan_idx[ap].size
        out.append(scenario.budget[i] * rng.uniform(0.2, 1.0) * rng.dirichlet(np.ones(k)))
    return out


def cli_run(argv, *paths) -> list:
    """The exit code of ``cli.main(argv)``, run with its output captured,
    then the bytes of each of ``paths`` that it wrote (None for the others)."""
    for path in paths:
        path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return [code, *(path.read_bytes() if path.exists() else None for path in paths)]


def cli_cases(n, w, k, seed):
    """(name, outputs) pairs of the CLI on one scenario size."""
    flags = ("--m", n, "--max-outer", 60, "--max-inner", MAX_ITERS,
             "--enumeration-cap", ENUMERATION_CAP)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenario, trace, summary, table = (tmp / name for name in (
            "s.scn", "run.trace.csv", "run.summary.json", "compare.csv"))
        yield "cli/generate", cli_run(
            ["generate", "--n", n, "--w", w, "--k", k, "--seed", seed, "--out", scenario], scenario
        )
        for algo in cli.ALGORITHMS:
            code, rows, fields = cli_run(
                ["run", "--algo", algo, "--scenario", scenario, "--seed", seed, *flags,
                 "--out-trace", trace, "--out-summary", summary], trace, summary
            )
            if fields is not None:
                fields = {key: value for key, value in json.loads(fields).items()
                          if key not in UNHASHED_FIELDS}
                fields = json.dumps(fields).encode()
            yield f"cli/run/{algo}", [code, rows, fields]
        every = [a for a in cli.ALGORITHMS if a != "exhaustive" or w**n <= ENUMERATION_CAP]
        runs = (("cli/compare", every, ()),
                ("cli/compare/costs", cli.JOINT_ALGOS, ("--costs", "0,0.05")))
        for name, algos, costs in runs:
            yield name, cli_run(
                ["compare", "--algos", ",".join(algos), "--reps", 2, "--seed-base", seed,
                 "--n", n, "--w", w, "--k", k, *flags, *costs, "--out", table], table
            )


def dynamics_cases(name, run):
    """A run of the dynamics, then its path: the association of every outer
    iteration, the outer iteration count and the converged flag."""
    yield name, run
    yield f"{name}/path", [[rec.association for rec in run.detail], run.outer_iterations,
                           run.converged]


def cases(n, w, k, seed):
    """(name, result) pairs for one scenario."""
    sc = ug.generate_scenario(ug.ScenarioGenParams(n, w, k, seed=seed))
    rng = np.random.default_rng(1000 + seed)
    assocs = {"closest": ug.closest_ap(sc), "random": rng.integers(0, w, size=n)}
    for label, assoc in assocs.items():
        for name, schedule in SCHEDULES.items():
            run = ug.a_iwf(sc, assoc, schedule, max_iters=MAX_ITERS)
            yield f"a_iwf/{name}/{label}", run
            yield f"evaluate_profile/a_iwf/{name}/{label}", evaluate_profile(sc, assoc, run.powers)
            yield f"best_reply_table/a_iwf/{name}/{label}", best_reply_table(sc, assoc, run.powers)
            run = ug.a_iwf(sc, assoc, schedule, max_iters=MAX_ITERS, accelerate=True)
            yield f"a_iwf/accelerated/{name}/{label}", run
        run = ug.s_iwf(sc, assoc, max_iters=MAX_ITERS)
        yield f"s_iwf/{label}", run
        powers = random_feasible(sc, assoc, rng)
        yield f"evaluate_profile/random/{label}", evaluate_profile(sc, assoc, powers)
        yield f"best_reply_table/random/{label}", best_reply_table(sc, assoc, powers)
    batch = rng.integers(0, w, size=(16, n))
    yield "solve_profiles/s_iwf", solve_profiles(sc, batch, "s_iwf", max_iters=MAX_ITERS)
    for name, schedule in SCHEDULES.items():
        yield f"solve_profiles/a_iwf/{name}", solve_profiles(
            sc, batch, "a_iwf", max_iters=MAX_ITERS, schedule=schedule
        )
    if n > DYNAMICS_MAX_MUS and (n, w, k, seed) != DYNAMICS_LARGE:
        return
    for name, schedule in SCHEDULES.items():
        config = ug.JaspaConfig(
            memory_len=n, seed=seed, schedule=schedule, max_outer=60, max_inner=MAX_ITERS
        )
        for algo in ("jaspa", "se_jaspa", "si_jaspa", "j_jaspa"):
            yield from dynamics_cases(f"{algo}/{name}", getattr(ug, algo)(sc, config))
    if seed == 0:
        yield from cli_cases(n, w, k, seed)
    if n > DYNAMICS_MAX_MUS:
        return
    for label, settings in VARIANTS:
        config = ug.JaspaConfig(
            memory_len=n, seed=seed, max_outer=60, max_inner=MAX_ITERS, **settings
        )
        yield from dynamics_cases(label, getattr(ug, label.split("/")[0])(sc, config))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="four sizes, one seed")
    parser.add_argument("--verbose", action="store_true", help="print each case's digest")
    args = parser.parse_args()
    sizes, seeds = (QUICK_SIZES, [0]) if args.quick else (SIZES, [0, 1, 2])
    total = hashlib.sha256()
    count = 0
    for n, w, k in sizes:
        for seed in seeds:
            for name, result in cases(n, w, k, seed):
                h = hashlib.sha256()
                feed(h, result)
                total.update(h.digest())
                count += 1
                if args.verbose:
                    print(f"{h.hexdigest()[:16]}  ({n},{w},{k}) seed {seed} {name}")
    print(f"{total.hexdigest()}  {count} results")


if __name__ == "__main__":
    main()
