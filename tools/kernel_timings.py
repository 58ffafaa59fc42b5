"""Microseconds per call of the kernels that every outer iteration of the
joint dynamics makes, in process, as the minimum over repeats:

    PYTHONPATH=src python tools/kernel_timings.py [--quick]

Per scenario size, (8,2,16), (16,4,48) and (200,10,256), on the closest-AP
profile at uniform powers, it times:
- ``water_fill_batch`` on one AP's (N, K_w) best-reply rows;
- ``best_replies``, the whole table and one MU's row;
- ``profile_table`` with and without the rates;
- the evaluation's interference, ``ProfileLayout.interference`` after
  ``evaluate_profile``;
- ``evaluate_profile`` on the association its layout last loaded, and on a
  new one (two associations in turn, so the layout rebuilds every call);
- ``uniform_picks`` on N rows with two qualifying APs, and on N rows with
  one (no generator call);
- one outer iteration of each joint dynamic: a run's time over its outer
  iterations (``jaspa``'s inner solves included), at the two smaller sizes.

A kernel that the source lacks prints as ``-``, so the tool also runs on
older sources (``PYTHONPATH=<their src>``). ``--quick`` takes fewer repeats
and skips the dynamics at (16,4,48), in a few seconds. Times move with the
host's load; compare runs made in turn on one host.
"""

from __future__ import annotations

import argparse
import timeit

import numpy as np

import uplinkgame as ug
from uplinkgame.inner import ProfileLayout, evaluate_profile
from uplinkgame.jaspa import per_mu_rngs, uniform_picks
from uplinkgame.waterfill import best_replies, profile_table, water_fill_batch

SIZES = [(8, 2, 16), (16, 4, 48), (200, 10, 256)]
DYNAMICS = ("jaspa", "se_jaspa", "si_jaspa", "j_jaspa")
DYNAMICS_MAX_MUS = 16


def best_of(fn, repeat: int, budget_s: float) -> float:
    """Minimum µs per call over ``repeat`` timings of about ``budget_s`` each."""
    timer = timeit.Timer(fn)
    number = max(1, int(budget_s / max(min(timer.repeat(repeat=3, number=1)), 1e-7)))
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def kernels(scenario) -> dict:
    """Label -> zero-argument call, on the closest-AP profile at uniform powers."""
    assoc = ug.closest_ap(scenario)
    powers = ug.uniform_powers(scenario, assoc)
    other = np.roll(assoc, 1)
    other_powers = ug.uniform_powers(scenario, other)
    interference = profile_table(scenario, assoc, powers, rates=False)[1]
    cols = scenario.chan_idx[0]
    gains = scenario.gain_sq.take(cols, axis=1)
    floors = scenario.noise[cols] + interference.take(cols, axis=1)
    n, w = scenario.num_mus, scenario.num_aps
    two = np.zeros((n, w), dtype=bool)
    two[:, :2] = True
    one = np.zeros((n, w), dtype=bool)
    one[np.arange(n), assoc] = True
    rngs = per_mu_rngs(0, n)
    same, fresh = ProfileLayout(), ProfileLayout()
    evaluate_profile(scenario, assoc, powers, same)
    flip = [0]

    def new_association():
        flip[0] ^= 1
        a, p = (assoc, powers) if flip[0] else (other, other_powers)
        evaluate_profile(scenario, a, p, fresh)

    out = {
        "water_fill_batch (N, K_w)": lambda: water_fill_batch(gains, floors, scenario.budget),
        "best_replies, full table": lambda: best_replies(scenario, interference),
        "best_replies, one row": lambda: best_replies(scenario, interference[:1], [0]),
        "profile_table, rates": lambda: profile_table(scenario, assoc, powers),
        "profile_table, no rates": lambda: profile_table(scenario, assoc, powers, rates=False),
        "evaluation's interference": getattr(same, "interference", None),
        "evaluate_profile, same assoc": lambda: evaluate_profile(scenario, assoc, powers, same),
        "evaluate_profile, new assoc": new_association,
    }
    if w > 1:
        out["uniform_picks, 2 APs a row"] = lambda: uniform_picks(two, rngs)
    out["uniform_picks, 1 AP a row"] = lambda: uniform_picks(one, rngs)
    return out


def per_outer_iteration(scenario, algo: str, repeat: int) -> float:
    """Minimum over ``repeat`` runs of a run's µs over its outer iterations."""
    config = ug.JaspaConfig(memory_len=scenario.num_mus, seed=1)
    best = np.inf
    for _ in range(repeat):
        start = timeit.default_timer()
        result = getattr(ug, algo)(scenario, config)
        best = min(best, (timeit.default_timer() - start) / result.outer_iterations)
    return best * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="fewer repeats, a few seconds")
    args = parser.parse_args(argv)
    repeat, budget_s = (3, 0.01) if args.quick else (7, 0.05)
    max_mus = 8 if args.quick else DYNAMICS_MAX_MUS
    table: dict = {}
    for n, w, k in SIZES:
        scenario = ug.generate_scenario(
            ug.ScenarioGenParams(num_mus=n, num_aps=w, num_channels=k, seed=1)
        )
        for label, fn in kernels(scenario).items():
            table.setdefault(label, {})[(n, w, k)] = fn and best_of(fn, repeat, budget_s)
        for algo in DYNAMICS:
            label = f"{algo}, one outer iteration"
            if n <= max_mus:
                table.setdefault(label, {})[(n, w, k)] = per_outer_iteration(scenario, algo, repeat)
    heads = [f"({n},{w},{k})" for n, w, k in SIZES]
    width = max(map(len, table))
    print(f"{'µs per call':<{width}}" + "".join(f"{h:>15}" for h in heads))
    for label, row in table.items():
        cells = (row.get(size) for size in SIZES)
        print(f"{label:<{width}}" + "".join("-".rjust(15) if v is None else f"{v:15.1f}"
                                           for v in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
