"""Joint-strategy dynamics: MUs act on states sampled from their own history,
while APs remember the last power/interference profile of every coalition
(exact MU set) that visited them.

An MU's memory is a FIFO of (AP, interference row, rate) snapshots, the row
from ``profile_table``'s (N, K) matrix; all MUs push at once, so one deque of
(association, interference, rates) holds them all. An AP keeps, per
coalition, the members' (members, K_w) power and interference rows in
ascending MU order.

Restricted to the iterations in which a fixed coalition occupies an AP, the
power updates reproduce the averaged water-filling recursion with stepsizes
clocked by the coalition's visit count. Under the safeguarded schedule that
recursion is a_iwf's safeguarded one on the coalition's block: the step is 1/2
until the coalition's potential first falls between consecutive visits, then
``alpha(visits)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError, ValidationError
from .game import verify_jep
from .inner import ProfileLayout, evaluate_profile, keeps_hold
from .jaspa import (
    JaspaConfig, RunRecorder, RunResult, _initial_profile, _run_result, _warn_short_memory,
    per_mu_rngs, uniform_picks,
)
from .waterfill import best_replies, profile_table, water_fill_batch


def sample_mu_memory(memory: deque, rng: np.random.Generator):
    """Read one uniformly sampled snapshot."""
    if len(memory) == 0:
        raise ValidationError("cannot sample an empty memory")
    return memory[int(rng.integers(len(memory)))]


@dataclass
class ApRecord:
    """A coalition's state at its most recent visit: its members' (members,
    K_w) power and interference rows, in ascending MU order."""

    powers: np.ndarray
    interference: np.ndarray
    visits: int
    potential: float  # the coalition's block potential at the most recent visit
    held: bool = True  # no fall of that potential between consecutive visits yet


class ApMemory:
    """Per-AP map from coalition (sorted MU tuple) to its most recent local
    profile and visit count. The total entry count across APs is capped; the
    cap guards pathological churn and exceeding it is a resource error."""

    def __init__(self, num_aps: int, cap: int):
        self.tables: list[dict] = [{} for _ in range(num_aps)]
        self.cap = cap
        self.entries = 0

    def get(self, ap: int, coalition: tuple):
        return self.tables[ap].get(coalition)


def ap_memory_update(memory: ApMemory, ap: int, coalition, powers, interference,
                     potential: float) -> None:
    """Overwrite the stored profile and block potential for the coalition
    key and bump its visit count; a potential strictly below the stored one
    releases the coalition's hold. Row r of the (members, K_w) ``powers``
    and ``interference`` belongs to ``coalition[r]``; the rows are stored in
    the sorted key's order."""
    coalition = np.asarray(coalition, dtype=np.intp)
    order = np.argsort(coalition, kind="stable")
    key = tuple(coalition[order].tolist())
    powers, interference = np.asarray(powers)[order], np.asarray(interference)[order]
    potential = float(potential)
    table = memory.tables[int(ap)]
    rec = table.get(key)
    if rec is None:
        memory.entries += 1
        if memory.entries > memory.cap:
            raise ResourceError(
                f"AP memory exceeded {memory.cap} coalition entries; raise "
                "coalition_cap or reduce churn"
            )
        table[key] = ApRecord(powers, interference, 1, potential)
        return
    rec.held &= keeps_hold(rec.potential, potential)
    rec.powers, rec.interference, rec.potential = powers, interference, potential
    rec.visits += 1


def j_jaspa(scenario, config: JaspaConfig) -> RunResult:
    """Run the joint-strategy dynamics.

    Per iteration: push (AP, interference row, rate) into each MU's FIFO
    memory; refresh every AP's record for its current coalition; each MU
    samples one remembered snapshot, moves to a uniformly chosen AP among
    those strictly beating the sampled rate (its sampled AP always included),
    and updates its power from the destination AP's stored coalition state
    with a stepsize indexed by that coalition's visit count (1/2 under the
    safeguarded schedule until the coalition's potential first falls between
    consecutive visits) - or a uniform random feasible vector for a
    never-seen coalition. Termination is proposed when the association is
    constant over memory_len+1 iterations and the best-response residual is
    below eps_wf, and declared only once the profile verifies as a joint
    equilibrium."""
    n, w = scenario.num_mus, scenario.num_aps
    _warn_short_memory(config, n)
    rngs = per_mu_rngs(config.seed, n)
    assoc, powers = _initial_profile(scenario, config, rngs, random_powers=True)
    memory = deque(maxlen=config.memory_len)
    apmem = ApMemory(w, config.coalition_cap)
    log = RunRecorder()
    layout = ProfileLayout()
    metrics = evaluate_profile(scenario, assoc, powers, layout)
    log.record(0, metrics, assoc, 0, powers)
    converged = False
    for body in range(config.max_outer):
        # Snapshots hold arrays that are never written again.
        interf = profile_table(scenario, assoc, powers, rates=False)[1]
        memory.append((assoc, interf, metrics[4]))
        for ap, cols in enumerate(scenario.chan_idx):
            members = np.flatnonzero(assoc == ap)
            stacked = np.reshape([powers[i] for i in members], (-1, cols.size))
            ap_memory_update(
                apmem, ap, members, stacked, interf[members].take(cols, axis=1), metrics[5][ap]
            )

        sampled = [sample_mu_memory(memory, rng) for rng in rngs]
        a_hat, rows, r_hat = (np.array([s[c][i] for i, s in enumerate(sampled)]) for c in range(3))
        best, _ = best_replies(scenario, rows)
        nxt = uniform_picks((best > r_hat[:, None]) | (np.arange(w) == a_hat[:, None]), rngs)

        # One water-fill per returning coalition: its rows are independent.
        new_powers: list = [None] * n
        for ap in range(w):
            members = np.flatnonzero(nxt == ap)
            if members.size == 0:
                continue
            coalition = members.tolist()
            rec = apmem.get(ap, tuple(coalition))
            cols = scenario.chan_idx[ap]
            if rec is None:
                for i in coalition:
                    frac = rngs[i].dirichlet(np.ones(cols.size + 1))[: cols.size]
                    new_powers[i] = scenario.budget[i] * frac
                continue
            alpha = config.schedule.block_alpha(rec.visits, rec.held)
            gains = scenario.gain_sq[np.ix_(members, cols)]
            phi, _ = water_fill_batch(
                gains, scenario.noise[cols] + rec.interference, scenario.budget[members]
            )
            for i, row in zip(coalition, (1.0 - alpha) * rec.powers + alpha * phi):
                new_powers[i] = row

        switch_count = int(np.sum(nxt != assoc))
        assoc = nxt
        powers = new_powers
        metrics = evaluate_profile(scenario, assoc, powers, layout)
        log.record(body + 1, metrics, assoc, switch_count, powers)
        if log.streak > config.memory_len and metrics[0] <= config.eps_wf:
            report = verify_jep(scenario, assoc, powers, config.eps_eq)
            if report.is_equilibrium:
                converged = True
                break

    if not converged:
        report = verify_jep(scenario, assoc, powers, config.eps_eq)
    return _run_result(
        "j_jaspa", scenario, config, log, assoc, powers, converged, len(log.detail), report=report
    )
