"""Joint-strategy dynamics: MUs act on states sampled from their own history,
while APs remember the last power/interference profile of every coalition
(exact MU set) that visited them.

Restricted to the iterations in which a fixed coalition occupies an AP, the
power updates reproduce the averaged water-filling recursion with stepsizes
clocked by the coalition's visit count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceError, ValidationError
from .game import verify_jep
from .inner import evaluate_profile
from .jaspa import (
    JaspaConfig,
    RunRecorder,
    RunResult,
    _initial_profile,
    _tail_constant,
    _warn_short_memory,
    per_mu_rngs,
)
from .waterfill import best_replies, interference_table, water_fill_batch


@dataclass
class MuMemory:
    """Aligned FIFO buffers of one MU's last observations: its AP, the full
    per-AP interference snapshot, and its realized rate."""

    maxlen: int
    associations: deque = field(default_factory=deque)
    interference: deque = field(default_factory=deque)  # list of per-AP vectors
    rates: deque = field(default_factory=deque)

    def push(self, ap: int, interf: list, realized_rate: float) -> None:
        if len(self.associations) == self.maxlen:
            self.associations.popleft()
            self.interference.popleft()
            self.rates.popleft()
        self.associations.append(int(ap))
        self.interference.append(interf)
        self.rates.append(float(realized_rate))

    def __len__(self) -> int:
        return len(self.associations)


def sample_mu_memory(memory: MuMemory, rng: np.random.Generator):
    """Read one uniformly sampled snapshot; the three buffers share the index."""
    if len(memory) == 0:
        raise ValidationError("cannot sample an empty memory")
    idx = int(rng.integers(len(memory)))
    return (
        memory.associations[idx],
        memory.interference[idx],
        memory.rates[idx],
    )


@dataclass
class ApRecord:
    powers: dict  # mu -> power vector at the most recent visit
    interference: dict  # mu -> interference vector at the most recent visit
    visits: int


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

    def update(self, ap: int, coalition: tuple, powers: dict, interference: dict) -> None:
        rec = self.tables[ap].get(coalition)
        if rec is None:
            self.entries += 1
            if self.entries > self.cap:
                raise ResourceError(
                    f"AP memory exceeded {self.cap} coalition entries; raise "
                    "coalition_cap or reduce churn"
                )
            self.tables[ap][coalition] = ApRecord(powers, interference, 1)
        else:
            rec.powers = powers
            rec.interference = interference
            rec.visits += 1


def ap_memory_update(memory: ApMemory, ap: int, coalition, powers: dict, interference: dict) -> None:
    """Overwrite the stored profiles for the coalition key and bump its visit
    count."""
    memory.update(int(ap), tuple(sorted(int(i) for i in coalition)), powers, interference)


def ap_memory_summary(memory: ApMemory) -> dict:
    """Debug view: per AP, coalition label -> visit count."""
    out = {}
    for ap, table in enumerate(memory.tables):
        out[f"ap{ap + 1}"] = {
            ("-".join(str(i) for i in q) if q else "empty"): rec.visits
            for q, rec in sorted(table.items())
        }
    return out


def j_jaspa(scenario, config: JaspaConfig) -> RunResult:
    """Run the joint-strategy dynamics.

    Per iteration: push (AP, interference snapshot, rate) into each MU's FIFO
    memory; refresh every AP's record for its current coalition; each MU
    samples one remembered snapshot, moves to a uniformly chosen AP among
    those strictly beating the sampled rate (its sampled AP always included),
    and updates its power from the destination AP's stored coalition state
    with a stepsize indexed by that coalition's visit count - or a uniform
    random feasible vector for a never-seen coalition. Termination is
    proposed when the association is constant over memory_len+1 iterations
    and the best-response residual is below eps_wf, and declared only once
    the profile verifies as a joint equilibrium."""
    n, w = scenario.num_mus, scenario.num_aps
    _warn_short_memory(config, n)
    rngs = per_mu_rngs(config.seed, n)
    assoc, powers = _initial_profile(scenario, config, rngs, random_powers=True)
    memories = [MuMemory(config.memory_len) for _ in range(n)]
    apmem = ApMemory(w, config.coalition_cap)
    history = [tuple(int(x) for x in assoc)]
    log = RunRecorder(config.record_detail)
    metrics = evaluate_profile(scenario, assoc, powers)
    log.record(0, metrics, assoc, 0, powers)
    converged = False
    steps = 0

    for body in range(config.max_outer):
        interf = interference_table(scenario, assoc, powers)
        rates_now = metrics[4]
        for i in range(n):
            memories[i].push(
                int(assoc[i]), [interf[ap][i].copy() for ap in range(w)], rates_now[i]
            )
        for ap in range(w):
            members = np.flatnonzero(assoc == ap)
            coalition = tuple(int(i) for i in members)
            ap_memory_update(
                apmem,
                ap,
                coalition,
                {int(i): np.asarray(powers[i]).copy() for i in members},
                {int(i): interf[ap][i].copy() for i in members},
            )

        sampled = [sample_mu_memory(memories[i], rngs[i]) for i in range(n)]
        best, _ = best_replies(
            scenario, [np.stack([s[1][ap] for s in sampled]) for ap in range(w)]
        )
        nxt = np.empty(n, dtype=np.intp)
        for i in range(n):
            a_hat, _, r_hat = sampled[i]
            candidates = set(np.flatnonzero(best[i] > r_hat).tolist())
            candidates.add(int(a_hat))
            options = sorted(candidates)
            nxt[i] = options[int(rngs[i].integers(len(options)))]

        new_powers: list = [None] * n
        for ap in range(w):
            members = np.flatnonzero(nxt == ap)
            if members.size == 0:
                continue
            coalition = tuple(int(i) for i in members)
            rec = apmem.get(ap, coalition)
            cols = scenario.chan_idx[ap]
            for i in members:
                i = int(i)
                if rec is None:
                    frac = rngs[i].dirichlet(np.ones(cols.size + 1))[: cols.size]
                    new_powers[i] = scenario.budget[i] * frac
                else:
                    alpha = config.schedule.alpha(rec.visits)
                    floors = (scenario.noise[cols] + rec.interference[i]) / scenario.gain_sq[i, cols]
                    phi, _ = water_fill_batch(floors[None, :], scenario.budget[i : i + 1])
                    new_powers[i] = (1.0 - alpha) * rec.powers[i] + alpha * phi[0]

        switch_count = int(np.sum(nxt != assoc))
        assoc = nxt
        powers = new_powers
        history.append(tuple(int(x) for x in assoc))
        steps = body + 1
        metrics = evaluate_profile(scenario, assoc, powers)
        log.record(steps, metrics, assoc, switch_count, powers)
        if _tail_constant(history, config.memory_len + 1) and metrics[0] <= config.eps_wf:
            report = verify_jep(scenario, assoc, powers, config.eps_eq)
            if report.is_equilibrium:
                converged = True
                break

    if not converged:
        report = verify_jep(scenario, assoc, powers, config.eps_eq)
    return RunResult(
        "j_jaspa",
        assoc,
        powers,
        converged,
        len(history),
        log.rows,
        log.detail,
        report,
    )
