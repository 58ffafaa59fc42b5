"""Joint AP selection and power allocation dynamics.

jaspa alternates inner power equilibria with randomized AP re-selection driven
by a FIFO memory of best replies. si_jaspa skips the intermediate equilibria:
it keeps the FIFO-memory selection but runs simultaneous rounds with per-MU
averaging clocks. se_jaspa is greedy sequential best response: one MU per turn
moves to its highest-rate AP with an exact water-fill; it keeps no memory and
ignores memory_len, connection_cost, selection, inner_solver and schedule.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError, check_count, check_seed, check_tolerance
from .game import (
    EquilibriumReport, all_rates, copy_powers, random_feasible_powers, uniform_powers,
    validate_association, validate_costs, validate_powers, verify_jep, verify_power_ne,
)
from .inner import (
    LOOSE_EPS, InnerLoopResult, InnerTrace, ProfileLayout, StepsizeSchedule, a_iwf,
    check_solver_settings, evaluate_profile, keeps_hold, s_iwf,
)
from .trace import inner_rows, outer_row
from .waterfill import best_replies, best_reply_table, water_fill_batch

# Unused all_rates, verify_power_ne and water_fill_batch stay bound for perfbench's hooks.


def per_mu_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Independent per-MU random streams split from one seed, so every MU's
    draws are reproducible regardless of how other MUs consume randomness."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


@dataclass
class JaspaConfig:
    """Knobs shared by the joint-selection algorithms.

    connection_cost None means "use the scenario's per-MU costs"; a scalar is
    broadcast. selection="best" replaces the uniform draw from the qualifying
    AP set with a deterministic pick of the highest-rate AP (the greedy
    variant used in oscillation regressions). The default schedule is the
    safeguarded rule: an averaged step holds a constant 1/2 per (AP, member
    set) block until the block's potential first falls, then takes the
    polynomial values. The blocks are the AP blocks of jaspa's a_iwf solves,
    the unchanged blocks of si_jaspa's stay steps and j_jaspa's coalitions.
    eps_wf is the tolerance of the stop gate and of jaspa's inner solves,
    except at an association that just moved: there they stop at
    max(eps_wf, inner.LOOSE_EPS) (``jaspa``, which warns when eps_wf is above
    eps_eq: its stop gate may then never pass).
    """

    memory_len: int = 10
    connection_cost: Optional[object] = None
    inner_solver: str = "a_iwf"
    eps_wf: float = 1e-8
    max_inner: int = 100_000
    max_outer: int = 10_000
    seed: int = 0
    schedule: StepsizeSchedule = StepsizeSchedule(rule="safeguarded")
    selection: str = "uniform"
    eps_eq: float = 1e-6
    initial_association: Optional[np.ndarray] = None
    initial_powers: Optional[list] = None
    coalition_cap: int = 100_000

    def __post_init__(self):
        self.memory_len = check_count("memory_len", self.memory_len)
        self.max_outer = check_count("max_outer", self.max_outer)
        self.seed = check_seed("seed", self.seed)
        self.eps_wf, self.max_inner = check_solver_settings(
            self.inner_solver, self.eps_wf, self.max_inner, name="max_inner"
        )
        if not isinstance(self.schedule, StepsizeSchedule):  # None is a_iwf's default, not ours
            raise ValidationError(f"schedule must be a StepsizeSchedule, got {self.schedule!r}")
        if self.selection not in ("uniform", "best"):
            raise ValidationError(f"unknown selection mode {self.selection!r}")
        self.coalition_cap = check_count("coalition_cap", self.coalition_cap)
        self.eps_eq = check_tolerance("eps_eq", self.eps_eq)


@dataclass
class JaspaState:
    """Mutable per-run state: FIFO best-reply memories, the probability
    vectors maintained incrementally from them (never renormalized), the
    current profile and per-MU stay counters."""

    memory: list  # per-MU deque of AP indices, length <= memory_len
    beta: np.ndarray  # (N, W)
    association: np.ndarray
    powers: list
    stay_counts: np.ndarray
    memory_len: int


def new_state(scenario, association, powers, memory_len: int) -> JaspaState:
    return JaspaState(
        memory=[deque() for _ in range(scenario.num_mus)],
        beta=np.zeros((scenario.num_mus, scenario.num_aps)),
        association=np.asarray(association, dtype=np.intp).copy(),
        powers=copy_powers(powers),
        stay_counts=np.zeros(scenario.num_mus, dtype=int),
        memory_len=memory_len,
    )


def update_beta(state: JaspaState, mu: int, new_ap: int) -> None:
    """Push one best-reply unit vector into the MU's FIFO memory and update
    its probability vector incrementally.

    First push sets beta to the reply; before saturation the memory head keeps
    the residual mass and 1/M moves to each new reply; at saturation the
    evicted entry's 1/M moves to the new reply. After M pushes beta equals the
    arithmetic mean of the stored vectors."""
    mem = state.memory[mu]
    m = state.memory_len
    if len(mem) == 0:
        state.beta[mu] = 0.0
        state.beta[mu, new_ap] = 1.0
    elif len(mem) == m:
        evicted = mem.popleft()
        state.beta[mu, new_ap] += 1.0 / m
        state.beta[mu, evicted] -= 1.0 / m
    else:
        state.beta[mu, new_ap] += 1.0 / m
        state.beta[mu, mem[0]] -= 1.0 / m
    mem.append(int(new_ap))


def sample_associations(rngs, probs: np.ndarray) -> np.ndarray:
    """One categorical draw per row of ``probs`` (N, W), row i from
    ``rngs[i]``, tolerant of the ~1e-16 bookkeeping drift in probs."""
    cum = np.cumsum(probs, axis=1)
    last = probs.shape[1] - 1
    draws = [min(int(c.searchsorted(r.random(), side="right")), last) for r, c in zip(rngs, cum)]
    return np.array(draws, dtype=np.intp)


def uniform_picks(mask: np.ndarray, rngs) -> np.ndarray:
    """Per row i of ``mask`` (N, W), its ``rngs[i].integers(count)``-th True
    column in ascending order: a uniform pick among them. A row with one
    True column draws nothing: ``integers(1)`` is 0 and leaves the stream's
    state as it was, so every later draw is the same."""
    counts = np.count_nonzero(mask, axis=1).tolist()
    draws = [0 if c == 1 else int(r.integers(c)) for r, c in zip(rngs, counts)]
    if not any(draws):  # each row's first True column
        return mask.argmax(axis=1)
    order = np.argsort(~mask, axis=1, kind="stable")  # each row's True columns first
    return order[np.arange(mask.shape[0]), draws]


def ap_members(association: np.ndarray, num_aps: int) -> list:
    """Each AP's members, ascending (an empty array at an empty AP)."""
    order = np.argsort(association, kind="stable")
    bounds = np.searchsorted(association[order], np.arange(num_aps + 1)).tolist()
    return [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@dataclass
class OuterRecord:
    """Rich per-outer-iteration record kept for analysis and tests."""

    outer_iter: int
    association: tuple
    sum_rate: float
    potential: float
    residual_inf: float
    per_mu_rates: np.ndarray
    switch_count: int
    beta: Optional[np.ndarray] = None
    powers: Optional[list] = None
    stay_counts: Optional[np.ndarray] = None


@dataclass
class RunRecorder:
    """The outer-level trace rows of a joint run and an OuterRecord per row,
    its association history; ``streak`` counts the newest records in a row
    that share one association."""

    rows: list = field(default_factory=list)
    detail: list = field(default_factory=list)
    streak: int = 0

    def record(self, t, metrics, association, switch_count, powers, beta=None, stay_counts=None):
        """metrics starts with evaluate_profile's (res_inf, res_two,
        potential, sum_rate, per-MU rates); powers, beta and stay_counts are
        copied."""
        res_inf, _, potential, total, rates = metrics[:5]
        here = tuple(association.tolist())
        self.streak = self.streak + 1 if self.detail and self.detail[-1].association == here else 1
        self.rows.append(outer_row(t, here, potential, total, res_inf, switch_count))
        beta, stay_counts = (None if a is None else a.copy() for a in (beta, stay_counts))
        self.detail.append(OuterRecord(t, here, total, potential, res_inf, rates, switch_count,
                                       beta, copy_powers(powers), stay_counts))


@dataclass
class RunResult:
    """Final profile plus the full per-iteration history of a joint run.

    outer_iterations counts association profiles in the run history including
    the initial draw. jep_report is always computed from the final profile
    (cost-free, per the equilibrium definition); for jaspa and si_jaspa runs
    driven by nonzero connection costs, converged certifies cost stability
    (``verify_jep`` with those costs), under which the cost-free verdict may
    legitimately be negative. inner_nonconverged counts inner solves that
    stopped at max_inner (jaspa only; 0 elsewhere)."""

    algorithm: str
    association: np.ndarray
    powers: list
    converged: bool
    outer_iterations: int
    rows: list
    detail: list
    jep_report: EquilibriumReport
    inner_nonconverged: int = 0


def _initial_profile(scenario, config: JaspaConfig, rngs, random_powers: bool):
    if config.initial_association is not None:
        assoc = validate_association(scenario, config.initial_association).copy()
    else:
        assoc = np.array(
            [int(rngs[i].integers(scenario.num_aps)) for i in range(scenario.num_mus)],
            dtype=np.intp,
        )
    if config.initial_powers is not None:
        validate_powers(scenario, assoc, config.initial_powers)
        powers = copy_powers(config.initial_powers)
    elif random_powers:
        powers = random_feasible_powers(scenario, assoc, rngs)
    else:
        powers = uniform_powers(scenario, assoc)
    return assoc, powers


def _warn_short_memory(config: JaspaConfig, n: int) -> None:
    if config.memory_len < n:
        warnings.warn(
            f"memory_len={config.memory_len} < num_mus={n}: the convergence "
            "guarantee requires memory at least as long as the user count",
            stacklevel=3,
        )


def _warn_loose_gate(config: JaspaConfig) -> None:
    if config.eps_wf > config.eps_eq:
        warnings.warn(
            f"eps_wf={config.eps_wf} > eps_eq={config.eps_eq}: jaspa's inner solves stop at "
            "eps_wf, so the stop gate's verify_jep at eps_eq may never pass",
            stacklevel=3,
        )


def _start(scenario, config: JaspaConfig, random_powers: bool):
    """The start of jaspa and si_jaspa: the connection costs in force, the
    per-MU streams, the state at the initial profile and the recorder."""
    cost = config.connection_cost
    costs = scenario.connection_cost if cost is None else validate_costs(scenario, cost)
    rngs = per_mu_rngs(config.seed, scenario.num_mus)
    assoc, powers = _initial_profile(scenario, config, rngs, random_powers)
    state = new_state(scenario, assoc, powers, config.memory_len)
    return costs, rngs, state, RunRecorder()


def _reselect(scenario, state: JaspaState, costs, config: JaspaConfig, rngs, table=None):
    """JASPA step 3 at the current profile. Each MU records one best reply:
    uniform over the APs whose best-response rate beats its current rate plus
    the switch cost (waived for the current AP, which alone qualifies if
    roundoff empties the set), or the highest-rate AP in greedy mode; then
    its probability vector is refreshed and its next AP sampled. ``table`` is
    the profile's ``best_reply_table``, built here unless given. Returns the
    next association and the table."""
    a = state.association
    if table is None:
        table = best_reply_table(scenario, a, state.powers)
    cur_rates, br_rates, _ = table
    if config.selection == "best":
        picks = br_rates.argmax(axis=1)
    else:
        switching = np.arange(scenario.num_aps) != a[:, None]
        qualify = br_rates >= cur_rates[:, None] + costs[:, None] * switching
        qualify[np.arange(a.size), a] |= ~qualify.any(axis=1)
        picks = uniform_picks(qualify, rngs)
    for i, pick in enumerate(picks.tolist()):
        update_beta(state, i, pick)
    return sample_associations(rngs, state.beta), table


def _settled(scenario, state: JaspaState, streak, costs, config: JaspaConfig, residual):
    """The stop gate of jaspa and si_jaspa, in order: ``streak``, the equal
    associations in a row ending the window, exceeds memory_len; the
    residual is at most eps_wf; the profile verifies as stable under the
    connection costs in force (``verify_jep`` with those costs, the
    joint-equilibrium test when they are zero). Returns that ``verify_jep``
    report when the gate passes, else None."""
    if streak <= config.memory_len or not residual <= config.eps_wf:
        return None
    report = verify_jep(scenario, state.association, state.powers, config.eps_eq, costs)
    return report if report.is_equilibrium else None


def _run_result(algorithm, scenario, config, log, association, powers, converged,
                outer_iterations, inner_nonconverged=0, report=None) -> RunResult:
    """The RunResult of a joint run. ``report`` is the cost-free verdict on
    the final profile; it is computed here unless the run already has it."""
    if report is None:
        report = verify_jep(scenario, association, powers, config.eps_eq)
    return RunResult(algorithm, association, powers, converged, outer_iterations,
                     log.rows, log.detail, report, inner_nonconverged)


def jaspa(scenario, config: JaspaConfig) -> RunResult:
    """Memory-based joint dynamics with intermediate power equilibria.

    Each outer iteration: reach a power equilibrium for the current
    association (an Anderson-accelerated ``a_iwf`` solve, or ``s_iwf`` under
    inner_solver="s_iwf"), record a best reply per MU (uniform over the qualifying AP
    set), refresh the probability vectors, then resample every association.
    A solve starts from the last powers: a stayer keeps its own, and a mover
    enters its new AP at its water-fill there in the best-reply table step 3
    just read. Step 3 reads a solve's powers only to draw the next
    association, so while the association moves (the iteration's switch
    count is positive) the solve stops at max(eps_wf, LOOSE_EPS); iteration
    0 and every repeated association solve to eps_wf.
    A repeat of the association across memory_len+1 consecutive iterations
    proposes termination; convergence is declared only if the last solve met
    eps_wf and the profile then verifies as stable under the connection
    costs in force, ``verify_jep`` with those costs (a constant window can
    occur by chance before stability, since every qualifying set contains
    the current AP). With zero costs the gate is exactly the joint
    equilibrium test. A loose solve never ends a run, so a converged run is
    certified on a tight solve; what convergence needs of step 3 is only
    that the association settles, after which every solve is tight: inexact
    best responses whose errors vanish (Scutari, Facchinei, Song, Palomar
    and Pang, "Decomposition by Partial Linearization", IEEE TSP 2014).
    Deterministic under the config seed. When no MU moved after a solve that
    met eps_wf, a fresh solve would stop at once on the bits of that solve's
    last evaluation and a fresh table would repeat the last, so the
    iteration reuses both (0 iterations, that trace row, the table); every
    random draw still happens. inner_nonconverged counts the solves that
    stopped at max_inner, short of their own tolerance."""
    _warn_short_memory(config, scenario.num_mus)
    _warn_loose_gate(config)
    costs, rngs, state, log = _start(scenario, config, random_powers=False)
    report = None
    switch_count = 0
    inner_nonconverged = 0
    repeat = table = None  # a repeated profile's solve, and its table
    for body in range(config.max_outer):
        eps = max(config.eps_wf, LOOSE_EPS) if switch_count else config.eps_wf
        if repeat is not None:
            inner = repeat
        elif config.inner_solver == "s_iwf":
            inner = s_iwf(scenario, state.association, eps_wf=eps,
                          max_iters=config.max_inner, initial_powers=state.powers)
        else:
            inner = a_iwf(scenario, state.association, schedule=config.schedule,
                          eps_wf=eps, max_iters=config.max_inner,
                          initial_powers=state.powers, accelerate=True)
        state.powers = inner.powers
        inner_nonconverged += not inner.converged
        log.rows.extend(inner_rows(body, state.association, inner.trace))

        nxt, table = _reselect(scenario, state, costs, config, rngs, table)
        tr, cur_rates = inner.trace, table[0]
        residual = float(tr.residual_inf[-1])
        metrics = (residual, None, float(tr.potential[-1]), float(cur_rates.sum()), cur_rates)
        log.record(body, metrics, state.association, switch_count, state.powers, beta=state.beta)
        streak = log.streak + 1 if np.array_equal(nxt, state.association) else 0
        report = _settled(scenario, state, streak, costs, config, residual)
        if report is not None:
            # The sampled association equals the evaluated one, so the latest
            # inner equilibrium is the final power profile.
            break

        # Warm-start the next inner loop: a mover enters its new AP at its
        # water-fill there in this profile's best-reply table.
        moved = np.flatnonzero(nxt != state.association)
        for i in moved.tolist():
            state.powers[i] = table[2][int(nxt[i])][i].copy()
        switch_count = moved.size
        state.association = nxt
        if moved.size or not residual <= config.eps_wf:
            repeat = table = None
        else:  # the trace's last row, whose alpha is nan
            last = InnerTrace(*(column[-1:] for column in vars(tr).values()))
            repeat = InnerLoopResult(inner.powers, 0, True, last)

    return _run_result(
        "jaspa", scenario, config, log, state.association, state.powers, report is not None,
        len(log.detail) + 1, inner_nonconverged, None if costs.any() else report,
    )


def se_jaspa(scenario, config: JaspaConfig) -> RunResult:
    """Sequential variant: one MU per iteration moves to its highest-rate AP
    (uniform among exact ties) and takes a one-shot water-fill there; all
    others are frozen. Stops after num_mus consecutive iterations in which the
    acting MU kept its AP and moved its power by at most eps_wf. No best-reply
    memory and no connection costs: config.memory_len and
    config.connection_cost have no effect."""
    n = scenario.num_mus
    rngs = per_mu_rngs(config.seed, n)
    assoc, powers = _initial_profile(scenario, config, rngs, random_powers=True)
    log = RunRecorder()
    layout = ProfileLayout()
    log.record(0, evaluate_profile(scenario, assoc, powers, layout), assoc, 0, powers)
    converged = False
    quiet = 0
    for body in range(config.max_outer):
        i = body % n
        # Only the acting MU's row of the best-reply table, against the
        # interference of the profile just evaluated.
        br_rates, br_vecs = best_replies(scenario, layout.interference()[i : i + 1], [i])
        pick = int(uniform_picks(br_rates == br_rates.max(), [rngs[i]])[0])  # among exact ties
        changed = pick != int(assoc[i])
        new_p = br_vecs[pick][0]
        if changed:
            quiet = 0
        else:
            move = float(np.max(np.abs(new_p - np.asarray(powers[i]))))
            quiet = 0 if move > config.eps_wf else quiet + 1
        assoc[i] = pick
        powers[i] = new_p
        metrics = evaluate_profile(scenario, assoc, powers, layout)
        log.record(body + 1, metrics, assoc, int(changed), powers)
        if quiet >= n:
            converged = True
            break

    return _run_result("se_jaspa", scenario, config, log, assoc, powers, converged, len(log.rows))


def si_jaspa(scenario, config: JaspaConfig) -> RunResult:
    """Simultaneous variant without intermediate equilibria: every iteration
    each MU records a best reply (JASPA step-3 semantics), resamples its AP
    from its probability vector, and updates its power - a fresh water-fill on
    arrival at a new AP, an averaged step clocked by its stay duration
    otherwise. Termination is proposed when the association is constant over
    memory_len+1 iterations and the best-response residual is below eps_wf,
    and declared only once the profile verifies as stable under the
    connection costs in force, ``verify_jep`` with those costs (the joint
    equilibrium test when costs are zero).

    When an AP keeps the same member set from one profile to the next, every
    member stays and targets its water-fill against the others, so the stay
    steps are one averaged water-filling step on that (AP, member set) block.
    Under the safeguarded schedule such a step is 1/2 until the block's
    potential first falls strictly from one profile to the next in this run;
    every other stay step is ``alpha(stay count)``."""
    _warn_short_memory(config, scenario.num_mus)
    costs, rngs, state, log = _start(scenario, config, random_powers=True)
    layout = ProfileLayout()
    metrics = evaluate_profile(scenario, state.association, state.powers, layout)
    log.record(0, metrics, state.association, 0, state.powers, state.beta, state.stay_counts)
    fallen: set = set()
    report = None
    for body in range(config.max_outer):
        nxt, (_, _, br_vecs) = _reselect(scenario, state, costs, config, rngs)
        # The (AP, member set) blocks whose members are the same in both profiles.
        kept = [
            (ap, tuple(mus.tolist()))
            for ap, mus in enumerate(ap_members(nxt, scenario.num_aps))
            if np.array_equal(nxt == ap, state.association == ap)
        ]
        held = {ap for ap, members in kept if (ap, members) not in fallen}
        moved = nxt != state.association
        state.stay_counts += 1
        state.stay_counts[moved] = 1
        # A mover takes its target; a stayer steps alpha of the way to it.
        new_powers = []
        for i, (ap, move, t) in enumerate(zip(nxt.tolist(), moved.tolist(),
                                              state.stay_counts.tolist())):
            if move:
                new_powers.append(br_vecs[ap][i].copy())
            else:
                alpha = config.schedule.block_alpha(t, ap in held)
                new_powers.append((1.0 - alpha) * state.powers[i] + alpha * br_vecs[ap][i])
        switch_count = int(np.count_nonzero(moved))
        state.association = nxt
        state.powers = new_powers
        last = metrics[5]
        metrics = evaluate_profile(scenario, state.association, state.powers, layout)
        fallen.update(b for b in kept if not keeps_hold(last[b[0]], metrics[5][b[0]]))
        log.record(
            body + 1, metrics, state.association, switch_count, state.powers,
            state.beta, state.stay_counts,
        )
        report = _settled(scenario, state, log.streak, costs, config, metrics[0])
        if report is not None:
            break

    return _run_result(
        "si_jaspa", scenario, config, log, state.association, state.powers, report is not None,
        len(log.detail), report=None if costs.any() else report,
    )
