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

from .errors import ValidationError
from .game import (
    EquilibriumReport,
    all_rates,
    copy_powers,
    random_feasible_powers,
    uniform_powers,
    validate_association,
    validate_powers,
    verify_jep,
    verify_power_ne,
)
from .inner import InnerLoopResult, StepsizeSchedule, a_iwf, evaluate_profile, s_iwf
from .trace import TraceRow, association_label, inner_rows
from .waterfill import best_reply_table, water_fill_batch

# Unused verify_power_ne and water_fill_batch stay bound: perfbench hooks both names.


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
    variant used in oscillation regressions).
    """

    memory_len: int = 10
    connection_cost: Optional[object] = None
    inner_solver: str = "a_iwf"
    eps_wf: float = 1e-8
    max_inner: int = 100_000
    max_outer: int = 10_000
    seed: int = 0
    schedule: StepsizeSchedule = field(default_factory=StepsizeSchedule)
    selection: str = "uniform"
    eps_eq: float = 1e-6
    initial_association: Optional[np.ndarray] = None
    initial_powers: Optional[list] = None
    record_detail: bool = True
    coalition_cap: int = 100_000

    def __post_init__(self):
        if self.memory_len < 1:
            raise ValidationError("memory_len must be >= 1")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValidationError("iteration caps must be >= 1")
        if self.inner_solver not in ("a_iwf", "s_iwf"):
            raise ValidationError(f"unknown inner solver {self.inner_solver!r}")
        if self.selection not in ("uniform", "best"):
            raise ValidationError(f"unknown selection mode {self.selection!r}")
        if self.coalition_cap < 1:
            raise ValidationError("coalition_cap must be >= 1")


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


def sample_association(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Categorical draw tolerant of the ~1e-16 bookkeeping drift in probs."""
    u = rng.random()
    cum = np.cumsum(probs)
    return min(int(np.searchsorted(cum, u, side="right")), probs.size - 1)


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
    """The outer-level trace rows of a joint run and, when keep_detail is
    set, an OuterRecord per row."""

    keep_detail: bool
    rows: list = field(default_factory=list)
    detail: list = field(default_factory=list)

    def record(self, t, metrics, association, switch_count, powers, beta=None, stay_counts=None):
        """metrics is evaluate_profile's (res_inf, res_two, potential,
        sum_rate, per-MU rates); powers, beta and stay_counts are copied."""
        res_inf, _, potential, total, rates = metrics
        here = tuple(int(x) for x in association)
        self.rows.append(
            TraceRow(t, -1, potential, total, res_inf, association_label(here), switch_count)
        )
        if self.keep_detail:
            self.detail.append(
                OuterRecord(
                    t,
                    here,
                    total,
                    potential,
                    res_inf,
                    rates,
                    switch_count,
                    beta=None if beta is None else beta.copy(),
                    powers=copy_powers(powers),
                    stay_counts=None if stay_counts is None else stay_counts.copy(),
                )
            )


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


def _resolve_costs(scenario, config: JaspaConfig) -> np.ndarray:
    if config.connection_cost is None:
        return scenario.connection_cost
    costs = np.asarray(config.connection_cost, dtype=float)
    if costs.ndim == 0:
        costs = np.full(scenario.num_mus, float(costs))
    if costs.shape != (scenario.num_mus,):
        raise ValidationError("connection_cost: expected a scalar or one value per MU")
    if np.any(costs < 0.0):
        raise ValidationError("connection_cost: entries must be nonnegative")
    return costs


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


def run_inner(scenario, association, config: JaspaConfig, initial_powers=None) -> InnerLoopResult:
    if config.inner_solver == "s_iwf":
        return s_iwf(
            scenario,
            association,
            eps_wf=config.eps_wf,
            max_iters=config.max_inner,
            initial_powers=initial_powers,
        )
    return a_iwf(
        scenario,
        association,
        schedule=config.schedule,
        eps_wf=config.eps_wf,
        max_iters=config.max_inner,
        initial_powers=initial_powers,
    )


def _pick_replies(scenario, state, br_rates, cur_rates, costs, config, rngs):
    """JASPA step-3 semantics: qualify APs whose best-response rate beats the
    current rate plus the switch cost (waived for the current AP), then pick
    uniformly; or pick the argmax AP in greedy mode."""
    n, w = br_rates.shape
    picks = np.empty(n, dtype=np.intp)
    ap_range = np.arange(w)
    for i in range(n):
        if config.selection == "best":
            picks[i] = int(np.argmax(br_rates[i]))
            continue
        cur_ap = int(state.association[i])
        thresh = cur_rates[i] + costs[i] * (ap_range != cur_ap)
        members = np.flatnonzero(br_rates[i] >= thresh)
        if members.size == 0:
            members = np.array([cur_ap], dtype=np.intp)
        picks[i] = members[int(rngs[i].integers(members.size))]
    return picks


def _tail_constant(history: list, span: int) -> bool:
    if len(history) < span:
        return False
    tail = history[-span:]
    return all(t == tail[0] for t in tail)


def jaspa(scenario, config: JaspaConfig) -> RunResult:
    """Memory-based joint dynamics with intermediate power equilibria.

    Each outer iteration: reach a power equilibrium for the current
    association, record a best reply per MU (uniform over the qualifying AP
    set), refresh the probability vectors, then resample every association.
    A repeat of the association across memory_len+1 consecutive iterations
    proposes termination; convergence is declared only if the profile then
    verifies as stable under the connection costs in force, ``verify_jep``
    with those costs (a constant window can occur by chance before stability,
    since every qualifying set contains the current AP). With zero costs the
    gate is exactly the joint equilibrium test. Deterministic under the
    config seed."""
    n = scenario.num_mus
    _warn_short_memory(config, n)
    costs = _resolve_costs(scenario, config)
    rngs = per_mu_rngs(config.seed, n)
    assoc, powers = _initial_profile(scenario, config, rngs, random_powers=False)
    state = new_state(scenario, assoc, powers, config.memory_len)
    history = [tuple(int(x) for x in assoc)]
    log = RunRecorder(config.record_detail)
    converged = False
    prev = history[0]
    inner_nonconverged = 0

    for body in range(config.max_outer):
        inner = run_inner(scenario, state.association, config, initial_powers=state.powers)
        state.powers = inner.powers
        inner_nonconverged += not inner.converged
        log.rows.extend(inner_rows(body, state.association, inner.trace))

        cur_rates = all_rates(scenario, state.association, state.powers)
        br_rates, _ = best_reply_table(scenario, state.association, state.powers)
        picks = _pick_replies(scenario, state, br_rates, cur_rates, costs, config, rngs)
        for i in range(n):
            update_beta(state, i, int(picks[i]))
        nxt = np.array([sample_association(rngs[i], state.beta[i]) for i in range(n)], dtype=np.intp)

        here = tuple(int(x) for x in state.association)
        switch_count = sum(1 for x, y in zip(here, prev) if x != y)
        metrics = (
            float(inner.trace.residual_inf[-1]),
            None,
            float(inner.trace.potential[-1]),
            float(cur_rates.sum()),
            cur_rates,
        )
        log.record(body, metrics, here, switch_count, state.powers, beta=state.beta)
        prev = here
        history.append(tuple(int(x) for x in nxt))

        if (
            _tail_constant(history, config.memory_len + 1)
            and verify_jep(
                scenario, state.association, state.powers, config.eps_eq, costs
            ).is_equilibrium
        ):
            # The sampled association equals the evaluated one, so the latest
            # inner equilibrium is the final power profile.
            state.association = nxt
            converged = True
            break

        # Warm-start the next inner loop: movers restart from a uniform spread.
        for i in range(n):
            if nxt[i] != state.association[i]:
                k = scenario.chan_idx[int(nxt[i])].size
                state.powers[i] = np.full(k, scenario.budget[i] / k)
        state.association = nxt

    report = verify_jep(scenario, state.association, state.powers, config.eps_eq)
    return RunResult(
        "jaspa",
        state.association,
        state.powers,
        converged,
        len(history),
        log.rows,
        log.detail,
        report,
        inner_nonconverged,
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
    log = RunRecorder(config.record_detail)
    log.record(0, evaluate_profile(scenario, assoc, powers), assoc, 0, powers)
    converged = False
    quiet = 0
    turns = 0
    for body in range(config.max_outer):
        i = body % n
        br_rates, br_vecs = best_reply_table(scenario, assoc, powers)
        best = br_rates[i].max()
        ties = np.flatnonzero(br_rates[i] == best)
        pick = int(ties[int(rngs[i].integers(ties.size))])
        changed = pick != int(assoc[i])
        new_p = br_vecs[pick][i].copy()
        if changed:
            quiet = 0
        else:
            move = float(np.max(np.abs(new_p - np.asarray(powers[i]))))
            quiet = 0 if move > config.eps_wf else quiet + 1
        assoc[i] = pick
        powers[i] = new_p
        turns = body + 1
        log.record(
            turns, evaluate_profile(scenario, assoc, powers), assoc, 1 if changed else 0, powers
        )
        if quiet >= n:
            converged = True
            break

    report = verify_jep(scenario, assoc, powers, config.eps_eq)
    return RunResult(
        "se_jaspa", assoc, powers, converged, turns + 1, log.rows, log.detail, report
    )


def si_jaspa(scenario, config: JaspaConfig) -> RunResult:
    """Simultaneous variant without intermediate equilibria: every iteration
    each MU records a best reply (JASPA step-3 semantics), resamples its AP
    from its probability vector, and updates its power - a fresh water-fill on
    arrival at a new AP, an averaged step clocked by its stay duration
    otherwise. Termination is proposed when the association is constant over
    memory_len+1 iterations and the best-response residual is below eps_wf,
    and declared only once the profile verifies as stable under the
    connection costs in force, ``verify_jep`` with those costs (the joint
    equilibrium test when costs are zero)."""
    n = scenario.num_mus
    _warn_short_memory(config, n)
    costs = _resolve_costs(scenario, config)
    rngs = per_mu_rngs(config.seed, n)
    assoc, powers = _initial_profile(scenario, config, rngs, random_powers=True)
    state = new_state(scenario, assoc, powers, config.memory_len)
    history = [tuple(int(x) for x in assoc)]
    log = RunRecorder(config.record_detail)
    metrics = evaluate_profile(scenario, state.association, state.powers)
    log.record(0, metrics, state.association, 0, state.powers, state.beta, state.stay_counts)
    converged = False
    steps = 0
    for body in range(config.max_outer):
        cur_rates = all_rates(scenario, state.association, state.powers)
        br_rates, br_vecs = best_reply_table(scenario, state.association, state.powers)
        picks = _pick_replies(scenario, state, br_rates, cur_rates, costs, config, rngs)
        for i in range(n):
            update_beta(state, i, int(picks[i]))
        nxt = np.array(
            [sample_association(rngs[i], state.beta[i]) for i in range(n)], dtype=np.intp
        )
        new_powers = []
        for i in range(n):
            target = br_vecs[int(nxt[i])][i]
            if nxt[i] != state.association[i]:
                state.stay_counts[i] = 1
                new_powers.append(target.copy())
            else:
                state.stay_counts[i] += 1
                alpha = config.schedule.alpha(int(state.stay_counts[i]))
                new_powers.append((1.0 - alpha) * np.asarray(state.powers[i]) + alpha * target)
        switch_count = int(np.sum(nxt != state.association))
        state.association = nxt
        state.powers = new_powers
        history.append(tuple(int(x) for x in nxt))
        steps = body + 1
        metrics = evaluate_profile(scenario, state.association, state.powers)
        log.record(
            steps, metrics, state.association, switch_count, state.powers,
            state.beta, state.stay_counts,
        )
        if (
            _tail_constant(history, config.memory_len + 1)
            and metrics[0] <= config.eps_wf
            and verify_jep(
                scenario, state.association, state.powers, config.eps_eq, costs
            ).is_equilibrium
        ):
            converged = True
            break

    report = verify_jep(scenario, state.association, state.powers, config.eps_eq)
    return RunResult(
        "si_jaspa",
        state.association,
        state.powers,
        converged,
        len(history),
        log.rows,
        log.detail,
        report,
    )
