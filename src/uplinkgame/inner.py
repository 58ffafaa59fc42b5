"""Fixed-association power equilibrium solvers.

a_iwf averages simultaneous water-fill responses with a diminishing stepsize;
s_iwf applies exact responses one MU at a time. Both stop when the
best-response residual drops below ``eps_wf`` in inf-norm.

Both solvers and ``evaluate_profile`` run on one stacked-row state: each MU
is a row of one matrix per AP block width (``partition_channels`` yields at
most two), rows ordered by (width, AP, MU index). Gains, powers and budgets
are gathered once per solve; an evaluation makes one ``G*P``, one water-fill
call, one residual and one set of ``log2``s per width. Results are
bit-identical to evaluating each AP block on its own, because every sum keeps
numpy's per-block order:
- block totals are ``noise + Z.sum(axis=1)``, ``Z`` the zero-padded (blocks,
  members, width) scatter of ``G*P``: a sequential member-order sum, where
  trailing zeros add exactly. A lone block needs no ``Z``, and width-1 blocks
  are summed block by block: numpy sums an (m, 1) column pairwise, and padding
  would move its bits;
- squared residuals (one contiguous slice per block) and potentials are
  summed per block, then added in AP order as Python floats;
- rates are row sums over each MU's own block columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .game import copy_powers, uniform_powers, validate_association, validate_powers
from .waterfill import water_fill_batch


@dataclass(frozen=True)
class StepsizeSchedule:
    """Diminishing stepsizes with divergent sum and finite sum of squares.

    "polynomial": alpha_t = (t+1)^(-exponent), exponent in (0.5, 1].
    "harmonic":   alpha_t = 1/(t+1).
    "custom":     user-supplied func(t); each value must lie in (0, 1).

    The polynomial default (exponent 0.55) is used instead of the harmonic
    rule because harmonic steps contract the single-user error only like 1/t,
    which cannot reach the residual tolerances used here in any practical
    iteration budget.
    """

    rule: str = "polynomial"
    exponent: float = 0.55
    func: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if self.rule not in ("polynomial", "harmonic", "custom"):
            raise ValidationError(f"unknown stepsize rule {self.rule!r}")
        if self.rule == "polynomial" and not 0.5 < self.exponent <= 1.0:
            raise ValidationError("polynomial exponent must lie in (0.5, 1]")
        if self.rule == "custom" and self.func is None:
            raise ValidationError("custom schedule needs a func")

    def alpha(self, t: int) -> float:
        if t < 1:
            raise ValidationError("stepsize index starts at 1")
        if self.rule == "harmonic":
            a = 1.0 / (t + 1)
        elif self.rule == "polynomial":
            a = (t + 1.0) ** (-self.exponent)
        else:
            a = float(self.func(t))
        if not 0.0 < a < 1.0:
            raise ValidationError(f"stepsize alpha({t})={a} outside (0, 1)")
        return a


@dataclass
class InnerTrace:
    """Per-iteration records of one inner-loop run (row 0 is the start point).

    alpha[j] is the step applied after evaluating row j (nan on the final row
    and everywhere for s_iwf, which takes exact steps)."""

    potential: np.ndarray
    sum_rate: np.ndarray
    residual_inf: np.ndarray
    residual_two: np.ndarray
    alpha: np.ndarray


@dataclass
class InnerLoopResult:
    powers: list
    iterations: int
    converged: bool
    trace: InnerTrace


@dataclass
class InnerDiagnostics:
    """Convergence facts read off a trace: the index after which the potential
    never decreases, whether the residual dropped below tolerance, and the
    stepsize-weighted squared-residual sum (finite for a convergent run)."""

    monotone_from: int
    residual_converged: bool
    final_residual_inf: float
    stepsize_weighted_residual: float


class _Group:
    """Stacked rows of every MU whose AP block has one width, ordered by
    (AP, MU index); ``bounds`` are each block's row range."""

    def __init__(self, scenario, aps, members, powers):
        cols = np.stack([scenario.chan_idx[ap] for ap in aps])
        sizes = [m.size for m in members]
        ends = np.cumsum(sizes)
        self.aps = aps
        self.mus = np.concatenate(members)
        self.block = np.repeat(np.arange(len(aps)), sizes)
        self.bounds = list(zip((ends - sizes).tolist(), ends.tolist()))
        self.gain = scenario.gain_sq[self.mus[:, None], cols[self.block]]
        self.noise = scenario.noise[cols]
        self.log_noise = np.log2(self.noise)
        self.budgets = scenario.budget[self.mus]
        self.limits = self.budgets + 1e-9
        self.pmat = np.array([powers[i] for i in self.mus], dtype=float)
        self.slot = np.arange(self.mus.size) - (ends - sizes)[self.block]
        self.z = np.zeros((len(aps), max(sizes), cols.shape[1])) if min(cols.shape) > 1 else None

    def totals(self, gp: np.ndarray) -> np.ndarray:
        """Per-block received totals, (blocks, width)."""
        if self.z is None:
            return self.noise + np.stack([gp[lo:hi].sum(axis=0) for lo, hi in self.bounds])
        self.z[self.block, self.slot] = gp
        return self.noise + self.z.sum(axis=1)


class _Stack:
    """Stacked-row state of one association profile: one _Group per block
    width, narrowest first."""

    def __init__(self, scenario, association, powers):
        self.num_channels, self.num_mus = scenario.num_channels, scenario.num_mus
        by_width: dict = {}
        for ap in range(scenario.num_aps):
            members = np.flatnonzero(association == ap)
            if members.size:
                by_width.setdefault(scenario.chan_idx[ap].size, []).append((ap, members))
        self.groups = [_Group(scenario, *zip(*by_width[w]), powers) for w in sorted(by_width)]
        # (MU, group, row) in ascending MU order.
        self.rows = sorted((mu, g, r) for g in self.groups for r, mu in enumerate(g.mus.tolist()))

    def evaluate(self):
        """One synchronous evaluation: per-group residuals (response minus
        powers), residual inf- and 2-norms, potential and per-MU rates."""
        k = self.num_channels
        res_inf = 0.0
        blocks = []  # (AP, squared residual, potential)
        rates = np.empty(self.num_mus)
        residuals = []
        for g in self.groups:
            gp = g.gain * g.pmat
            tot = g.totals(gp)
            others = tot[g.block] - gp
            phi, _ = water_fill_batch(others / g.gain, g.budgets)
            s = phi - g.pmat
            res_inf = max(res_inf, float(np.max(np.abs(s))))
            s2 = s * s
            log_tot = np.log2(tot)
            block_pot = ((log_tot - g.log_noise).sum(axis=1) / k).tolist()
            blocks += zip(g.aps, [float(s2[lo:hi].sum()) for lo, hi in g.bounds], block_pot)
            rates[g.mus] = (log_tot[g.block] - np.log2(others)).sum(axis=1) / k
            residuals.append(s)
        sq = potential = 0.0
        for _, sq_b, pot_b in sorted(blocks):
            sq += sq_b
            potential += pot_b
        return residuals, res_inf, math.sqrt(sq), potential, rates


def evaluate_profile(scenario, association, powers):
    """Batch metrics of one profile: (residual inf-norm, residual 2-norm,
    system potential, sum rate, per-MU rates)."""
    association = np.asarray(association, dtype=np.intp)
    _, res_inf, res_two, potential, rates = _Stack(scenario, association, powers).evaluate()
    return res_inf, res_two, potential, float(rates.sum()), rates


def _prepare(scenario, association, initial_powers) -> _Stack:
    association = validate_association(scenario, association)
    if initial_powers is None:
        powers = uniform_powers(scenario, association)
    else:
        validate_powers(scenario, association, initial_powers)
        powers = copy_powers(initial_powers)
    return _Stack(scenario, association, powers)


def _iterate(stack: _Stack, eps_wf: float, max_iters: int, step) -> InnerLoopResult:
    """Evaluate and record a trace row; stop at ``eps_wf`` or ``max_iters``,
    else call ``step(t, residuals)``, which updates the powers and returns the
    stepsize it applied (nan for exact steps)."""
    rows = []
    converged = False
    t = 0
    while True:
        residuals, res_inf, res_two, potential, rates = stack.evaluate()
        rows.append([potential, float(rates.sum()), res_inf, res_two, math.nan])
        if res_inf <= eps_wf:
            converged = True
            break
        if t >= max_iters:
            break
        t += 1
        rows[-1][4] = step(t, residuals)
    trace = InnerTrace(*(np.asarray(col) for col in zip(*rows)))
    powers = [g.pmat[r].copy() for _, g, r in stack.rows]
    return InnerLoopResult(powers, t, converged, trace)


def a_iwf(
    scenario,
    association,
    schedule: Optional[StepsizeSchedule] = None,
    eps_wf: float = 1e-8,
    max_iters: int = 100_000,
    initial_powers=None,
) -> InnerLoopResult:
    """Averaged iterative water-filling: every MU moves a fraction alpha_t of
    the way to its water-fill response, simultaneously, each iteration.

    Raises RuntimeError if a step leaves the feasible set (a negative power
    or a budget exceeded by more than 1e-9); a convex combination of feasible
    points cannot, so this flags a faulty water-fill response."""
    stack = _prepare(scenario, association, initial_powers)
    if schedule is None:
        schedule = StepsizeSchedule()

    def step(t, residuals):
        a = schedule.alpha(t)
        for g, s in zip(stack.groups, residuals):
            g.pmat += a * s
            if not (np.all(g.pmat >= 0.0) and np.all(g.pmat.sum(axis=1) <= g.limits)):
                raise RuntimeError(f"a_iwf: infeasible powers after step {t}")
        return a

    return _iterate(stack, eps_wf, max_iters, step)


def s_iwf(
    scenario,
    association,
    eps_wf: float = 1e-8,
    max_iters: int = 100_000,
    initial_powers=None,
) -> InnerLoopResult:
    """Sequential iterative water-filling: MUs take exact water-fill steps in
    ascending index order; one iteration is one full round."""
    stack = _prepare(scenario, association, initial_powers)

    def step(t, residuals):
        for _, g, r in stack.rows:
            b = g.block[r]
            lo, hi = g.bounds[b]
            tot = g.noise[b] + (g.gain[lo:hi] * g.pmat[lo:hi]).sum(axis=0)
            floors = (tot - g.gain[r] * g.pmat[r]) / g.gain[r]
            phi, _ = water_fill_batch(floors[None, :], g.budgets[r : r + 1])
            g.pmat[r] = phi[0]
        return math.nan

    return _iterate(stack, eps_wf, max_iters, step)


def convergence_diagnostics(
    trace: InnerTrace, eps: float = 1e-8, monotone_tol: float = 1e-12
) -> InnerDiagnostics:
    """Summarize a trace: first index after which the potential is
    non-decreasing (within ``monotone_tol``), whether the final residual meets
    ``eps``, and sum over iterations of alpha * ||residual||_2^2."""
    p = trace.potential
    drops = np.flatnonzero(np.diff(p) < -monotone_tol)
    monotone_from = int(drops[-1] + 1) if drops.size else 0
    finite = np.isfinite(trace.alpha)
    weighted = float(np.sum(trace.alpha[finite] * trace.residual_two[finite] ** 2))
    final = float(trace.residual_inf[-1])
    return InnerDiagnostics(monotone_from, final <= eps, final, weighted)
