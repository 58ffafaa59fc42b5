"""Fixed-association power equilibrium solvers.

a_iwf averages simultaneous water-fill responses with a diminishing stepsize;
s_iwf applies exact responses one MU at a time. Both stop when the
best-response residual drops below ``eps_wf`` in inf-norm.

APs own disjoint channel blocks, so a profile's power game is a set of
independent blocks, one per (AP, member set). The solvers run on stacked
rows: each block member is a row of one matrix per block width
(``partition_channels`` yields at most two), rows ordered by block, then MU
index, blocks largest first. A stack holds one profile's blocks
(``a_iwf``, ``s_iwf``, ``evaluate_profile``) or the distinct blocks of many
profiles (``solve_profiles``, where an MU has a row in each of its blocks).
An evaluation makes one ``G*P``, one water-fill call, one residual and one
set of ``log2``s per width. An s_iwf round makes one water-fill call per
member slot: the j-th member of every block moves at once, which equals
stepping MU by MU because blocks are independent and a block's members move
in ascending MU order.

Results are bit-identical to solving each profile's AP blocks one by one,
because every sum keeps numpy's per-block order:
- block totals are ``noise + Z.sum(axis=1)``, ``Z`` the zero-padded (blocks,
  members, width) scatter of ``G*P``: a sequential member-order sum, where
  trailing zeros add exactly. A lone block needs no ``Z``, and width-1 blocks
  are summed block by block: numpy sums an (m, 1) column pairwise, and padding
  would move its bits;
- a profile's squared residual sums each block's contiguous slice, and its
  potential adds the block potentials in AP order, from 0.0 (an empty AP
  adds 0.0, which is exact);
- rates are row sums over each MU's own block columns, and a profile's sum
  rate sums its N MU rates in MU order (a row sum of a (profiles, N) gather
  has the bits of the 1-D sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    """Stacked rows of independent AP blocks that share one channel width.

    A block is the power game of one (AP, member set): the blocks of one
    profile's APs, or the distinct blocks of many profiles, where an MU has a
    row in every block it belongs to. ``cols`` holds each block's channel
    columns, largest block first; ``block`` and ``mus`` name each row's block
    and MU, rows sorted by block, then MU index; ``pmat`` holds the rows'
    powers. ``ids`` and ``rows`` are the caller's labels for the blocks and
    the rows."""

    def __init__(self, scenario, cols, block, mus, pmat, ids, rows):
        self.scenario, self.cols = scenario, cols
        self.block, self.mus, self.pmat, self.ids, self.rows = block, mus, pmat, ids, rows
        self.num_channels = scenario.num_channels
        self.sizes = np.bincount(block, minlength=len(cols))
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.slot = np.arange(mus.size) - self.starts[block]
        self.gain = scenario.gain_sq[mus[:, None], cols[block]]
        self.noise = scenario.noise[cols]
        self.log_noise = np.log2(self.noise)
        self.budgets = scenario.budget[mus]
        self.limits = self.budgets + 1e-9
        self.lone = len(cols) == 1
        wide = not self.lone and cols.shape[1] > 1
        self.z = np.zeros((len(cols), self.sizes[0], cols.shape[1])) if wide else None

    @cached_property
    def bounds(self) -> list:
        """Each block's row range (start, end)."""
        return list(zip(self.starts.tolist(), (self.starts + self.sizes).tolist()))

    @cached_property
    def slots(self) -> list:
        """Member slot j as (rows, nb): the j-th rows of the first ``nb``
        blocks, all blocks with more than j members."""
        out = []
        for j in range(int(self.sizes[0])):
            nb = int(np.count_nonzero(self.sizes > j))
            out.append((slice(j, j + 1) if nb == 1 else self.starts[:nb] + j, nb))
        return out

    def totals(self, gp, nb=None):
        """Received totals, noise plus every member's ``gp`` row, of the first
        ``nb`` blocks (default all), one row each; ``Z`` must hold ``gp``."""
        if self.lone:
            return self.noise + gp.sum(axis=0)
        if self.z is None:
            sums = [gp[lo:hi].sum(axis=0) for lo, hi in self.bounds[:nb]]
            return self.noise[:nb] + np.stack(sums)
        return self.noise[:nb] + self.z[:nb].sum(axis=1)

    def evaluate(self):
        """One synchronous evaluation: per block the potential, per row the
        rate; keeps the residual rows (response minus powers)."""
        k = self.num_channels
        gp = self.gain * self.pmat
        if self.z is not None:
            self.z[self.block, self.slot] = gp
        tot = self.totals(gp)
        others = tot[self.block] - gp
        phi, _ = water_fill_batch(others / self.gain, self.budgets)
        self.residual = phi - self.pmat
        log_tot = np.log2(tot)
        potential = (log_tot - self.log_noise).sum(axis=1) / k
        rates = (log_tot[self.block] - np.log2(others)).sum(axis=1) / k
        return potential, rates

    def average(self, alpha, t):
        """a_iwf's step: every row moves ``alpha`` of its last residual.
        Raises RuntimeError if that leaves the feasible set."""
        self.pmat += alpha * self.residual
        if not (np.all(self.pmat >= 0.0) and np.all(self.pmat.sum(axis=1) <= self.limits)):
            raise RuntimeError(f"a_iwf: infeasible powers after step {t}")

    def sweep(self):
        """s_iwf's round: for slot j = 0, 1, ..., the j-th member of every
        block takes its exact water-fill response, in one call. A block's
        members move in ascending MU order and blocks are independent, so
        this equals stepping MU by MU."""
        gp = self.gain * self.pmat
        if self.z is not None:
            self.z[self.block, self.slot] = gp
        for j, (rows, nb) in enumerate(self.slots):
            floors = (self.totals(gp, nb) - gp[rows]) / self.gain[rows]
            phi, _ = water_fill_batch(floors, self.budgets[rows])
            self.pmat[rows] = phi
            gp[rows] = self.gain[rows] * phi
            if self.z is not None:
                self.z[:nb, j] = gp[rows]

    def subset(self, keep):
        """The blocks where ``keep`` holds, in order, with their rows' powers
        and residuals."""
        rows = keep[self.block]
        block = (np.cumsum(keep) - 1)[self.block[rows]]
        sub = _Group(
            self.scenario, self.cols[keep], block, self.mus[rows], self.pmat[rows],
            self.ids[keep], self.rows[rows],
        )
        sub.residual = self.residual[rows]
        return sub


def _average_step(schedule: StepsizeSchedule):
    """a_iwf's iteration t on every group; returns its stepsize."""

    def step(t, groups):
        a = schedule.alpha(t)
        for g in groups:
            g.average(a, t)
        return a

    return step


def _sweep_step(t, groups):
    """s_iwf's round on every group; an exact step has no stepsize (nan)."""
    for g in groups:
        g.sweep()
    return math.nan


class _Stack:
    """Stacked-row state of one association profile: its nonempty AP blocks,
    one _Group per block width, narrowest first, largest block first within."""

    def __init__(self, scenario, association, powers):
        self.num_mus = scenario.num_mus
        by_width: dict = {}
        for ap in range(scenario.num_aps):
            members = np.flatnonzero(association == ap)
            if members.size:
                block = (-members.size, ap, members)
                by_width.setdefault(scenario.chan_idx[ap].size, []).append(block)
        self.groups = []
        for w in sorted(by_width):
            _, aps, members = zip(*sorted(by_width[w], key=lambda b: b[:2]))
            cols = np.stack([scenario.chan_idx[ap] for ap in aps])
            mus = np.concatenate(members)
            block = np.repeat(np.arange(len(aps)), [m.size for m in members])
            pmat = np.array([powers[i] for i in mus], dtype=float)
            self.groups.append(_Group(scenario, cols, block, mus, pmat, aps, mus))
        # (MU, group, row) in ascending MU order.
        self.rows = sorted((mu, g, r) for g in self.groups for r, mu in enumerate(g.mus.tolist()))

    def evaluate(self):
        """One synchronous evaluation: residual inf- and 2-norms, potential
        and per-MU rates."""
        res_inf = 0.0
        blocks = []  # (AP, squared residual, potential)
        rates = np.empty(self.num_mus)
        for g in self.groups:
            block_pot, rates[g.mus] = g.evaluate()
            res_inf = max(res_inf, float(np.max(np.abs(g.residual))))
            s2 = g.residual * g.residual
            block_sq = [float(s2[lo:hi].sum()) for lo, hi in g.bounds]
            blocks += zip(g.ids, block_sq, block_pot.tolist())
        sq = potential = 0.0
        for _, sq_b, pot_b in sorted(blocks):
            sq += sq_b
            potential += pot_b
        return res_inf, math.sqrt(sq), potential, rates


def evaluate_profile(scenario, association, powers):
    """Batch metrics of one profile: (residual inf-norm, residual 2-norm,
    system potential, sum rate, per-MU rates)."""
    association = np.asarray(association, dtype=np.intp)
    res_inf, res_two, potential, rates = _Stack(scenario, association, powers).evaluate()
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
    else call ``step(t, groups)``, which updates the powers and returns the
    stepsize it applied (nan for exact steps)."""
    rows = []
    converged = False
    t = 0
    while True:
        res_inf, res_two, potential, rates = stack.evaluate()
        rows.append([potential, float(rates.sum()), res_inf, res_two, math.nan])
        if res_inf <= eps_wf:
            converged = True
            break
        if t >= max_iters:
            break
        t += 1
        rows[-1][4] = step(t, stack.groups)
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
    return _iterate(stack, eps_wf, max_iters, _average_step(schedule or StepsizeSchedule()))


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
    return _iterate(stack, eps_wf, max_iters, _sweep_step)


def solve_profiles(
    scenario,
    associations: np.ndarray,
    solver: str = "s_iwf",
    eps_wf: float = 1e-8,
    max_iters: int = 100_000,
    schedule: Optional[StepsizeSchedule] = None,
):
    """Final sum rate, potential and converged flag of ``solver`` (a_iwf, else
    s_iwf) run from uniform powers on every row of ``associations``, a
    (profiles, N) array, as three arrays; each equals that profile's own run
    (``trace.sum_rate[-1]``, ``trace.potential[-1]``, ``converged``), bit for
    bit.

    Each distinct (AP, member set) block is stacked once, however many
    profiles share it, and all blocks step together. A profile stops at the
    first evaluation where every one of its blocks has residual at most
    ``eps_wf`` (converged), or at ``max_iters``; a block is dropped when no
    running profile uses it. The sum rate sums the N MU rates in MU order;
    the potential adds the block potentials in AP order, from 0.0."""
    step = _average_step(schedule or StepsizeSchedule()) if solver == "a_iwf" else _sweep_step
    profiles, n = associations.shape
    w = scenario.num_aps
    member = associations[:, None, :] == np.arange(w)[:, None]
    # Distinct blocks as sorted (width, -size, AP, member flags) rows.
    keys = np.empty((profiles, w, n + 3), dtype=np.int32)
    keys[..., 0] = [c.size for c in scenario.chan_idx]
    keys[..., 1] = -member.sum(axis=2)
    keys[..., 2] = np.arange(w)
    keys[..., 3:] = member
    keys, inverse = np.unique(keys.reshape(-1, n + 3), axis=0, return_inverse=True)
    occupied = keys[:, 1] < 0
    count = int(occupied.sum())
    # Block of each (profile, AP); an empty AP points at entry ``count``.
    block_of = np.where(occupied, np.cumsum(occupied) - 1, count)[inverse.reshape(-1)]
    block_of = block_of.reshape(profiles, w)
    keys = keys[occupied]
    flags = keys[:, 3:].astype(bool)
    blk, mus = np.nonzero(flags)
    row_id = (np.cumsum(flags) - 1).reshape(flags.shape)
    row_of = row_id[np.take_along_axis(block_of, associations, axis=1), np.arange(n)]
    groups = []
    for width in np.unique(keys[:, 0]).tolist():
        ids = np.flatnonzero(keys[:, 0] == width)
        rows = np.flatnonzero(keys[blk, 0] == width)
        cols = np.stack([scenario.chan_idx[ap] for ap in keys[ids, 2].tolist()])
        pmat = np.repeat((scenario.budget[mus[rows]] / width)[:, None], width, axis=1)
        groups.append(_Group(scenario, cols, blk[rows] - ids[0], mus[rows], pmat, ids, rows))

    total, potential = np.empty(profiles), np.zeros(profiles)
    converged = np.zeros(profiles, dtype=bool)
    block_inf, block_pot = np.zeros(count + 1), np.zeros(count + 1)
    rates = np.empty(mus.size)
    live = np.arange(profiles)
    t = 0
    while True:
        for g in groups:
            block_pot[g.ids], rates[g.rows] = g.evaluate()
            block_inf[g.ids] = np.maximum.reduceat(np.abs(g.residual).max(axis=1), g.starts)
        done = block_inf[block_of[live]].max(axis=1) <= eps_wf
        stop = done | (t >= max_iters)
        end = live[stop]
        converged[end] = done[stop]
        total[end] = rates[row_of[end]].sum(axis=1)
        for ap in range(w):
            potential[end] += block_pot[block_of[end, ap]]
        live = live[~stop]
        if not live.size:
            return total, potential, converged
        needed = np.zeros(count + 1, dtype=bool)
        needed[block_of[live]] = True
        groups = [
            g if needed[g.ids].all() else g.subset(needed[g.ids])
            for g in groups
            if needed[g.ids].any()
        ]
        t += 1
        step(t, groups)


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
