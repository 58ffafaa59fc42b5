"""Fixed-association power equilibrium solvers.

a_iwf averages simultaneous water-fill responses with a stepsize from a
``StepsizeSchedule`` (per AP block under the safeguarded rule); s_iwf applies
exact responses one MU at a time. Both stop when the
best-response residual drops below ``eps_wf`` in inf-norm.

APs own disjoint channel blocks, so a profile's power game is a set of
independent blocks, one per (AP, member set). The solvers run on one padded
layout of stacked rows, whatever the blocks' widths (``partition_channels``
yields at most two): each block member is a row of one (rows, C) matrix, C
the widest block's width, rows ordered by block, then MU index, blocks
largest first. A narrower block's pad channels have gain 1.0, power 0.0 and
noise +inf, so their totals and water-fill floors are +inf, which
``water_fill_batch`` reads as absent channels (power 0.0) without moving a
bit of the real ones. A stack holds one profile's blocks (``a_iwf``,
``s_iwf``, ``evaluate_profile``) or the distinct blocks of many profiles
(``solve_profiles``, where an MU has a row in each of its blocks). An
evaluation makes one ``G*P``, one water-fill call, one residual and one set
of ``log2``s. An s_iwf round runs on ``Z``, the (block, member slot,
channel) scatter of ``G*P``: because blocks come largest first, slot j of
every block with more than j members is the basic slice ``Z[:nb, j]``, and
one water-fill call moves it. Moving the j-th member of every block at once
equals stepping MU by MU, because blocks are independent and a block's
members move in ascending MU order.

Results are bit-identical to solving each profile's AP blocks one by one,
because every sum keeps numpy's per-block order:
- block totals are ``noise + Z.sum(axis=1)``: a sequential member-order sum,
  where the zero rows of pad members add exactly (a lone block's ``Z`` holds
  just its rows, so this is its slice sum). Width-1 blocks are summed block
  by block: numpy sums an (m, 1) column pairwise, and padding would move its
  bits;
- every channel-axis sum runs over each block's own width: block
  potentials, rates, squared residuals and the budget check of a_iwf's
  step. numpy's pairwise row sum regroups when a row's length changes, so a
  sum over the pad columns would move bits;
- a profile's squared residual sums each block's contiguous (members, width)
  slice, and its potential adds the block potentials in AP order, from 0.0
  (an empty AP adds 0.0, which is exact);
- a profile's sum rate sums its N MU rates in MU order (a row sum of a
  (profiles, N) gather has the bits of the 1-D sum);
- a block's safeguarded step reads only that block's own potentials, and
  a per-AP potential of ``evaluate_profile`` is its block's own potential.
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


# The step a safeguarded a_iwf block holds until its potential first falls.
SAFEGUARD_ALPHA = 0.5


@dataclass(frozen=True)
class StepsizeSchedule:
    """Stepsizes of the averaged updates.

    "polynomial":  alpha_t = (t+1)^(-exponent), exponent in (0.5, 1].
    "harmonic":    alpha_t = 1/(t+1).
    "custom":      user-supplied func(t); each value must lie in (0, 1).
    "safeguarded": every averaged step of an (AP, member set) block is the
                   constant SAFEGUARD_ALPHA until the block's potential first
                   falls (strictly, against its previous evaluation), then the
                   polynomial alpha_t on the block's own clock t. The blocks
                   are a_iwf's AP blocks (clock: the solve's iterations),
                   si_jaspa's unchanged blocks (clock: the MU's stay count)
                   and j_jaspa's coalitions (clock: the visit count);
                   ``block_alpha`` picks the step. ``alpha(t)`` is the
                   polynomial value.

    The polynomial and harmonic rules are diminishing (divergent sum, finite
    sum of squares). The polynomial default (exponent 0.55) is used instead of
    the harmonic rule because harmonic steps contract the single-user error
    only like 1/t, which cannot reach the residual tolerances used here in any
    practical iteration budget. A constant step converges only under
    contraction conditions; the safeguarded rule keeps the polynomial rule's
    guarantee because that rule converges from any feasible point, and while a
    block holds the constant step its potential never decreases.
    """

    rule: str = "polynomial"
    exponent: float = 0.55
    func: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if self.rule not in ("polynomial", "harmonic", "custom", "safeguarded"):
            raise ValidationError(f"unknown stepsize rule {self.rule!r}")
        if self.rule in ("polynomial", "safeguarded") and not 0.5 < self.exponent <= 1.0:
            raise ValidationError(f"{self.rule} exponent must lie in (0.5, 1]")
        if self.rule == "custom" and self.func is None:
            raise ValidationError("custom schedule needs a func")

    def alpha(self, t: int) -> float:
        if t < 1:
            raise ValidationError("stepsize index starts at 1")
        if self.rule == "harmonic":
            a = 1.0 / (t + 1)
        elif self.rule == "custom":
            a = float(self.func(t))
        else:
            a = (t + 1.0) ** (-self.exponent)
        if not 0.0 < a < 1.0:
            raise ValidationError(f"stepsize alpha({t})={a} outside (0, 1)")
        return a

    def block_alpha(self, t: int, held):
        """Step t of a block: SAFEGUARD_ALPHA while the block is held under the
        safeguarded rule, else ``alpha(t)``. ``held`` is one flag (a float
        comes back) or an array of flags (an array of steps comes back)."""
        held = np.logical_and(held, self.rule == "safeguarded")
        steps = np.where(held, SAFEGUARD_ALPHA, self.alpha(t))
        return steps if steps.ndim else float(steps)


def check_solver_settings(solver: str, eps_wf: float, max_iters: int) -> None:
    """The rules every inner-solver configuration obeys: a known solver, a
    finite nonnegative tolerance and an iteration cap of at least 1."""
    if solver not in ("a_iwf", "s_iwf"):
        raise ValidationError(f"unknown inner solver {solver!r}")
    if not (np.isfinite(eps_wf) and eps_wf >= 0.0):
        raise ValidationError("eps_wf must be finite and >= 0")
    if max_iters < 1:
        raise ValidationError("iteration caps must be >= 1")


@dataclass
class InnerTrace:
    """Per-iteration records of one inner-loop run (row 0 is the start point).

    alpha[j] is the largest block step applied after evaluating row j (nan on
    the final row and everywhere for s_iwf, which takes exact steps)."""

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
    stepsize-weighted squared-residual sum (finite for a convergent run; under
    per-block steps it weights every block by the largest step, an upper
    bound)."""

    monotone_from: int
    residual_converged: bool
    final_residual_inf: float
    stepsize_weighted_residual: float


class _Blocks:
    """Independent AP blocks of any channel widths in one padded layout.

    A block is the power game of one (AP, member set): the blocks of one
    profile's APs, or the distinct blocks of many profiles, where an MU has a
    row in every block it belongs to. Blocks come largest first, ``aps``
    naming each block's AP; ``block`` and ``mus`` name each row's block and
    MU, rows sorted by block, then MU index. Every block's channels are padded
    out to the widest block's width C: ``pmat`` (rows, C) holds the rows'
    powers, 0.0 on the pads (the caller's array may have more zero columns).
    A pad channel has gain 1.0 and noise +inf, so its total and its floor are
    +inf and its water-fill power is 0.0. ``ids`` and ``rows`` are the
    caller's labels for the blocks and the rows. Per block, ``potential`` is
    the last evaluation's potential and ``held`` stays True until a potential
    falls below the previous one."""

    def __init__(self, scenario, aps, block, mus, pmat, ids, rows):
        widths = [cols.size for cols in scenario.chan_idx]
        table = np.zeros((len(widths), max(widths)), dtype=np.intp)
        for ap, cols in enumerate(scenario.chan_idx):
            table[ap, : cols.size] = cols
        self.scenario, self.aps, self.width = scenario, aps, np.array(widths)[aps]
        self.block, self.mus, self.ids, self.rows = block, mus, ids, rows
        self.widths = np.flatnonzero(np.bincount(self.width)).tolist()  # ascending
        c, narrowest = self.widths[-1], self.widths[0]
        self.mixed = narrowest < c  # blocks of more than one width: pad channels
        cols = table[aps, :c]
        self.pmat = np.ascontiguousarray(pmat[:, :c])
        self.num_channels = scenario.num_channels
        self.sizes = np.bincount(block, minlength=aps.size)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.slot = np.arange(mus.size) - self.starts[block]
        self.gain = scenario.gain_sq[mus[:, None], cols[block]]
        self.noise = scenario.noise[cols]
        if self.mixed:
            pad = np.arange(c) >= self.width[:, None]
            self.gain[pad[block]] = 1.0
            self.noise[pad] = np.inf
        self.log_noise = np.log2(self.noise)
        self.budgets = scenario.budget[mus]
        self.limits = self.budgets + 1e-9
        # Z: the (block, member slot, channel) scatter of G*P, zero-padded.
        self.z = np.zeros((aps.size, self.sizes[0], c))
        # (block, size) of each width-1 block, in block order.
        self.singles = []
        if narrowest == 1:
            self.singles = [(b, int(self.sizes[b])) for b in np.flatnonzero(self.width == 1)]
        self.potential = np.full(aps.size, -np.inf)
        self.held = np.ones(aps.size, dtype=bool)

    @cached_property
    def parts(self) -> list:
        """Per channel width w, narrowest first: (w, its blocks, its rows,
        (block, start, end) of each of its blocks' rows within its rows);
        slices, not index arrays, when every block has width w."""
        out = []
        for w in self.widths:
            blocks = rows = slice(None)
            if self.mixed:
                blocks = np.flatnonzero(self.width == w)
                rows = np.flatnonzero(self.width[self.block] == w)
            sizes = self.sizes[blocks]
            ends = np.cumsum(sizes)
            ids = np.arange(self.width.size)[blocks].tolist()
            bounds = list(zip(ids, (ends - sizes).tolist(), ends.tolist()))
            out.append((w, blocks, rows, bounds))
        return out

    @cached_property
    def slots(self) -> list:
        """Per member slot j, the number of blocks with more than j members:
        the first ones, since blocks come largest first."""
        return [int(np.count_nonzero(self.sizes > j)) for j in range(int(self.sizes[0]))]

    @cached_property
    def padded(self):
        """The rows' gains (1.0 on pads) and budgets in Z's layout, and a
        power array of that layout for s_iwf's round."""
        shape = self.z.shape
        gain = np.ones(shape)
        gain[self.block, self.slot] = self.gain
        budgets = np.zeros(shape[:2])
        budgets[self.block, self.slot] = self.budgets
        return gain, budgets, np.zeros(shape)

    def totals(self, nb=None):
        """Received totals, noise plus every member's ``G*P`` row, of the
        first ``nb`` blocks (default all), one row each, from ``Z``. A
        width-1 block sums its own (members, 1) column: numpy sums a column
        pairwise, so the padded member-order sum would move its bits."""
        tot = self.noise[:nb] + self.z[:nb].sum(axis=1)
        for b, m in self.singles:
            if nb is not None and b >= nb:
                break
            tot[b, :1] = self.noise[b, :1] + self.z[b, :m, :1].sum(axis=0)
        return tot

    def evaluate(self):
        """One synchronous evaluation: per block the potential, per row the
        rate; keeps the residual rows (response minus powers) and the block
        potentials, and releases every held block whose potential fell."""
        k = self.num_channels
        gp = self.gain * self.pmat
        self.z[self.block, self.slot] = gp
        tot = self.totals()
        others = tot[self.block] - gp
        with np.errstate(over="ignore"):  # a vanishing gain's floor is +inf: no channel
            floors = others / self.gain
        phi, _ = water_fill_batch(floors, self.budgets)
        self.residual = phi - self.pmat
        log_tot = np.log2(tot)
        if not self.mixed:  # no pad channels
            potential = (log_tot - self.log_noise).sum(axis=1) / k
            rates = (log_tot[self.block] - np.log2(others)).sum(axis=1) / k
        else:  # channel sums over each block's own width
            potential, rates = np.empty(self.width.size), np.empty(self.mus.size)
            for w, blocks, rows, _ in self.parts:
                own = log_tot[blocks, :w] - self.log_noise[blocks, :w]
                potential[blocks] = own.sum(axis=1) / k
                own = log_tot[self.block[rows], :w] - np.log2(others[rows, :w])
                rates[rows] = own.sum(axis=1) / k
        self.held &= potential >= self.potential
        self.potential = potential
        return potential, rates

    def squared_residuals(self) -> list:
        """Each block's squared residual, summed over its (members, width)
        slice of the last evaluation's residual rows."""
        out = [0.0] * self.width.size
        for w, _, rows, bounds in self.parts:
            r = self.residual[rows, :w]
            s2 = r * r
            for b, lo, hi in bounds:
                out[b] = float(s2[lo:hi].sum())
        return out

    def average(self, alpha, t):
        """a_iwf's step: row r moves ``alpha[r]`` of its last residual.
        Raises RuntimeError if that leaves the feasible set."""
        self.pmat += alpha[:, None] * self.residual
        if not self.mixed:
            within = (self.pmat.sum(axis=1) <= self.limits).all()
        else:  # budget sums over each row's own width
            within = all(
                (self.pmat[rows, :w].sum(axis=1) <= self.limits[rows]).all()
                for w, _, rows, _ in self.parts
            )
        if not ((self.pmat >= 0.0).all() and within):
            raise RuntimeError(f"a_iwf: infeasible powers after step {t}")

    def sweep(self):
        """s_iwf's round: for slot j = 0, 1, ..., the j-th member of every
        block takes its exact water-fill response, in one call on the slice
        ``[:nb, j]`` of the padded layout. A block's members move in ascending
        MU order and blocks are independent, so this equals stepping MU by
        MU."""
        gain, budgets, powers = self.padded
        self.z[self.block, self.slot] = self.gain * self.pmat
        with np.errstate(over="ignore"):  # a vanishing gain's floor is +inf: no channel
            for j, nb in enumerate(self.slots):
                g = gain[:nb, j]
                phi, _ = water_fill_batch((self.totals(nb) - self.z[:nb, j]) / g, budgets[:nb, j])
                powers[:nb, j] = phi
                np.multiply(g, phi, out=self.z[:nb, j])
        self.pmat = powers[self.block, self.slot]

    def subset(self, keep):
        """The blocks where ``keep`` holds, in order, with their rows' powers
        and residuals and their potentials and held flags."""
        rows = keep[self.block]
        block = (np.cumsum(keep) - 1)[self.block[rows]]
        sub = _Blocks(
            self.scenario, self.aps[keep], block, self.mus[rows], self.pmat[rows],
            self.ids[keep], self.rows[rows],
        )
        sub.residual = self.residual[rows, : sub.pmat.shape[1]]
        sub.potential, sub.held = self.potential[keep], self.held[keep]
        return sub


def _average_step(schedule: StepsizeSchedule):
    """a_iwf's iteration t on every block; returns the largest stepsize
    applied. Each block steps ``schedule.block_alpha(t, held)``."""

    def step(t, blocks):
        block_alpha = schedule.block_alpha(t, blocks.held)
        blocks.average(block_alpha[blocks.block], t)
        return max(block_alpha.tolist())

    return step


def _sweep_step(t, blocks):
    """s_iwf's round on every block; an exact step has no stepsize (nan)."""
    blocks.sweep()
    return math.nan


class _Stack:
    """Stacked-row state of one association profile: its nonempty AP blocks,
    largest first (then by AP), in one _Blocks."""

    def __init__(self, scenario, association, powers):
        self.num_mus, self.num_aps = scenario.num_mus, scenario.num_aps
        found = []
        for ap in range(scenario.num_aps):
            members = np.flatnonzero(association == ap)
            if members.size:
                found.append((-members.size, ap, members))
        _, aps, members = zip(*sorted(found, key=lambda b: b[:2]))
        aps, mus = np.array(aps), np.concatenate(members)
        block = np.repeat(np.arange(aps.size), [m.size for m in members])
        pmat = np.zeros((mus.size, max(len(powers[i]) for i in mus.tolist())))
        for r, i in enumerate(mus.tolist()):
            pmat[r, : len(powers[i])] = powers[i]
        self.blocks = _Blocks(scenario, aps, block, mus, pmat, aps, mus)

    def evaluate(self):
        """One synchronous evaluation: residual inf- and 2-norms, potential,
        per-MU rates and per-AP potentials (0.0 at an empty AP)."""
        b = self.blocks
        block_pot, row_rates = b.evaluate()
        rates = np.empty(self.num_mus)
        rates[b.mus] = row_rates
        res_inf = float(np.abs(b.residual).max())  # NaN stays NaN: never converged
        sq = potential = 0.0
        ap_potential = np.zeros(self.num_aps)
        blocks = sorted(zip(b.ids.tolist(), b.squared_residuals(), block_pot.tolist()))
        for ap, sq_b, pot_b in blocks:
            sq += sq_b
            potential += pot_b
            ap_potential[ap] = pot_b
        return res_inf, math.sqrt(sq), potential, rates, ap_potential

    def powers(self) -> list:
        """Each MU's power vector over its own block's channels, in MU order."""
        b = self.blocks
        width = b.width[b.block]
        return [b.pmat[r, : width[r]].copy() for r in np.argsort(b.mus).tolist()]


def evaluate_profile(scenario, association, powers):
    """Batch metrics of one profile: (residual inf-norm, residual 2-norm,
    system potential, sum rate, per-MU rates, per-AP potentials). The system
    potential adds the per-AP potentials in AP order."""
    association = np.asarray(association, dtype=np.intp)
    res_inf, res_two, potential, rates, ap_potential = _Stack(
        scenario, association, powers
    ).evaluate()
    return res_inf, res_two, potential, float(rates.sum()), rates, ap_potential


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
    else call ``step(t, blocks)``, which updates the powers and returns the
    stepsize it applied (nan for exact steps)."""
    rows = []
    converged = False
    t = 0
    while True:
        res_inf, res_two, potential, rates, _ = stack.evaluate()
        rows.append([potential, float(rates.sum()), res_inf, res_two, math.nan])
        if res_inf <= eps_wf:
            converged = True
            break
        if t >= max_iters:
            break
        t += 1
        rows[-1][4] = step(t, stack.blocks)
    trace = InnerTrace(*(np.asarray(col) for col in zip(*rows)))
    return InnerLoopResult(stack.powers(), t, converged, trace)


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
    check_solver_settings("a_iwf", eps_wf, max_iters)
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
    check_solver_settings("s_iwf", eps_wf, max_iters)
    stack = _prepare(scenario, association, initial_powers)
    return _iterate(stack, eps_wf, max_iters, _sweep_step)


def _distinct_blocks(scenario, associations: np.ndarray):
    """The distinct (AP, member set) blocks of the rows of ``associations``,
    as (width, -size, AP, member flags) int32 rows in ascending lexicographic
    order, and the index of every (profile, AP)'s block, profile-major; an
    empty AP is a block of size 0. Equal to ``np.unique`` of all the rows with
    ``axis=0``, which sorts rows far more slowly than a 1-D ``np.unique`` of
    the rows' packed (AP one-hot, member flags) bits."""
    profiles, n = associations.shape
    w = scenario.num_aps
    member = (associations[:, None, :] == np.arange(w)[:, None]).reshape(-1, n)
    one_hot = np.tile(np.eye(w, dtype=bool), (profiles, 1))
    packed = np.packbits(np.concatenate([one_hot, member], axis=1), axis=1)
    packed = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    ap, flags = first % w, member[first]
    size = flags.sum(axis=1)
    width = np.array([c.size for c in scenario.chan_idx])[ap]
    order = np.lexsort(np.vstack([flags.T[::-1], ap, -size, width]))
    keys = np.column_stack([width, -size, ap, flags])[order].astype(np.int32)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return keys, rank[inverse.reshape(-1)]


def solve_profiles(
    scenario,
    associations: np.ndarray,
    solver: str = "s_iwf",
    eps_wf: float = 1e-8,
    max_iters: int = 100_000,
    schedule: Optional[StepsizeSchedule] = None,
):
    """Final sum rate, potential and converged flag of ``solver`` (a_iwf or
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
    check_solver_settings(solver, eps_wf, max_iters)
    step = _average_step(schedule or StepsizeSchedule()) if solver == "a_iwf" else _sweep_step
    profiles, n = associations.shape
    w = scenario.num_aps
    keys, inverse = _distinct_blocks(scenario, associations)
    occupied = keys[:, 1] < 0
    count = int(occupied.sum())
    # Block of each (profile, AP); an empty AP points at entry ``count``.
    block_of = np.where(occupied, np.cumsum(occupied) - 1, count)[inverse]
    block_of = block_of.reshape(profiles, w)
    # Layout order: largest block first, then the keys' order.
    order = np.argsort(keys[occupied, 1], kind="stable")
    rank = np.empty(count + 1, dtype=np.intp)
    rank[order], rank[count] = np.arange(count), count
    block_of = rank[block_of]
    keys = keys[occupied][order]
    flags = keys[:, 3:].astype(bool)
    blk, mus = np.nonzero(flags)
    row_id = (np.cumsum(flags) - 1).reshape(flags.shape)
    row_of = row_id[np.take_along_axis(block_of, associations, axis=1), np.arange(n)]
    width = keys[blk, 0]
    real = np.arange(width.max()) < width[:, None]
    pmat = np.where(real, (scenario.budget[mus] / width)[:, None], 0.0)
    blocks = _Blocks(scenario, keys[:, 2], blk, mus, pmat, np.arange(count), np.arange(mus.size))

    total, potential = np.empty(profiles), np.zeros(profiles)
    converged = np.zeros(profiles, dtype=bool)
    block_inf, block_pot = np.zeros(count + 1), np.zeros(count + 1)
    rates = np.empty(mus.size)
    live = np.arange(profiles)
    t = 0
    while True:
        block_pot[blocks.ids], rates[blocks.rows] = blocks.evaluate()
        row_inf = np.abs(blocks.residual).max(axis=1)
        block_inf[blocks.ids] = np.maximum.reduceat(row_inf, blocks.starts)
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
        if not needed[blocks.ids].all():
            blocks = blocks.subset(needed[blocks.ids])
        t += 1
        step(t, blocks)


def convergence_diagnostics(
    trace: InnerTrace, eps: float = 1e-8, monotone_tol: float = 1e-12
) -> InnerDiagnostics:
    """Summarize a trace: first index after which the potential is
    non-decreasing (within ``monotone_tol``), whether the final residual meets
    ``eps``, and sum over iterations of alpha * ||residual||_2^2, where alpha
    is the largest block step the trace records (under per-block steps, an
    upper bound of the per-block weighted sum)."""
    p = trace.potential
    drops = np.flatnonzero(np.diff(p) < -monotone_tol)
    monotone_from = int(drops[-1] + 1) if drops.size else 0
    finite = np.isfinite(trace.alpha)
    weighted = float(np.sum(trace.alpha[finite] * trace.residual_two[finite] ** 2))
    final = float(trace.residual_inf[-1])
    return InnerDiagnostics(monotone_from, final <= eps, final, weighted)
