"""Fixed-association power equilibrium solvers.

a_iwf averages simultaneous water-fill responses with a stepsize from a
``StepsizeSchedule`` (per AP block under the safeguarded rule), optionally
Anderson-accelerated per AP block; s_iwf applies exact responses one MU at a
time. Both stop when the best-response residual drops below ``eps_wf`` in
inf-norm.

APs own disjoint channel blocks, so a profile's power game is a set of
independent blocks, one per (AP, member set). The solvers run on one padded
layout of stacked rows, whatever the blocks' widths (``partition_channels``
yields at most two). Blocks come in as (AP, member flags), largest first, and
each block member is a row of one (rows, C) matrix, C the widest block's
width, rows ordered by block, then MU index. A narrower block's pad channels
have gain 1.0, power 0.0 and noise +inf, so their totals and water-fill
floors are +inf, which ``water_fill_batch`` reads as absent channels (power
0.0) without moving a bit of the real ones. The solvers pass it the rows'
gains and noise plus interference; it forms the floors, so an MU whose every
gain at its AP vanishes has no finite floor and gets power 0.0. One
``_Blocks`` holds one profile's blocks, in the ``ProfileLayout`` that
``a_iwf``, ``s_iwf`` and ``evaluate_profile`` load, or the distinct blocks of
many profiles (``solve_profiles``, where an MU has a row in each of its
blocks). The two solvers differ only in their step, the ``_Blocks`` method
``average`` (``accelerate`` when accelerated) or ``sweep``. An s_iwf round
runs on ``Z``, the (member slot, block, channel) scatter of ``G*P``: because
blocks come largest first, slot j of every block with more than j members is
the contiguous slice ``Z[j, :nb]``, and one water-fill call moves it. Moving
the j-th member of every block at once equals stepping MU by MU, because
blocks are independent and a block's members move in ascending MU order.

An evaluation computes only what a step and the stop test read: one ``G*P``,
scattered into ``Z`` through one flat row index (whose slot sum, less each
row, is also a profile's (N, K) interference matrix, on demand), the totals
and the noise plus interference, one water-fill call, the residual, the
``log2`` of the totals and the block potentials (which the safeguarded rule
reads). The
trace columns no step reads, per-MU rates and the sum rate, per-block
squared residuals and their 2-norm, and the potential summed over the
blocks, are functions of the kept log totals, noise plus interference,
residual rows and block potentials, of one evaluation or of F buffered
ones (a leading axis F). a_iwf and s_iwf write their evaluations into a
buffer of at most ``_TRACE_CELLS`` cells and turn each full buffer into
trace rows in one batched pass; ``evaluate_profile`` calls the same
functions on one evaluation's arrays.

Results are bit-identical to solving each profile's AP blocks one by one,
because every sum keeps numpy's per-block order:
- block totals are ``noise + Z[:, :nb].sum(axis=0)``: numpy adds the slots'
  contiguous (nb, C) slabs elementwise in slot order, so a block's total is
  its members' rows added one by one in member order (the adds a (block,
  slot) ``Z`` makes over its middle axis), where the zero rows of pad
  members add exactly (a lone block's ``Z`` holds just its rows, so this is
  its slice sum). Width-1 blocks are summed block by block: numpy sums an
  (m, 1) column pairwise, and padding would move its bits;
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

Batching the trace columns over F buffered evaluations moves no bit either,
because each batched sum is the sum it replaces:
- a last-axis reduce of an (F, rows, w) array sums each row pairwise, as the
  (rows, w) reduce of one evaluation does: every rate is the same sum;
- a block's squared residual is the (F, m*w) view of its contiguous (m, w)
  slice, reduced on the last axis: per evaluation the flat pairwise sum of
  the same m*w squares;
- the sum rate is a row sum of an (F, N) array, the 1-D sum of each row;
- adding the blocks' (F,) columns in AP order, from 0.0, makes the same
  IEEE additions as a float loop over one evaluation's blocks, and
  ``np.sqrt`` rounds as ``math.sqrt`` does (both are correctly rounded).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import ValidationError, check_count, check_real, check_tolerance
from .game import uniform_powers, validate_association, validate_powers
from .waterfill import water_fill_batch


# The step a safeguarded a_iwf block holds until its potential first falls.
SAFEGUARD_ALPHA = 0.5
# The step differences each block of an accelerated a_iwf solve extrapolates
# from.
ANDERSON_MEMORY = 5
# An accelerated step's ridge, relative to the trace of a block's Gram matrix.
_ANDERSON_RIDGE = 1e-10
_TINY = np.finfo(float).tiny  # keeps an all-zero Gram system solvable


@dataclass(frozen=True)
class StepsizeSchedule:
    """Stepsizes of the averaged updates.

    "polynomial":  alpha_t = (t+1)^(-exponent), exponent in (0.5, 1].
    "harmonic":    alpha_t = 1/(t+1).
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

    def __post_init__(self):
        if self.rule not in ("polynomial", "harmonic", "safeguarded"):
            raise ValidationError(f"unknown stepsize rule {self.rule!r}")
        check_real("exponent", self.exponent)
        if self.rule in ("polynomial", "safeguarded") and not 0.5 < self.exponent <= 1.0:
            raise ValidationError(f"{self.rule} exponent must lie in (0.5, 1]")

    def alpha(self, t: int) -> float:
        """Step t >= 1: polynomial steps lie in (0, 2^-0.5], harmonic ones in (0, 1/2]."""
        if t < 1:
            raise ValidationError("stepsize index starts at 1")
        if self.rule == "harmonic":
            return 1.0 / (t + 1)
        return (t + 1.0) ** (-self.exponent)

    def block_alpha(self, t: int, held):
        """Step t of a block: SAFEGUARD_ALPHA while the block is held under the
        safeguarded rule, else ``alpha(t)``. ``held`` is one flag (a float
        comes back) or an array of flags (an array of steps comes back)."""
        alpha = self.alpha(t)
        hold = SAFEGUARD_ALPHA if self.rule == "safeguarded" else alpha
        if isinstance(held, np.ndarray):
            return np.where(held, hold, alpha)
        return hold if held else alpha


def keeps_hold(previous, potential):
    """The safeguarded release test on floats or arrays: a block holds while its
    potential is at least the previous one; a fall or a NaN releases it."""
    return potential >= previous


def check_solver_settings(solver: str, eps_wf, max_iters, schedule=None, name="max_iters"):
    """The rules every inner-solver configuration obeys: a known solver, a
    finite nonnegative tolerance, an iteration cap ``name`` of at least 1 and
    a ``StepsizeSchedule`` (or None, for the default). The tolerance and the
    cap come back as a Python float and int."""
    if solver not in ("a_iwf", "s_iwf"):
        raise ValidationError(f"unknown inner solver {solver!r}")
    eps_wf = check_tolerance("eps_wf", eps_wf)
    max_iters = check_count(name, max_iters)
    if schedule is not None and not isinstance(schedule, StepsizeSchedule):
        raise ValidationError(f"schedule must be a StepsizeSchedule, got {schedule!r}")
    return eps_wf, max_iters


@dataclass
class InnerTrace:
    """Per-iteration records of one inner-loop run (row 0 is the start point).

    alpha[j] is the largest block step applied after evaluating row j (nan on
    the final row and everywhere for s_iwf, which takes exact steps). After
    an accelerated a_iwf step it is the largest of the blocks' betas, the
    step ``average`` would take, whether or not a block kept its
    extrapolation."""

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
    bound for plain a_iwf; an accelerated trace records nominal steps, and
    an accepted extrapolation may move further, so there the sum is nominal
    and no bound)."""

    monotone_from: int
    residual_converged: bool
    final_residual_inf: float
    stepsize_weighted_residual: float


class _Blocks:
    """Independent AP blocks of any channel widths in one padded layout.

    A block is the power game of one (AP, member set): the blocks of one
    profile's APs, or the distinct blocks of many profiles, where an MU has a
    row in every block it belongs to. Blocks come largest first, as ``aps``
    and (blocks, N) ``members`` flags; ``block`` and ``mus`` name each row's
    block and MU, rows sorted by block, then MU index. Every block's channels
    are padded out to the widest block's width C: ``pmat`` (rows, C) holds the
    rows' powers (zeros unless given; a given array may have more zero
    columns), 0.0 on the pads, and ``real`` flags each row's own channels. A
    pad channel has gain 1.0 and noise +inf, so its total and its floor are
    +inf and its water-fill power is 0.0; with one width there are no pads.
    Every channel sum runs over each block's own width, per width in
    ``parts``. ``ids`` and ``rows`` label the blocks and the rows for the
    caller (default: their positions). Per block, ``potential`` is the last
    evaluation's potential and ``held`` stays True until a potential falls
    below the previous one; ``history`` is an accelerated solve's memory."""

    def __init__(self, scenario, aps, members, ids=None, rows=None, pmat=None):
        block, mus = members.nonzero()
        self.scenario, self.aps, self.width = scenario, aps, scenario.chan_width[aps]
        self.members, self.block, self.mus = members, block, mus
        self.ids = np.arange(aps.size) if ids is None else ids
        self.rows = np.arange(mus.size) if rows is None else rows
        self.widths = sorted(set(self.width.tolist()))
        self.one_width = len(self.widths) == 1
        c = self.widths[-1]
        self.num_channels = k = scenario.num_channels
        self.cols = scenario.chan_table[aps, :c]  # each block's channels; a pad reads 0
        self.pmat = np.zeros((mus.size, c)) if pmat is None else np.ascontiguousarray(pmat[:, :c])
        self.sizes = np.bincount(block, minlength=aps.size)
        self.starts = self.sizes.cumsum() - self.sizes
        self.slot = np.arange(mus.size) - self.starts[block]
        self.cell = mus[:, None] * k + self.cols[block]  # each row's cells in an (N, K) matrix
        self.gain = scenario.gain_sq.take(self.cell)
        self.noise = scenario.noise[self.cols]
        self.real = np.ones(self.pmat.shape, dtype=bool)  # each row's own channels
        if not self.one_width:
            pad = np.arange(c) >= self.width[:, None]
            self.real = ~pad[block]
            self.gain[pad[block]] = 1.0
            self.noise[pad] = np.inf
        self.log_noise = np.log2(self.noise)
        self.budgets = scenario.budget[mus]
        self.limits = self.budgets + 1e-9
        # Z: the (member slot, block, channel) scatter of G*P, zero-padded;
        # ``flat`` is each row's row of Z viewed as (slots * blocks, C).
        self.z = np.zeros((self.sizes[0], aps.size, c))
        self.z_rows = self.z.reshape(-1, c)
        self.flat = self.slot * aps.size + block
        # (block, size) of each width-1 block, in block order.
        self.singles = []
        if self.widths[0] == 1:
            self.singles = [(b, int(self.sizes[b])) for b in np.flatnonzero(self.width == 1)]
        self.potential = np.empty(aps.size)
        self.potential.fill(-np.inf)
        self.held = np.ones(aps.size, dtype=bool)
        # Scratch for G*P or a step (rows, C), and the block totals (blocks, C).
        self.gp, self.tot = np.empty(self.pmat.shape), np.empty(self.noise.shape)

    @cached_property
    def parts(self) -> list:
        """Per channel width w, narrowest first: (w, its blocks, its rows,
        (block, start, end) of each of its blocks' rows within its rows);
        slices, not index arrays, when every block has width w."""
        out = []
        for w in self.widths:
            blocks = rows = slice(None)
            if not self.one_width:
                blocks = np.flatnonzero(self.width == w)
                rows = np.flatnonzero(self.width[self.block] == w)
            sizes = self.sizes[blocks].tolist()
            ids = range(len(sizes)) if self.one_width else blocks.tolist()
            ends = accumulate(sizes)
            out.append((w, blocks, rows, [(b, e - m, e) for b, m, e in zip(ids, sizes, ends)]))
        return out

    @cached_property
    def slots(self) -> list:
        """Per member slot j, the number of blocks with more than j members:
        the first ones, since blocks come largest first."""
        return [int(np.count_nonzero(self.sizes > j)) for j in range(int(self.sizes[0]))]

    @cached_property
    def cells(self):
        """Where the blocks and the rows go in an (N, K) matrix: the channel
        of each (block, column), K on a pad; each row's own cells' flat (N*K)
        index, and where those cells lie in the rows (all of them with one
        width)."""
        if self.one_width:
            return self.cols, self.cell, slice(None)
        channel = np.where(self.real[self.starts], self.cols, self.num_channels)
        return channel, self.cell[self.real], self.real

    @cached_property
    def padded(self):
        """The rows' gains (1.0 on pads) and budgets in Z's layout, and a
        power array of that layout for s_iwf's round."""
        shape = self.z.shape
        gain = np.ones(shape)
        gain[self.slot, self.block] = self.gain
        budgets = np.zeros(shape[:2])
        budgets[self.slot, self.block] = self.budgets
        return gain, budgets, np.zeros(shape)

    def totals(self, nb=None):
        """Received totals, noise plus every member's ``G*P`` row, of the
        first ``nb`` blocks (default all), one row each, from ``Z``, in ``tot``.
        A width-1 block sums its own (members, 1) column: numpy sums a column
        pairwise, so the padded member-order sum would move its bits."""
        tot = np.add.reduce(self.z[:, :nb], axis=0, out=self.tot[:nb])
        tot += self.noise[:nb]
        for b, m in self.singles:
            if nb is not None and b >= nb:
                break
            tot[b, :1] = self.noise[b, :1] + np.add.reduce(self.z[:m, b, :1], axis=0)
        return tot

    def evaluate(self, out=None):
        """One synchronous evaluation of what a step and the stop test read.
        Keeps the log totals ``log_tot`` (blocks, C), the noise plus
        interference ``others`` and the residual rows ``residual`` (rows, C;
        response minus powers), written into the three arrays of ``out`` if
        given, and the block potentials; releases every held block whose
        potential fell."""
        log_tot, others, residual = out or (None, None, None)
        gp = np.multiply(self.gain, self.pmat, out=self.gp)
        self.z_rows[self.flat] = gp
        tot = self.totals()
        self.others = tot.take(self.block, axis=0, out=others)
        self.others -= gp
        phi, _ = water_fill_batch(self.gain, self.others, self.budgets)
        self.residual = np.subtract(phi, self.pmat, out=residual)
        self.log_tot = np.log2(tot, out=log_tot)
        potential = self.block_potentials(self.log_tot)
        self.held &= keeps_hold(self.potential, potential)
        self.potential = potential

    def potentials_at(self, powers):
        """The block potentials at ``powers`` (rows, C). Spends the scratch
        ``gp``, ``Z`` and ``tot``."""
        self.z_rows[self.flat] = np.multiply(self.gain, powers, out=self.gp)
        tot = self.totals()
        return self.block_potentials(np.log2(tot, out=tot))

    def block_potentials(self, log_tot):
        """Each block's potential from its log totals (blocks, C), summed over
        its own width. Spends the totals scratch ``tot``."""
        if self.one_width:  # no pads
            potential = np.add.reduce(np.subtract(log_tot, self.log_noise, out=self.tot), axis=1)
            potential /= self.num_channels
            return potential
        potential = np.empty(self.width.size)
        for w, blocks, _, _ in self.parts:  # over each block's own width
            own = log_tot[blocks, :w] - self.log_noise[blocks, :w]
            potential[blocks] = np.add.reduce(own, axis=1) / self.num_channels
        return potential

    # The trace-only columns. Each takes the arrays of one evaluation or of
    # F buffered ones (a leading axis F) and sums every row, block and
    # channel width as one evaluation would.

    def rates(self, log_tot, others):
        """Per-row rates (..., rows) from the log totals (..., blocks, C) and
        the noise plus interference (..., rows, C)."""
        rates = np.empty(others.shape[:-1])
        for w, _, rows, _ in self.parts:
            own = log_tot[..., self.block[rows], :w] - np.log2(others[..., rows, :w])
            rates[..., rows] = own.sum(axis=-1) / self.num_channels
        return rates

    def squared_residuals(self, residual):
        """Each block's squared residual (..., blocks), the sum of its
        contiguous (members, width) slice of the residual rows (..., rows, C)
        as one flat run."""
        lead = residual.shape[:-2]
        out = np.empty(lead + self.width.shape)
        for w, _, rows, bounds in self.parts:
            r = residual[..., rows, :w]
            s2 = r * r
            for b, lo, hi in bounds:
                out[..., b] = s2[..., lo:hi, :].reshape(lead + (-1,)).sum(axis=-1)
        return out

    def average(self, t, schedule):
        """a_iwf's step: every row moves ``schedule.block_alpha(t, held)`` of
        its block of its last residual. Raises RuntimeError if that leaves the
        feasible set."""
        block_alpha = schedule.block_alpha(t, self.held)
        self.pmat += np.multiply(block_alpha[self.block][:, None], self.residual, out=self.gp)
        self.check_feasible(t)
        return max(block_alpha.tolist())

    def accelerate(self, t, schedule):
        """Accelerated a_iwf's step: per block, type-II Anderson acceleration
        (Walker and Ni, SIAM J. Numer. Anal. 2011) of ``average``'s step
        P + F, where F = beta R, beta is the block's
        ``schedule.block_alpha(t, held)`` and R its residual rows.

        Each block keeps its last ANDERSON_MEMORY differences dP and dF of
        consecutive powers and steps. Its gamma minimizes |F - dF gamma|
        (ridge: _ANDERSON_RIDGE times the Gram trace; one batched solve for
        all blocks), and its candidate P + F - (dP + dF) gamma is projected
        onto the feasible set: negative powers become 0, and a row over its
        budget is scaled down to it.

        A block keeps its candidate only if its potential there is above its
        potential at P and at least its potential at P + F; otherwise it
        takes P + F, and its memory restarts. So an accepted step raises the
        block potential by at least what the safeguarded step would, and a
        rejected step is the safeguarded step, which the StepsizeSchedule
        argument covers (the safeguard of Zhang, O'Donoghue and Boyd, SIAM
        J. Optim. 2020, with the potential as the merit function). Near
        ``eps_wf``, where potential differences fall below rounding, no
        candidate rises and the solve is plain a_iwf. Weaker tests stall,
        accepting over and over extrapolations that barely move: a fall of
        up to 1e-12 (a_iwf at (200,10,256), seed 1, from closest_ap: 100,000
        iterations at residual 1e-5, against 1,218 plain), or a tie with
        P + F (seed 0). Returns the largest beta, as ``average`` does."""
        m = ANDERSON_MEMORY
        dp, df = self.history
        beta = schedule.block_alpha(t, self.held)
        p = self.pmat
        f = np.multiply(beta[self.block][:, None], self.residual, out=self.gp)
        if t > 1:  # F's change over the last step, whose dP is in this slot
            np.subtract(f, df[:, m], out=df[:, t % m])
        df[:, m] = f
        # Per block, the Gram matrix of its dF columns and F, in one system.
        gram = np.add.reduceat(np.matmul(df, df.transpose(0, 2, 1)), self.starts, axis=0)
        lhs, diag = gram[:, :m, :m], np.arange(m)
        d = lhs[:, diag, diag]
        lhs[:, diag, diag] = d + (_ANDERSON_RIDGE * d.sum(axis=1) + _TINY)[:, None]
        gamma = np.linalg.solve(lhs, gram[:, :m, m:])[self.block].transpose(0, 2, 1)
        safe = p + f
        candidate = safe - np.matmul(gamma, dp + df[:, :m])[:, 0]
        np.maximum(candidate, 0.0, out=candidate)
        candidate *= (self.budgets / np.maximum(candidate.sum(axis=1), self.budgets))[:, None]
        reached = self.potentials_at(candidate)
        accept = (reached > self.potential) & (reached >= self.potentials_at(safe))
        if not accept.all():
            restart = ~accept[self.block]
            candidate[restart] = safe[restart]
            dp[restart] = 0.0
            df[restart, :m] = 0.0
        np.subtract(candidate, p, out=dp[:, (t + 1) % m])
        self.pmat = candidate
        self.check_feasible(t)
        return max(beta.tolist())

    @cached_property
    def history(self):
        """Accelerated a_iwf's memory, zeros until written: per row, the last
        ANDERSON_MEMORY power differences (rows, m, C), and the step
        differences followed by the last step (rows, m + 1, C)."""
        rows, c = self.pmat.shape
        return np.zeros((rows, ANDERSON_MEMORY, c)), np.zeros((rows, ANDERSON_MEMORY + 1, c))

    def check_feasible(self, t):
        """Raise RuntimeError unless every power is nonnegative and every row
        within its budget plus 1e-9, summed over the row's own width."""
        if self.one_width:
            within = (np.add.reduce(self.pmat, axis=1) <= self.limits).all()
        else:  # budget sums over each row's own width
            within = all((np.add.reduce(self.pmat[rows, :w], axis=1) <= self.limits[rows]).all()
                         for w, _, rows, _ in self.parts)
        if not (within and np.minimum.reduce(self.pmat, axis=None) >= 0.0):
            raise RuntimeError(f"a_iwf: infeasible powers after step {t}")

    def sweep(self, t, schedule):
        """s_iwf's round: for slot j = 0, 1, ..., the j-th member of every
        block takes its exact water-fill response, in one call on the slice
        ``[:nb, j]`` of the padded layout. A block's members move in ascending
        MU order and blocks are independent, so this equals stepping MU by
        MU. An exact step has no stepsize: returns nan."""
        gain, budgets, powers = self.padded
        self.z_rows[self.flat] = np.multiply(self.gain, self.pmat, out=self.gp)
        for j, nb in enumerate(self.slots):
            g, z = gain[j, :nb], self.z[j, :nb]
            others = self.totals(nb)
            others -= z
            phi, _ = water_fill_batch(g, others, budgets[j, :nb])
            powers[j, :nb] = phi
            np.multiply(g, phi, out=z)
        self.pmat = powers[self.slot, self.block]
        return math.nan

    def subset(self, keep):
        """The blocks where ``keep`` holds, in order, with their rows' powers
        and residuals and their potentials and held flags."""
        rows = keep[self.block]
        sub = _Blocks(self.scenario, self.aps[keep], self.members[keep], self.ids[keep],
                      self.rows[rows], self.pmat[rows])
        sub.residual = self.residual[rows, : sub.pmat.shape[1]]
        sub.potential, sub.held = self.potential[keep], self.held[keep]
        return sub


class ProfileLayout:
    """The state of one association profile: its nonempty AP blocks, largest
    first (then by AP), in one ``_Blocks``. A run keeps one layout, and
    ``load`` rebuilds the blocks only when the association changes."""

    association = blocks = None

    def load(self, scenario, association, powers) -> "ProfileLayout":
        """Load every MU's power vector into its row, first building the
        blocks if ``association`` is not the one last loaded."""
        if self.blocks is None or not np.array_equal(association, self.association):
            self.association = association.copy()
            sizes = np.bincount(association, minlength=scenario.num_aps)
            aps = np.argsort(-sizes, kind="stable")[: np.count_nonzero(sizes)]  # largest first
            self.blocks = _Blocks(scenario, aps, association == aps[:, None])
            self.ap_order = np.argsort(aps)  # the blocks in AP order
        b = self.blocks
        b.pmat[b.real] = np.concatenate([powers[i] for i in b.mus.tolist()])
        return self

    def metrics(self, log_tot, others, residual, potential):
        """(potential, sum rate, residual 2-norm, per-MU rates) of one
        evaluation or of F (a leading axis F), from ``_Blocks.evaluate``'s
        arrays and the block potentials (..., blocks). Blocks add in AP order
        from 0.0, and the N MU rates in MU order."""
        b = self.blocks
        rates = np.empty(others.shape[:-2] + self.association.shape)
        rates[..., b.mus] = b.rates(log_tot, others)
        res_two = np.sqrt(self.ap_sum(b.squared_residuals(residual)))
        return self.ap_sum(potential), rates.sum(axis=-1), res_two, rates

    def ap_sum(self, values):
        """Values (blocks,) of one evaluation, or (F, blocks) of F, added
        block by block in AP order from 0.0."""
        return reduce(operator.add, values.T[self.ap_order], 0.0)

    def interference(self) -> np.ndarray:
        """The (N, K) interference of the profile last evaluated, bit for bit
        ``profile_table(..., rates=False)[1]``: on AP w's columns, w's block
        total without the noise, less the row's own ``G*P`` (a non-member's
        row keeps the total; an empty AP's columns are 0.0). A total is
        ``Z``'s slot sum, the members' rows added in member order, as
        ``profile_table`` adds its (N, K) rows, except for one lone column (a
        profile whose only block has width 1): numpy reduces a (slots, 1, 1)
        ``Z`` pairwise, so that sum runs in order here."""
        b = self.blocks
        n, k = self.association.size, b.num_channels
        channel, flat, own = b.cells
        z = b.z
        received = np.add.reduce(z, axis=0) if z[0].size > 1 else np.cumsum(z, axis=0)[-1]
        total = np.zeros(k + 1)
        total[channel] = received
        out = np.empty((n, k))
        out[:] = total[:k]
        out.reshape(-1)[flat] -= b.gp[own]
        return out

    def powers(self) -> list:
        """Each MU's power vector over its own block's channels, in MU order."""
        b = self.blocks
        width = b.width[b.block]
        return [b.pmat[r, : width[r]].copy() for r in np.argsort(b.mus).tolist()]


def evaluate_profile(scenario, association, powers, layout: Optional[ProfileLayout] = None):
    """Batch metrics of one profile: (residual inf-norm, residual 2-norm,
    system potential, sum rate, per-MU rates, per-AP potentials, 0.0 at an
    empty AP). The system potential adds the per-AP potentials in AP
    order. A ``layout`` reuses the blocks of its last association."""
    association = np.asarray(association, dtype=np.intp)
    layout = (layout or ProfileLayout()).load(scenario, association, powers)
    b = layout.blocks
    b.evaluate()
    potential, total, res_two, rates = layout.metrics(b.log_tot, b.others, b.residual, b.potential)
    ap_potential = np.zeros(scenario.num_aps)
    ap_potential[b.aps] = b.potential
    res_inf = float(np.abs(b.residual).max())
    return res_inf, float(res_two), float(potential), float(total), rates, ap_potential


# Cells of buffered evaluations (log totals, noise plus interference, residual
# rows and block potentials) that _iterate holds before it computes their
# trace columns in one batched pass.
_TRACE_CELLS = 2**15


def _iterate(scenario, association, initial_powers, eps_wf: float, max_iters: int, step,
             schedule=None) -> InnerLoopResult:
    """Run a solver from ``initial_powers`` (default uniform): evaluate and
    test the residual; stop at ``eps_wf`` or ``max_iters``, else take the
    ``_Blocks`` step ``step(blocks, t, schedule)``, which returns the stepsize
    it applied. Evaluations go into a buffer of at most _TRACE_CELLS cells
    (one evaluation at least); each full buffer, and the last, becomes trace
    rows in one ``ProfileLayout.metrics`` pass."""
    association = validate_association(scenario, association)
    if initial_powers is None:
        initial_powers = uniform_powers(scenario, association)
    else:
        validate_powers(scenario, association, initial_powers)
    layout = ProfileLayout().load(scenario, association, initial_powers)
    b = layout.blocks
    (rows, c), nb = b.pmat.shape, b.aps.size
    room = max(1, min(_TRACE_CELLS // (2 * rows * c + nb * c + nb), max_iters + 1))
    log_tot, others, residual = (np.empty((room, n, c)) for n in (nb, rows, rows))
    potential = np.empty((room, nb))
    chunks, res_inf, alpha = [], [], []

    def flush(f):
        chunks.append(layout.metrics(log_tot[:f], others[:f], residual[:f], potential[:f])[:3])

    converged = False
    t = f = 0
    while True:
        if f == room:
            flush(f)
            f = 0
        b.evaluate((log_tot[f], others[f], residual[f]))
        potential[f] = b.potential
        f += 1
        res_inf.append(float(np.abs(b.residual).max()))  # NaN stays NaN: never converged
        alpha.append(math.nan)
        if res_inf[-1] <= eps_wf:
            converged = True
            break
        if t >= max_iters:
            break
        t += 1
        alpha[-1] = step(b, t, schedule)
    flush(f)
    pot, total, res_two = (np.concatenate(col) for col in zip(*chunks))
    trace = InnerTrace(pot, total, np.array(res_inf), res_two, np.array(alpha))
    return InnerLoopResult(layout.powers(), t, converged, trace)


def a_iwf(
    scenario,
    association,
    schedule: Optional[StepsizeSchedule] = None,
    eps_wf: float = 1e-8,
    max_iters: int = 100_000,
    initial_powers=None,
    accelerate: bool = False,
) -> InnerLoopResult:
    """Averaged iterative water-filling: every MU moves a fraction alpha_t of
    the way to its water-fill response, simultaneously, each iteration. With
    ``accelerate`` each AP block extrapolates that step from its last
    ANDERSON_MEMORY steps and keeps the extrapolation only where it raises
    the block potential at least as much as the plain step
    (``_Blocks.accelerate``).

    Raises RuntimeError if a step leaves the feasible set (a negative power
    or a budget exceeded by more than 1e-9); a convex combination of feasible
    points cannot, nor can a projected extrapolation, so this flags a faulty
    water-fill response."""
    eps_wf, max_iters = check_solver_settings("a_iwf", eps_wf, max_iters, schedule)
    step = _Blocks.accelerate if accelerate else _Blocks.average
    return _iterate(scenario, association, initial_powers, eps_wf, max_iters, step,
                    schedule or StepsizeSchedule())


def s_iwf(
    scenario,
    association,
    eps_wf: float = 1e-8,
    max_iters: int = 100_000,
    initial_powers=None,
) -> InnerLoopResult:
    """Sequential iterative water-filling: MUs take exact water-fill steps in
    ascending index order; one iteration is one full round."""
    eps_wf, max_iters = check_solver_settings("s_iwf", eps_wf, max_iters)
    return _iterate(scenario, association, initial_powers, eps_wf, max_iters, _Blocks.sweep)


def _distinct_blocks(scenario, associations: np.ndarray):
    """The distinct (AP, member set) blocks of the rows of ``associations``,
    as (-size, width, AP, member flags) int32 rows in ascending lexicographic
    order, and the index of every (profile, AP)'s block, profile-major; an
    empty AP is a block of size 0, so the empty blocks come last. Equal to
    ``np.unique`` of all the rows with ``axis=0``, which sorts rows far more
    slowly than a 1-D ``np.unique`` of the rows' packed (AP one-hot, member
    flags) bits."""
    profiles, n = associations.shape
    w = scenario.num_aps
    member = (associations[:, None, :] == np.arange(w)[:, None]).reshape(-1, n)
    one_hot = np.tile(np.eye(w, dtype=bool), (profiles, 1))
    packed = np.packbits(np.concatenate([one_hot, member], axis=1), axis=1)
    packed = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    ap, flags = first % w, member[first]
    size = flags.sum(axis=1)
    width = scenario.chan_width[ap]
    order = np.lexsort(np.vstack([flags.T[::-1], ap, width, -size]))
    keys = np.column_stack([-size, width, ap, flags])[order].astype(np.int32)
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
    eps_wf, max_iters = check_solver_settings(solver, eps_wf, max_iters, schedule)
    step = _Blocks.average if solver == "a_iwf" else _Blocks.sweep
    schedule = schedule or StepsizeSchedule()
    profiles, n = associations.shape
    w = scenario.num_aps
    # The keys' order is the layout order: largest block first.
    keys, inverse = _distinct_blocks(scenario, associations)
    count = int(np.count_nonzero(keys[:, 0]))
    # Block of each (profile, AP); an empty AP points at entry ``count``.
    block_of = np.minimum(inverse, count).reshape(profiles, w)
    keys = keys[:count]
    flags = keys[:, 3:].astype(bool)
    row_id = (np.cumsum(flags) - 1).reshape(flags.shape)
    row_of = row_id[np.take_along_axis(block_of, associations, axis=1), np.arange(n)]
    blocks = _Blocks(scenario, keys[:, 2], flags)
    share = scenario.budget[blocks.mus] / blocks.width[blocks.block]
    np.copyto(blocks.pmat, share[:, None], where=blocks.real)  # uniform powers

    total, potential = np.empty(profiles), np.zeros(profiles)
    converged = np.zeros(profiles, dtype=bool)
    block_inf, block_pot = np.zeros(count + 1), np.zeros(count + 1)
    rates = np.empty(blocks.mus.size)
    live = np.arange(profiles)
    t = 0
    while True:
        blocks.evaluate()
        block_pot[blocks.ids] = blocks.potential
        row_inf = np.abs(blocks.residual).max(axis=1)
        block_inf[blocks.ids] = np.maximum.reduceat(row_inf, blocks.starts)
        done = block_inf[block_of[live]].max(axis=1) <= eps_wf
        stop = done | (t >= max_iters)
        end = live[stop]
        converged[end] = done[stop]
        if end.size:
            rates[blocks.rows] = blocks.rates(blocks.log_tot, blocks.others)
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
        step(blocks, t, schedule)


def convergence_diagnostics(
    trace: InnerTrace, eps: float = 1e-8, monotone_tol: float = 1e-12
) -> InnerDiagnostics:
    """Summarize a trace: first index after which the potential is
    non-decreasing (within ``monotone_tol``), whether the final residual meets
    ``eps``, and sum over iterations of alpha * ||residual||_2^2, where alpha
    is the largest block step the trace records (under per-block steps, an
    upper bound of the per-block weighted sum for plain a_iwf; nominal and no
    bound for an accelerated trace, whose alpha is the step ``average`` would
    take, not the step taken)."""
    p = trace.potential
    drops = np.flatnonzero(np.diff(p) < -monotone_tol)
    monotone_from = int(drops[-1] + 1) if drops.size else 0
    finite = np.isfinite(trace.alpha)
    weighted = float(np.sum(trace.alpha[finite] * trace.residual_two[finite] ** 2))
    final = float(trace.residual_inf[-1])
    return InnerDiagnostics(monotone_from, final <= eps, final, weighted)
