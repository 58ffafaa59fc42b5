"""Single-user vector water-filling: the best-response primitive, and the
(MU, AP) best-reply table built on it.

The allocation maximizes sum(log(1 + g*p/(n+I))) over p >= 0 with
sum(p) <= budget. The optimum has the form p_k = max(level - f_k, 0) with
effective floors f_k = (n+I)_k / g_k; the level is found exactly from the
sorted floors, so no iterative tolerance is involved.

``best_reply_table`` is the one kernel behind the joint dynamics' best
replies and the equilibrium verifiers, and ``current_rates`` their one source
of current rates; ``wf_operator`` and the scalar functions in ``game`` are
the reference oracles both are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


_LARGEST = np.finfo(float).max


@dataclass(frozen=True)
class WaterFillResult:
    powers: np.ndarray
    water_level: float
    active_set: np.ndarray  # channel indices with positive power


def water_fill_batch(floors: np.ndarray, budgets: np.ndarray):
    """Row-wise exact water-filling.

    floors: (R, C) effective noise-plus-interference floors, all positive.
    budgets: (R,) positive budgets.
    Returns (powers, levels) with powers (R, C) and levels (R,).

    The level for m active channels is (P + sum of m smallest floors)/m; the
    valid m is the largest one whose level still covers the m-th floor (the
    validity predicate is monotone in m, so the largest match is unique).

    A +inf floor is an absent channel: it is never active and gets power 0.0,
    so padding a row with +inf columns leaves its other powers and its level
    bit for bit unchanged. Every row needs at least one finite floor.
    """
    floors = np.atleast_2d(np.asarray(floors, dtype=float))
    budgets = np.asarray(budgets, dtype=float)
    r, c = floors.shape
    sorted_f = np.sort(floors, axis=1)
    cum = np.cumsum(sorted_f, axis=1)
    counts = np.arange(1, c + 1, dtype=float)
    levels_m = (budgets[:, None] + cum) / counts
    # Clipping at the largest float keeps every finite level, and a +inf
    # floor then fails the test: it is never active.
    ok = np.minimum(levels_m, _LARGEST) >= sorted_f  # true at m=1 for finite floors
    last = (c - 1) - np.argmax(ok[:, ::-1], axis=1)  # largest valid m per row, less 1
    levels = levels_m[np.arange(r), last]
    powers = np.maximum(levels[:, None] - floors, 0.0)
    return powers, levels


def water_fill(gain_sq, noise_plus_interf, budget: float) -> WaterFillResult:
    """Water-fill one user's budget over parallel channels.

    gain_sq and noise_plus_interf are positive vectors of equal length;
    budget is positive. The returned powers sum to the budget exactly (up to
    roundoff): the rate is strictly increasing in every channel power, so the
    constraint is always tight. A gain so small that its floor overflows to
    +inf is an absent channel and gets power 0.0.
    """
    g = np.asarray(gain_sq, dtype=float)
    ni = np.asarray(noise_plus_interf, dtype=float)
    if g.ndim != 1 or ni.ndim != 1:
        raise ValidationError("water_fill expects 1-D gain and noise vectors")
    if g.size == 0:
        raise ValidationError("water_fill: empty channel vector")
    if g.shape != ni.shape:
        raise ValidationError(
            f"water_fill: length mismatch ({g.size} gains, {ni.size} floors)"
        )
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(ni))):
        raise ValidationError("water_fill: inputs must be finite")
    if np.any(g <= 0.0) or np.any(ni <= 0.0):
        raise ValidationError("water_fill: gains and noise+interference must be positive")
    if not np.isfinite(budget) or budget <= 0.0:
        raise ValidationError("water_fill: budget must be positive")

    with np.errstate(over="ignore"):  # a vanishing gain's floor is +inf: no channel
        floors = ni / g
    if not np.any(floors < np.inf):
        raise ValidationError("water_fill: every gain is too small to carry power")
    powers, levels = water_fill_batch(floors[None, :], np.asarray([budget]))
    p = powers[0]
    return WaterFillResult(
        powers=p, water_level=float(levels[0]), active_set=np.flatnonzero(p > 0.0)
    )


def wf_operator(scenario, association, powers, mu: int) -> np.ndarray:
    """Best-response power vector for ``mu`` at its current AP.

    Interference comes only from MUs associated with the same AP (APs own
    disjoint channel blocks, so other cells contribute nothing).
    """
    from .game import interference_at  # local import to avoid a cycle

    ap = int(association[mu])
    cols = scenario.chan_idx[ap]
    interf = interference_at(scenario, association, powers, mu)
    return water_fill(
        scenario.gain_sq[mu, cols], scenario.noise[cols] + interf, scenario.budget[mu]
    ).powers


def interference_table(scenario, association, powers) -> list[np.ndarray]:
    """Interference every MU would see on every AP's channels with the
    profile held fixed: per AP an (N, K_w) array. Each row is the AP's block
    total (summed from zero in member order) minus the MU's own received
    power, which is zero for non-members."""
    out = []
    for ap in range(scenario.num_aps):
        cols = scenario.chan_idx[ap]
        members = np.flatnonzero(np.asarray(association) == ap)
        own = [scenario.gain_sq[j, cols] * np.asarray(powers[j]) for j in members]
        base = np.zeros(cols.size)
        for term in own:
            base += term
        interf = np.tile(base, (scenario.num_mus, 1))
        for j, term in zip(members, own):
            interf[j] -= term
        out.append(interf)
    return out


def current_rates(scenario, association, powers) -> np.ndarray:
    """Every MU's rate at its own AP, bit for bit equal to ``game.rate``.

    Per AP, member slot s adds its received-power row to every other
    member's row, so each row's interference is summed from zero in member
    order, skipping itself, exactly as ``game.interference_at`` sums it."""
    a = np.asarray(association)
    rates = np.zeros(scenario.num_mus)
    for ap in range(scenario.num_aps):
        members = np.flatnonzero(a == ap)
        if members.size == 0:
            continue
        cols = scenario.chan_idx[ap]
        p = np.array([powers[j] for j in members], dtype=float)
        rx = scenario.gain_sq[np.ix_(members, cols)] * p
        interf = np.zeros_like(rx)
        for s in range(members.size):
            interf[:s] += rx[s]
            interf[s + 1:] += rx[s]
        sinr = rx / (scenario.noise[cols] + interf)
        rates[members] = np.log2(1.0 + sinr).sum(axis=1) / scenario.num_channels
    return rates


def best_replies(scenario, interference: list):
    """The batched ``wf_operator``: every MU's water-fill at every AP against
    the given per-AP (N, K_w) interference rows, one ``water_fill_batch``
    call per AP. Returns (rates (N, W), per-AP list of (N, K_w) powers)."""
    rates = np.empty((scenario.num_mus, scenario.num_aps))
    vecs = []
    for ap in range(scenario.num_aps):
        cols = scenario.chan_idx[ap]
        gains = scenario.gain_sq[:, cols]
        floors_phys = scenario.noise[cols] + interference[ap]
        phi, _ = water_fill_batch(floors_phys / gains, scenario.budget)
        rates[:, ap] = np.log2(1.0 + gains * phi / floors_phys).sum(axis=1) / scenario.num_channels
        vecs.append(phi)
    return rates, vecs


def best_reply_table(scenario, association, powers):
    """Best-response rates and power vectors for every (MU, AP) pair, holding
    the current profile fixed: ``best_replies`` on ``interference_table``."""
    return best_replies(scenario, interference_table(scenario, association, powers))
