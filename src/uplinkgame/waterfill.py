"""Single-user vector water-filling: the best-response primitive, and the
(MU, AP) best-reply table built on it.

The allocation maximizes sum(log(1 + g*p/(n+I))) over p >= 0 with
sum(p) <= budget. The optimum has the form p_k = max(level - f_k, 0) with
effective floors f_k = (n+I)_k / g_k; the level is found exactly from the
sorted floors, so no iterative tolerance is involved.

``profile_table`` is the one pass over a profile: it forms the (N, K)
interference matrix, reads every MU's current rate off it, and
``best_replies`` water-fills it at every AP (for every MU or some).
``interference_matrix`` is the one kernel that forms that matrix, from the
received powers; after an evaluation, ``inner.ProfileLayout.interference``
calls it on the evaluation's received powers.
``best_reply_table`` chains the two; it is the one kernel behind the joint
dynamics' best replies and the equilibrium verifiers. ``wf_operator`` and
the scalar functions in ``game`` are the reference oracles both are tested
against.
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


_INDEX: dict = {}  # channel count c -> read-only (1.0, ..., c), (c-1, 2c-1, ...)


def _index(r: int, c: int):
    """The m counts (1.0, ..., c), and the flat index of each of r rows' last
    entry; an entry is replaced by a longer one when more rows come."""
    counts, ends = _INDEX.get(c, (None, ()))
    if len(ends) < r:
        counts = np.arange(1, c + 1, dtype=float)
        ends = np.arange(c - 1, max(r, 2 * len(ends)) * c, c)
        counts.flags.writeable = ends.flags.writeable = False
        _INDEX[c] = counts, ends
    return counts, ends[:r]


@np.errstate(over="ignore")  # a vanishing gain's floor is +inf: no channel
def water_fill_batch(gains: np.ndarray, noise_plus_interf: np.ndarray, budgets: np.ndarray):
    """Row-wise exact water-filling over the floors (n + I) / g.

    gains, noise_plus_interf: (R, C) positive float arrays; budgets: (R,)
    positive array. Returns (powers, levels) with powers (R, C) and levels
    (R,).

    The level for m active channels is (P + sum of m smallest floors)/m; the
    valid m is the largest one whose level still covers the m-th floor (the
    validity predicate is monotone in m, so the largest match is unique).

    A floor that overflows to +inf (a vanishing gain, or +inf noise) is an
    absent channel: it is never active and gets power 0.0, so padding a row
    with +inf columns leaves its other powers and its level bit for bit
    unchanged. A row with no finite floor is an AP its MU cannot use: power
    0.0 on every channel, and the largest float as its level.

    Solvers call it once per step on small arrays, so it calls methods, not
    numpy's wrappers, with the same arithmetic: ``.sort`` on a copy is
    ``np.sort``, ``.argmax`` is ``np.argmax``, and a flat ``take`` at
    row * c + m reads entry (row, m).
    """
    floors = noise_plus_interf / gains
    r, c = floors.shape
    counts, ends = _index(r, c)
    sorted_f = floors.copy()
    sorted_f.sort(axis=1)
    # (P + sum of the m smallest floors) / m for every m, in place. Clipping
    # at the largest float keeps every finite level, and a +inf floor then
    # fails the test: it is never active. A row without a valid m keeps the
    # clipped level of its last m, the largest float, and max(largest - inf,
    # 0) is 0.0; a NaN stays NaN.
    levels_m = np.add.accumulate(sorted_f, axis=1)
    levels_m += budgets[:, None]
    levels_m /= counts
    np.minimum(levels_m, _LARGEST, out=levels_m)
    ok = levels_m >= sorted_f  # true at m=1 for finite floors
    levels = levels_m.take(ends - ok[:, ::-1].argmax(axis=1))  # the largest valid m
    powers = np.subtract(levels[:, None], floors, out=floors)
    np.maximum(powers, 0.0, out=powers)
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

    with np.errstate(over="ignore"):
        if not np.any(ni / g < np.inf):
            raise ValidationError("water_fill: every gain is too small to carry power")
    powers, levels = water_fill_batch(g[None, :], ni[None, :], np.asarray([budget]))
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


def profile_table(scenario, association, powers):
    """The current rates (N,) and the interference (N, K) of a profile, the
    latter ``interference_matrix`` of its received powers; each MU's rate is
    read off that matrix on its own channels (``game.rate`` within 1e-12)."""
    a = np.asarray(association)
    rows = np.repeat(np.arange(a.size), scenario.chan_width[a])
    cols = scenario.chan_table[a][np.isfinite(scenario.chan_noise[a])]  # each MU's own channels
    received = np.zeros((scenario.num_mus, scenario.num_channels))
    rx = received[rows, cols] = scenario.gain_sq[rows, cols] * np.concatenate(powers)
    interference = interference_matrix(received)
    cells = np.log2(1.0 + rx / (scenario.noise[cols] + interference[rows, cols]))
    current = np.bincount(rows, weights=cells, minlength=a.size) / scenario.num_channels
    return current, interference


def interference_matrix(received: np.ndarray) -> np.ndarray:
    """The (N, K) interference from the (N, K) received powers ``G*P``, each
    MU's row on its own AP's channels and zero elsewhere: every channel's
    total over the rows, added in row order (so a block's members in member
    order), less each row's own term. APs own disjoint channels, so on AP
    w's columns MU i's row holds w's block total less i's own power (the
    whole total for a non-member): what i sees, or would see, there."""
    # numpy adds the rows of an (N, K) array one by one, but a lone column pairwise.
    total = received.sum(axis=0) if received.shape[1] > 1 else received.cumsum()[-1:]
    return total - received


def best_replies(scenario, interference: np.ndarray, mus=None):
    """The batched ``wf_operator``: every MU's water-fill at every AP against
    the given (N, K) interference rows; an AP where every gain of an MU
    vanishes gets power 0 and rate 0 from it. ``mus`` restricts it to those
    MUs' rows (``interference`` then holds one row each). Returns (rates (R,
    W), per-AP list of (R, K_w) powers), R rows.

    Every (row, AP) pair is a row of one ``water_fill_batch`` call, at any
    table size, of width C, the widest AP's, padded as
    ``NetworkScenario.chan_noise`` says: pads are absent channels that move
    no bit of the real ones. The rows of ``water_fill_batch`` are
    independent, so each pair is the per-AP call's row bit for bit, and a
    ``mus`` row is the full table's. The rates take one log pass; each AP's
    channels are summed over its own width, once per distinct width, since
    numpy's pairwise row sum regroups when the row length changes."""
    gain_sq, budget = scenario.gain_sq, scenario.budget
    if mus is not None:
        gain_sq, budget = gain_sq[mus], budget[mus]
    r, (w, c) = budget.size, scenario.chan_table.shape
    # take, not [:, table]: a fancy gather may come out F-ordered, and the
    # channel sums below would then run sequentially instead of pairwise.
    gains = gain_sq.take(scenario.chan_table, axis=1)  # (R, W, C)
    floors = interference.take(scenario.chan_table, axis=1)
    floors += scenario.chan_noise
    phi, _ = water_fill_batch(gains.reshape(-1, c), floors.reshape(-1, c), budget.repeat(w))
    phi = phi.reshape(r, w, c)
    cells = np.multiply(gains, phi, out=gains)
    cells /= floors
    cells += 1.0
    np.log2(cells, out=cells)  # 0.0 on the pads
    rates, width = np.empty((r, w)), scenario.chan_width
    widths = width.tolist()
    distinct = set(widths)
    for k in distinct:
        own = slice(None) if len(distinct) == 1 else width == k
        rates[:, own] = cells[:, own, :k].sum(axis=-1)
    rates /= scenario.num_channels
    return rates, [phi[:, j, :k] for j, k in enumerate(widths)]


def best_reply_table(scenario, association, powers):
    """Current rates, and best-response rates and power vectors for every
    (MU, AP) pair holding the profile fixed: ``best_replies`` on
    ``profile_table``'s interference. Returns (current (N,), rates (N, W),
    per-AP list of (N, K_w) powers)."""
    current, interference = profile_table(scenario, association, powers)
    return (current, *best_replies(scenario, interference))
