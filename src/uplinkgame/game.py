"""Shared game semantics: interference, rates, potentials, best responses and
equilibrium verification.

An association profile is an int array of length N with 0-based AP indices.
A power profile is a list of N vectors; powers[i] runs over the channels of
MU i's current AP. All rates and potentials are in bits (log base 2) and
carry the paper-style 1/K prefactor with K the *global* channel count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError, check_tolerance
from .waterfill import best_reply_table, profile_table, water_fill, wf_operator

LN2 = math.log(2.0)

# Default tolerances: power fixed points are certified two orders tighter
# than rate-level equilibrium verdicts, so inner-loop noise cannot flip them.
EPS_WF = 1e-8
EPS_EQ = 1e-6


def members_of(association: np.ndarray, ap: int) -> np.ndarray:
    return np.flatnonzero(np.asarray(association) == ap)


def validate_association(scenario, association) -> np.ndarray:
    raw = np.asarray(association)
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.floor(raw))):
        raise ValidationError("association: AP indices must be whole numbers")
    a = raw.astype(np.intp)
    if a.shape != (scenario.num_mus,):
        raise ValidationError(
            f"association: expected shape ({scenario.num_mus},), got {a.shape}"
        )
    if np.any(a < 0) or np.any(a >= scenario.num_aps):
        raise ValidationError("association: AP index out of range")
    return a


def validate_powers(scenario, association, powers, tol: float = 1e-12) -> None:
    """Check shapes, finiteness, nonnegativity and per-MU budget feasibility;
    report the first MU that fails a check, with the first check it fails.
    The vectors of one length and dtype are checked as one stack, whose row
    sums are the vectors' own ``p.sum()``, bit for bit (both pairwise)."""
    if len(powers) != scenario.num_mus:
        raise ValidationError(f"powers: expected {scenario.num_mus} vectors")
    width = scenario.chan_width[np.asarray(association, dtype=np.intp)].tolist()
    faults, groups = [], {}  # faults: (MU, message), the first of each stack
    for i, (p, k) in enumerate(zip(powers, width)):
        p = np.asarray(p)
        if p.shape != (k,):  # no later MU can fail first
            faults.append((i, f"expected length {k}, got {p.shape}"))
            break
        groups.setdefault((k, p.dtype), []).append((i, p))
    for group in groups.values():
        mus, vectors = zip(*group)
        stack = np.stack(vectors)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a sum over budget
            over = stack.sum(axis=1) > scenario.budget[list(mus)] + tol
        checks = np.array([~np.isfinite(stack).all(axis=1), (stack < 0.0).any(axis=1), over])
        if checks.any():
            r = int(checks.any(axis=0).argmax())
            names = ("non-finite entry", "negative entry", "budget exceeded")
            faults.append((mus[r], names[checks[:, r].argmax()]))
    if faults:
        i, message = min(faults)
        raise ValidationError(f"powers[{i}]: {message}")


def validate_costs(scenario, costs) -> np.ndarray:
    """Connection costs as one value per MU, a scalar broadcast to all;
    entries must be finite and nonnegative, as in ``NetworkScenario``."""
    try:
        c = np.asarray(costs, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("connection_cost: expected numbers") from None
    if c.ndim == 0:
        c = np.full(scenario.num_mus, float(c))
    if c.shape != (scenario.num_mus,):
        raise ValidationError("connection_cost: expected a scalar or one value per MU")
    if not np.all(np.isfinite(c) & (c >= 0.0)):
        raise ValidationError("connection_cost: entries must be finite and nonnegative")
    return c


def uniform_powers(scenario, association) -> list[np.ndarray]:
    """Spread each budget evenly over the channels of the MU's AP."""
    width = scenario.chan_width[np.asarray(association, dtype=np.intp)].tolist()
    return [np.full(k, b / k) for k, b in zip(width, scenario.budget.tolist(), strict=True)]


def random_feasible_powers(scenario, association, rngs) -> list[np.ndarray]:
    """Draw each MU's power uniformly from its solid simplex {p>=0, sum<=P}."""
    width = scenario.chan_width[np.asarray(association, dtype=np.intp)].tolist()
    return [scenario.budget[i] * rngs[i].dirichlet(np.ones(k + 1))[:k] for i, k in enumerate(width)]


def copy_powers(powers) -> list[np.ndarray]:
    return [np.array(p, dtype=float) for p in powers]


def interference_at(scenario, association, powers, mu: int) -> np.ndarray:
    """Interference seen by ``mu`` on its AP's channels: the sum of
    co-associated MUs' received powers."""
    ap = int(association[mu])
    cols = scenario.chan_idx[ap]
    total = np.zeros(cols.size)
    for j in members_of(association, ap):
        if j == mu:
            continue
        pj = np.asarray(powers[j])
        if pj.shape != cols.shape:
            raise ValidationError(
                f"powers[{j}]: expected length {cols.size} for AP {ap}"
            )
        total += scenario.gain_sq[j, cols] * pj
    return total


def rate(scenario, association, powers, mu: int) -> float:
    """MU transmission rate in bits per channel use (1/K prefactor, global K)."""
    ap = int(association[mu])
    cols = scenario.chan_idx[ap]
    interf = interference_at(scenario, association, powers, mu)
    sinr = scenario.gain_sq[mu, cols] * np.asarray(powers[mu]) / (scenario.noise[cols] + interf)
    return float(np.sum(np.log2(1.0 + sinr)) / scenario.num_channels)


def all_rates(scenario, association, powers) -> np.ndarray:
    return np.array(
        [rate(scenario, association, powers, i) for i in range(scenario.num_mus)]
    )


def sum_rate(scenario, association, powers) -> float:
    a = validate_association(scenario, association)
    return float(profile_table(scenario, a, powers)[0].sum())


def received_totals(scenario, association, powers, ap: int) -> np.ndarray:
    """noise + sum of received powers on the AP's channels."""
    cols = scenario.chan_idx[ap]
    tot = scenario.noise[cols].copy()
    for j in members_of(association, ap):
        tot += scenario.gain_sq[j, cols] * np.asarray(powers[j])
    return tot


def per_ap_potential(scenario, association, powers, ap: int) -> float:
    cols = scenario.chan_idx[ap]
    tot = received_totals(scenario, association, powers, ap)
    return float(np.sum(np.log2(tot) - np.log2(scenario.noise[cols])) / scenario.num_channels)


def system_potential(scenario, association, powers) -> float:
    return float(
        sum(per_ap_potential(scenario, association, powers, w) for w in range(scenario.num_aps))
    )


def potential_gradient(scenario, association, powers) -> list[np.ndarray]:
    """d(potential)/d(powers[i][k]); strictly positive everywhere."""
    grads = []
    for i in range(scenario.num_mus):
        ap = int(association[i])
        cols = scenario.chan_idx[ap]
        tot = received_totals(scenario, association, powers, ap)
        grads.append(scenario.gain_sq[i, cols] / (scenario.num_channels * LN2 * tot))
    return grads


def residual(scenario, association, powers) -> list[np.ndarray]:
    """Distance-to-best-response map: per-MU water-fill output minus current
    power. Its vanishing certifies a power equilibrium."""
    return [
        wf_operator(scenario, association, powers, i) - np.asarray(powers[i])
        for i in range(scenario.num_mus)
    ]


def residual_norms(res: list[np.ndarray]) -> tuple[float, float]:
    """(inf-norm, 2-norm) of a concatenated residual."""
    flat = np.concatenate([np.asarray(r).ravel() for r in res])
    return float(np.max(np.abs(flat))), float(np.linalg.norm(flat))


def best_response_rate(scenario, association, powers, mu: int, candidate_ap: int):
    """Rate MU ``mu`` would get at ``candidate_ap`` with everyone else fixed
    (its current transmission is removed from its current AP), together with
    the maximizing water-fill power vector."""
    ap = int(candidate_ap)
    cols = scenario.chan_idx[ap]
    interf = np.zeros(cols.size)
    for j in members_of(association, ap):
        if j == mu:
            continue
        interf += scenario.gain_sq[j, cols] * np.asarray(powers[j])
    floor = scenario.noise[cols] + interf
    wf = water_fill(scenario.gain_sq[mu, cols], floor, scenario.budget[mu])
    sinr = scenario.gain_sq[mu, cols] * wf.powers / floor
    br = float(np.sum(np.log2(1.0 + sinr)) / scenario.num_channels)
    return br, wf.powers


def best_ap_set(scenario, association, powers, mu: int, connection_cost: float) -> np.ndarray:
    """APs whose best-response rate beats the current rate, plus the cost for
    leaving: candidate w qualifies when br(w) >= current + c (c waived for the
    current AP, so staying is always free)."""
    cur_ap = int(association[mu])
    cur = rate(scenario, association, powers, mu)
    br = np.array([best_response_rate(scenario, association, powers, mu, w)[0]
                   for w in range(scenario.num_aps)])
    thresh = cur + connection_cost * (np.arange(scenario.num_aps) != cur_ap)
    members = np.flatnonzero(br >= thresh)
    if members.size == 0:
        # Roundoff guard: the current AP qualifies in exact arithmetic
        # (optimizing your own power can never lose to the status quo).
        members = np.array([cur_ap], dtype=np.intp)
    return members


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of an equilibrium check.

    violations holds the per-MU violation measure: water-fill residual
    inf-norms for power checks, best switch-rate gains (net of connection
    costs when given) for joint checks.
    """

    is_equilibrium: bool
    tolerance: float
    violations: np.ndarray
    current_rates: np.ndarray
    best_rates: np.ndarray
    worst_violator: Optional[tuple] = None  # (mu, ap, gain)


def _table_report(scenario, association, powers, eps: float):
    """Power-equilibrium report of a validated profile, and its best-reply
    rate table, from one ``best_reply_table`` call: the residual and the
    own-AP best rate come from its own-AP column, the current rates from it."""
    eps = check_tolerance("eps", eps)
    a = validate_association(scenario, association)
    validate_powers(scenario, a, powers)
    cur, br, vecs = best_reply_table(scenario, a, powers)
    viol = np.array([np.max(np.abs(vecs[a[i]][i] - powers[i])) for i in range(scenario.num_mus)])
    ok = bool(np.all(viol <= eps))
    worst = None
    if not ok:
        i = int(np.argmax(viol))
        worst = (i, int(a[i]), float(viol[i]))
    own = br[np.arange(scenario.num_mus), a]
    return EquilibriumReport(ok, eps, viol, cur, own, worst), br


def verify_power_ne(scenario, association, powers, eps: float = EPS_WF) -> EquilibriumReport:
    """Fixed-point check of the water-fill operator for a fixed association."""
    return _table_report(scenario, association, powers, eps)[0]


def verify_jep(
    scenario, association, powers, eps: float = EPS_EQ, costs=None
) -> EquilibriumReport:
    """Joint check: per-MU power fixed point, and no MU can gain more than
    ``eps`` rate at any other AP.

    Without ``costs`` this is the joint-equilibrium definition. With per-MU
    connection costs it is stability of the cost-modified game, which the
    joint dynamics gate termination on: a switch counts only by the amount
    its gain exceeds the MU's cost. violations holds each MU's best net
    switch gain, at least 0. One best-reply table answers both parts."""
    power_part, br = _table_report(scenario, association, powers, eps)
    n = scenario.num_mus
    a = np.asarray(association, dtype=np.intp)
    net = br - power_part.current_rates[:, None]
    if costs is not None:
        net = net - validate_costs(scenario, costs)[:, None]
    net[np.arange(n), a] = -np.inf
    gains = np.maximum(net.max(axis=1), 0.0)
    best = br.max(axis=1)
    ok = power_part.is_equilibrium and bool(np.all(gains <= eps))
    violator = None
    if not ok:
        if np.any(gains > eps):
            i, ap = np.unravel_index(int(np.argmax(net)), net.shape)
            violator = (int(i), int(ap), float(net[i, ap]))
        else:
            violator = power_part.worst_violator
    return EquilibriumReport(ok, eps, gains, power_part.current_rates, best, violator)
