import dataclasses
import functools
import itertools
import math
import operator

import numpy as np
import pytest

from uplinkgame import (
    NetworkScenario,
    a_iwf,
    best_ap_set,
    best_response_rate,
    interference_at,
    per_ap_potential,
    potential_gradient,
    rate,
    residual,
    residual_norms,
    s_iwf,
    sum_rate,
    system_potential,
    uniform_powers,
    verify_jep,
    verify_power_ne,
    water_fill,
)
from uplinkgame.errors import ValidationError
from uplinkgame.game import validate_association, validate_powers
from uplinkgame.inner import solve_profiles

from conftest import make_scenario, random_powers


def unit_scenario(n_mus=1, noise=1.0):
    """Single AP, single channel, unit gains and budgets."""
    return NetworkScenario(
        num_mus=n_mus,
        num_aps=1,
        num_channels=1,
        ap_channels=((1,),),
        gain_sq=np.ones((n_mus, 1)),
        noise=np.array([noise]),
        budget=np.ones(n_mus),
        mu_positions=np.zeros((n_mus, 2)),
        ap_positions=np.zeros((1, 2)),
        connection_cost=np.zeros(n_mus),
    )


def brute_interference(sc, assoc, powers, mu):
    ap = int(assoc[mu])
    cols = sc.chan_idx[ap]
    out = np.zeros(cols.size)
    for j in range(sc.num_mus):
        if j == mu or assoc[j] != ap:
            continue
        for pos, k in enumerate(cols):
            out[pos] += sc.gain_sq[j, k] * powers[j][pos]
    return out


# ---------------------------------------------------------------------------
# Interference and rates


def test_single_mu_sees_no_interference():
    sc = unit_scenario(1)
    assert interference_at(sc, [0], [np.array([1.0])], 0).tolist() == [0.0]


def test_two_mus_one_channel_interference(footnote2):
    assoc = np.array([0, 0])
    powers = [np.array([1.0]), np.array([1.0])]
    for mu in (0, 1):
        np.testing.assert_allclose(interference_at(footnote2, assoc, powers, mu), [1.0])


def test_interference_matches_brute_force():
    sc = make_scenario(3, 2, 4, seed=8)
    rng = np.random.default_rng(0)
    assoc = np.array([0, 1, 0])
    powers = random_powers(sc, assoc, rng)
    for mu in range(3):
        np.testing.assert_allclose(
            interference_at(sc, assoc, powers, mu),
            brute_interference(sc, assoc, powers, mu),
            atol=1e-15,
        )


def test_interference_shape_mismatch():
    sc = make_scenario(2, 1, 3, seed=1)
    with pytest.raises(ValidationError):
        interference_at(sc, [0, 0], [np.ones(3) / 3, np.ones(2) / 2], 0)


def test_rate_single_channel_unit():
    sc = unit_scenario(1)
    assert rate(sc, [0], [np.array([1.0])], 0) == pytest.approx(1.0, abs=0)


def test_rate_zero_power_is_zero():
    sc = unit_scenario(1)
    assert rate(sc, [0], [np.array([0.0])], 0) == 0.0


def test_rate_shared_channel(footnote2):
    assoc = np.array([0, 0])
    powers = [np.array([1.0]), np.array([1.0])]
    expected = 0.5 * math.log2(1.5)  # 0.29248...
    for mu in (0, 1):
        assert rate(footnote2, assoc, powers, mu) == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# Potentials and their gradient


def test_empty_ap_has_zero_potential(footnote2):
    assoc = np.array([0, 0])
    powers = [np.array([1.0]), np.array([1.0])]
    assert per_ap_potential(footnote2, assoc, powers, 1) == 0.0


def test_single_mu_potential_equals_rate():
    sc = unit_scenario(1)
    assert per_ap_potential(sc, [0], [np.array([1.0])], 0) == pytest.approx(1.0)


def test_two_mu_potential_log3():
    sc = unit_scenario(2)
    powers = [np.array([1.0]), np.array([1.0])]
    assert per_ap_potential(sc, [0, 0], powers, 0) == pytest.approx(math.log2(3), abs=1e-15)


def test_system_potential_zero_powers(footnote2):
    assoc = np.array([0, 1])
    powers = [np.array([0.0]), np.array([0.0])]
    assert system_potential(footnote2, assoc, powers) == 0.0


def test_system_potential_single_ap_collapses():
    sc = make_scenario(3, 1, 4, seed=3)
    assoc = np.zeros(3, dtype=int)
    powers = random_powers(sc, assoc, np.random.default_rng(1))
    assert system_potential(sc, assoc, powers) == pytest.approx(
        per_ap_potential(sc, assoc, powers, 0)
    )


def test_split_profile_potential_is_one(footnote2):
    assoc = np.array([0, 1])
    powers = [np.array([1.0]), np.array([1.0])]
    assert system_potential(footnote2, assoc, powers) == pytest.approx(1.0, abs=0)


def test_gradient_single_mu_value():
    sc = unit_scenario(1)
    grad = potential_gradient(sc, [0], [np.array([1.0])])
    assert grad[0][0] == pytest.approx(1.0 / (2.0 * math.log(2.0)), abs=1e-15)


def test_doubling_noise_halves_gradient_at_zero():
    g1 = potential_gradient(unit_scenario(1, noise=1.0), [0], [np.array([0.0])])[0][0]
    g2 = potential_gradient(unit_scenario(1, noise=2.0), [0], [np.array([0.0])])[0][0]
    assert g1 == pytest.approx(2.0 * g2, rel=1e-14)


def test_gradient_matches_central_differences():
    sc = make_scenario(4, 2, 6, seed=12)
    rng = np.random.default_rng(3)
    assoc = np.array([0, 1, 0, 1])
    h = 1e-6
    for _ in range(20):
        powers = random_powers(sc, assoc, rng, slack=True)
        powers = [np.maximum(p, 2 * h) for p in powers]
        grads = potential_gradient(sc, assoc, powers)
        for i in range(sc.num_mus):
            for k in range(powers[i].size):
                up = [p.copy() for p in powers]
                dn = [p.copy() for p in powers]
                up[i][k] += h
                dn[i][k] -= h
                fd = (
                    system_potential(sc, assoc, up) - system_potential(sc, assoc, dn)
                ) / (2 * h)
                assert abs(grads[i][k] - fd) < 1e-6


# ---------------------------------------------------------------------------
# Residual map


def test_residual_zero_at_fixed_point():
    sc = make_scenario(1, 1, 3, seed=5)
    wf = water_fill(sc.gain_sq[0], sc.noise, sc.budget[0]).powers
    res = residual(sc, [0], [wf])
    assert residual_norms(res)[0] <= 1e-15


def test_residual_from_zero_power_sums_to_budget():
    sc = make_scenario(1, 1, 4, seed=6)
    res = residual(sc, [0], [np.zeros(4)])
    assert res[0].sum() == pytest.approx(sc.budget[0], abs=1e-12)
    np.testing.assert_allclose(
        res[0], water_fill(sc.gain_sq[0], sc.noise, sc.budget[0]).powers
    )


def test_residual_components_sum_to_zero_when_budget_tight():
    sc = make_scenario(3, 1, 5, seed=7)
    assoc = np.zeros(3, dtype=int)
    powers = random_powers(sc, assoc, np.random.default_rng(2))  # tight budgets
    for s in residual(sc, assoc, powers):
        assert s.sum() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Best responses and best-AP sets


def test_best_response_dominates_status_quo():
    sc = make_scenario(4, 2, 6, seed=20)
    rng = np.random.default_rng(4)
    assoc = np.array([0, 0, 1, 1])
    powers = random_powers(sc, assoc, rng)
    for mu in range(4):
        br, _ = best_response_rate(sc, assoc, powers, mu, int(assoc[mu]))
        assert br >= rate(sc, assoc, powers, mu) - 1e-14


def test_best_response_at_vacant_ap(footnote2):
    assoc = np.array([0, 0])
    powers = [np.array([1.0]), np.array([1.0])]
    br, vec = best_response_rate(footnote2, assoc, powers, 0, 1)
    assert br == pytest.approx(0.5, abs=0)
    np.testing.assert_allclose(vec, [1.0])


def test_best_response_at_occupied_ap(footnote2):
    assoc = np.array([0, 1])
    powers = [np.array([1.0]), np.array([1.0])]
    br, _ = best_response_rate(footnote2, assoc, powers, 0, 1)
    assert br == pytest.approx(0.5 * math.log2(1.5), abs=1e-15)


def test_best_ap_set_single_ap():
    sc = make_scenario(2, 1, 2, seed=2)
    assoc = np.zeros(2, dtype=int)
    powers = uniform_powers(sc, assoc)
    assert best_ap_set(sc, assoc, powers, 0, 0.0).tolist() == [0]


def test_vacant_ap_is_perceived_best(footnote2):
    assoc = np.array([0, 0])
    powers = [np.array([1.0]), np.array([1.0])]  # the AP-1 power equilibrium
    for mu in (0, 1):
        members = best_ap_set(footnote2, assoc, powers, mu, 0.0)
        assert 1 in members.tolist()


def test_huge_connection_cost_pins_current_ap(footnote2):
    assoc = np.array([0, 0])
    powers = [np.array([1.0]), np.array([1.0])]
    for mu in (0, 1):
        assert best_ap_set(footnote2, assoc, powers, mu, 1e6).tolist() == [0]


# ---------------------------------------------------------------------------
# Equilibrium verification


def test_converged_inner_run_is_power_ne():
    sc = make_scenario(5, 1, 6, seed=9)
    assoc = np.zeros(5, dtype=int)
    result = a_iwf(sc, assoc, eps_wf=1e-10)
    assert result.converged
    report = verify_power_ne(sc, assoc, result.powers, 1e-8)
    assert report.is_equilibrium
    assert report.worst_violator is None


def test_zero_powers_not_power_ne():
    sc = make_scenario(2, 1, 3, seed=10)
    assoc = np.zeros(2, dtype=int)
    report = verify_power_ne(sc, assoc, [np.zeros(3), np.zeros(3)], 1e-8)
    assert not report.is_equilibrium
    mu, ap, gap = report.worst_violator
    assert ap == 0 and gap > 0


def test_single_mu_water_fill_is_power_ne():
    sc = make_scenario(1, 1, 4, seed=11)
    wf = water_fill(sc.gain_sq[0], sc.noise, sc.budget[0]).powers
    assert verify_power_ne(sc, [0], [wf], 1e-10).is_equilibrium


def test_split_profile_is_jep(footnote2):
    report = verify_jep(footnote2, [0, 1], [np.array([1.0]), np.array([1.0])], 1e-6)
    assert report.is_equilibrium
    assert report.current_rates.tolist() == [0.5, 0.5]


def test_stacked_profile_is_not_jep(footnote2):
    report = verify_jep(footnote2, [0, 0], [np.array([1.0]), np.array([1.0])], 1e-6)
    assert not report.is_equilibrium
    mu, ap, gain = report.worst_violator
    assert ap == 1
    assert gain == pytest.approx(0.5 - 0.5 * math.log2(1.5), abs=1e-12)


def test_single_mu_jep():
    sc = make_scenario(1, 2, 4, seed=13)
    placeholder = uniform_powers(sc, [0])
    best = max(
        range(2), key=lambda w: best_response_rate(sc, [0], placeholder, 0, w)[0]
    )
    cols = sc.chan_idx[best]
    wf = water_fill(sc.gain_sq[0, cols], sc.noise[cols], sc.budget[0]).powers
    assert verify_jep(sc, [best], [wf], 1e-9).is_equilibrium


# ---------------------------------------------------------------------------
# Structural identities


def test_unilateral_deviation_identity():
    # Rate changes of one MU equal potential changes, association fixed.
    rng = np.random.default_rng(21)
    for seed in range(5):
        sc = make_scenario(4, 2, 6, seed=seed)
        assoc = rng.integers(0, 2, 4)
        powers = random_powers(sc, assoc, rng, slack=True)
        for _ in range(40):
            mu = int(rng.integers(4))
            alt = sc.budget[mu] * rng.dirichlet(np.ones(powers[mu].size))
            moved = [p.copy() for p in powers]
            moved[mu] = alt
            d_rate = rate(sc, assoc, moved, mu) - rate(sc, assoc, powers, mu)
            d_pot = system_potential(sc, assoc, moved) - system_potential(sc, assoc, powers)
            assert abs(d_rate - d_pot) <= 1e-10


def test_switch_rate_equals_potential_difference():
    # A switching MU's post-move rate is the destination AP's potential gain;
    # its pre-move rate is the origin AP's potential drop.
    rng = np.random.default_rng(22)
    for seed in range(5):
        sc = make_scenario(4, 2, 5, seed=seed + 30)
        assoc = rng.integers(0, 2, 4)
        powers = random_powers(sc, assoc, rng)
        mu = int(rng.integers(4))
        origin = int(assoc[mu])
        target = 1 - origin
        _, new_power = best_response_rate(sc, assoc, powers, mu, target)
        assoc2 = assoc.copy()
        assoc2[mu] = target
        powers2 = [p.copy() for p in powers]
        powers2[mu] = new_power
        post_rate = rate(sc, assoc2, powers2, mu)
        gain_dest = per_ap_potential(sc, assoc2, powers2, target) - per_ap_potential(
            sc, assoc, powers, target
        )
        assert post_rate == pytest.approx(gain_dest, abs=1e-12)
        pre_rate = rate(sc, assoc, powers, mu)
        drop_origin = per_ap_potential(sc, assoc, powers, origin) - per_ap_potential(
            sc, assoc2, powers2, origin
        )
        assert pre_rate == pytest.approx(drop_origin, abs=1e-12)


def test_residual_gradient_sign_property():
    # Moving toward the best response always ascends the potential.
    for seed in range(10):
        sc = make_scenario(4, 1, 6, seed=seed + 50)
        assoc = np.zeros(4, dtype=int)
        rng = np.random.default_rng(seed)
        for j in range(100):
            powers = random_powers(sc, assoc, rng, slack=(j % 2 == 0))
            res = residual(sc, assoc, powers)
            if residual_norms(res)[1] <= 1e-9:
                continue
            grads = potential_gradient(sc, assoc, powers)
            inner = sum(float(np.dot(s, g)) for s, g in zip(res, grads))
            assert inner > 0.0


def test_lipschitz_ratios_are_finite():
    sc = make_scenario(4, 1, 5, seed=77)
    assoc = np.zeros(4, dtype=int)
    rng = np.random.default_rng(9)
    max_s, max_g = 0.0, 0.0
    for _ in range(50):
        p = random_powers(sc, assoc, rng)
        q = random_powers(sc, assoc, rng)
        dp = math.sqrt(sum(float(np.sum((a - b) ** 2)) for a, b in zip(p, q)))
        if dp < 1e-12:
            continue
        sp = np.concatenate(residual(sc, assoc, p))
        sq = np.concatenate(residual(sc, assoc, q))
        gp = np.concatenate(potential_gradient(sc, assoc, p))
        gq = np.concatenate(potential_gradient(sc, assoc, q))
        max_s = max(max_s, float(np.linalg.norm(sp - sq)) / dp)
        max_g = max(max_g, float(np.linalg.norm(gp - gq)) / dp)
    assert math.isfinite(max_s) and math.isfinite(max_g)
    print(f"empirical Lipschitz bounds: residual {max_s:.3g}, gradient {max_g:.3g}")


def test_equilibrium_verdicts_are_log_base_invariant():
    # Recompute switch gains in natural log; verdicts must agree.
    ln2 = math.log(2.0)
    for seed in range(6):
        sc = make_scenario(3, 2, 4, seed=seed + 90)
        rng = np.random.default_rng(seed)
        assoc = rng.integers(0, 2, 3)
        result = a_iwf(sc, assoc, eps_wf=1e-10)
        report = verify_jep(sc, assoc, result.powers, 1e-6)
        nats_ok = True
        for mu in range(3):
            cur_nats = rate(sc, assoc, result.powers, mu) * ln2
            for ap in range(2):
                if ap == int(assoc[mu]):
                    continue
                br_nats = best_response_rate(sc, assoc, result.powers, mu, ap)[0] * ln2
                if br_nats > cur_nats + 1e-6 * ln2:
                    nats_ok = False
        assert nats_ok == report.is_equilibrium


# ---------------------------------------------------------------------------
# Verifiers on the best-reply table against scalar loops over the oracles


def scalar_reports(sc, assoc, powers, eps_power, eps_joint):
    """(power verdict, power violator (mu, ap)), (joint verdict, joint
    violator (mu, ap)) and the per-MU switch gains, from rate and
    best_response_rate one (MU, AP) pair at a time."""
    n = sc.num_mus
    cur = [rate(sc, assoc, powers, i) for i in range(n)]
    viol = []
    for i in range(n):
        _, phi = best_response_rate(sc, assoc, powers, i, int(assoc[i]))
        viol.append(float(np.max(np.abs(phi - powers[i]))))

    def power_part(eps):
        worst = int(np.argmax(viol))
        ok = max(viol) <= eps
        return ok, None if ok else (worst, int(assoc[worst]))

    gains, worst, worst_gain = [0.0] * n, None, -np.inf
    for i in range(n):
        for ap in range(sc.num_aps):
            if ap == int(assoc[i]):
                continue
            gain = best_response_rate(sc, assoc, powers, i, ap)[0] - cur[i]
            gains[i] = max(gains[i], gain)
            if gain > worst_gain:
                worst, worst_gain = (i, ap), gain
    power_ok, power_who = power_part(eps_joint)
    joint_ok = power_ok and max(gains) <= eps_joint
    joint_who = None if joint_ok else (worst if max(gains) > eps_joint else power_who)
    return power_part(eps_power), (joint_ok, joint_who), np.array(gains), np.array(cur)


@pytest.mark.parametrize(
    "n, w, k, seed", [(6, 2, 8, 0), (7, 3, 12, 1), (9, 4, 6, 2), (5, 1, 4, 3), (1, 3, 6, 4)]
)
def test_verifiers_match_scalar_loops(n, w, k, seed):
    sc = make_scenario(n, w, k, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        assoc = rng.integers(0, w, n)
        equilibrium = s_iwf(sc, assoc, eps_wf=1e-12, max_iters=500).powers
        for powers in (equilibrium, uniform_powers(sc, assoc)):
            (p_ok, p_who), (j_ok, j_who), gains, cur = scalar_reports(sc, assoc, powers, 1e-8, 1e-6)
            power = verify_power_ne(sc, assoc, powers, 1e-8)
            joint = verify_jep(sc, assoc, powers, 1e-6)
            assert power.is_equilibrium == p_ok
            assert (power.worst_violator and power.worst_violator[:2]) == p_who
            assert joint.is_equilibrium == j_ok
            assert (joint.worst_violator and joint.worst_violator[:2]) == j_who
            np.testing.assert_allclose(joint.violations, gains, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(power.current_rates, cur, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(joint.current_rates, cur, rtol=1e-12, atol=1e-12)


def test_verify_jep_costs_shift_the_switch_gain(footnote2):
    assoc, powers = [0, 0], [np.array([1.0]), np.array([1.0])]
    gain = 0.5 - 0.5 * math.log2(1.5)
    assert not verify_jep(footnote2, assoc, powers, 1e-6).is_equilibrium
    assert verify_jep(footnote2, assoc, powers, 1e-6, costs=np.full(2, gain + 0.01)).is_equilibrium
    report = verify_jep(footnote2, assoc, powers, 1e-6, costs=np.full(2, gain - 0.01))
    assert not report.is_equilibrium
    assert report.worst_violator[1] == 1
    assert report.worst_violator[2] == pytest.approx(0.01, abs=1e-12)


@pytest.mark.parametrize(
    "assoc, powers",
    [
        ([-1, 1], [[1.0], [1.0]]),  # AP index below range
        ([0, 2], [[1.0], [1.0]]),  # AP index W
        ([0, 1], [[1.0, 0.0], [1.0]]),  # wrong-length power vector
        ([0, 1], [[-0.5], [1.0]]),  # negative power
        ([0, 1], [[np.nan], [1.0]]),  # non-finite power
        ([0.7, 1], [[1.0], [1.0]]),  # fractional AP index
    ],
)
@pytest.mark.parametrize("verify", [verify_jep, verify_power_ne])
def test_verifiers_validate_their_inputs(footnote2, verify, assoc, powers):
    with pytest.raises(ValidationError):
        verify(footnote2, assoc, [np.array(p) for p in powers])


@pytest.mark.parametrize("eps", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("verify", [verify_jep, verify_power_ne])
def test_verifiers_refuse_a_negative_or_non_finite_tolerance(footnote2, verify, eps):
    assoc, powers = [0, 1], [np.array([1.0]), np.array([1.0])]
    with pytest.raises(ValidationError, match="eps"):
        verify(footnote2, assoc, powers, eps)
    assert verify(footnote2, assoc, powers, 0.0).is_equilibrium  # 0 stays valid


@pytest.mark.parametrize(
    "costs",
    [np.full(2, np.nan), np.array([0.1, -0.1]), np.zeros(3), np.inf, [[0.1, 0.1]], [0.5, True]],
)
def test_verify_jep_validates_its_costs(footnote2, costs):
    with pytest.raises(ValidationError, match="connection_cost"):
        verify_jep(footnote2, [0, 1], [np.array([1.0]), np.array([1.0])], 1e-6, costs=costs)


def test_verify_jep_broadcasts_a_scalar_cost(footnote2):
    assoc, powers = [0, 0], [np.array([1.0]), np.array([1.0])]
    for cost in (0.0, 0.3):
        scalar = verify_jep(footnote2, assoc, powers, 1e-6, costs=cost)
        vector = verify_jep(footnote2, assoc, powers, 1e-6, costs=np.full(2, cost))
        assert scalar.violations.tolist() == vector.violations.tolist()
        assert scalar.worst_violator == vector.worst_violator


# ---------------------------------------------------------------------------
# validate_powers checks the vectors stacked; its messages are the loop's.


def validate_powers_reference(scenario, association, powers, tol=1e-12):
    """The per-MU loop that ``validate_powers`` replaced, kept as the oracle
    of its messages."""
    if len(powers) != scenario.num_mus:
        raise ValidationError(f"powers: expected {scenario.num_mus} vectors")
    for i, p in enumerate(powers):
        cols = scenario.chan_idx[int(association[i])]
        p = np.asarray(p)
        if p.shape != cols.shape:
            raise ValidationError(f"powers[{i}]: expected length {cols.size}, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValidationError(f"powers[{i}]: non-finite entry")
        if np.any(p < 0.0):
            raise ValidationError(f"powers[{i}]: negative entry")
        if p.sum() > scenario.budget[i] + tol:
            raise ValidationError(f"powers[{i}]: budget exceeded")


def validation_message(check, *args):
    try:
        check(*args)
    except ValidationError as exc:
        return str(exc)
    return None


# Each fault, faults that fail two checks at once (the earlier check names
# them), and a valid list in place of an array.
FAULTS = {
    "length": lambda p: np.append(p, 0.0),
    "scalar": lambda p: p[0],
    "nan": lambda p: np.where(np.arange(p.size) == p.size - 1, np.nan, p),
    "inf and -inf": lambda p: np.r_[np.inf, -np.inf, p[2:]] if p.size > 1 else -np.inf * p,
    "negative": lambda p: np.r_[-1e-3, p[1:]],
    "budget": lambda p: p * (1.0 + 1e-9),
    "negative over budget": lambda p: np.r_[-1e-3, p[1:] * 3.0],
    "length and nan": lambda p: np.r_[p, np.nan],
    "float32 over budget": lambda p: (p * 1.5).astype(np.float32),
    "list": lambda p: p.tolist(),
}


@pytest.mark.parametrize("first", FAULTS)
def test_validate_powers_reports_what_the_loop_reports(first):
    # Mixed widths (3, 3, 2): this fault at every MU, alone or with any fault
    # at any later MU.
    sc = make_scenario(7, 3, 8, seed=1)
    assoc = np.array([0, 1, 2, 0, 2, 1, 0])
    base = random_powers(sc, assoc, np.random.default_rng(7))  # budgets tight
    n = sc.num_mus
    later = [(None, None)] + [(j, f) for j in range(n) for f in FAULTS]
    for i, (j, second) in itertools.product(range(n), later):
        if j is not None and j <= i:
            continue
        powers = list(base)
        powers[i] = FAULTS[first](base[i])
        if j is not None:
            powers[j] = FAULTS[second](base[j])
        want = validation_message(validate_powers_reference, sc, assoc, powers)
        assert validation_message(validate_powers, sc, assoc, powers) == want, (i, j, second)
        if first != "list":
            assert want is not None and want.startswith(f"powers[{i}]")


def test_validate_powers_budget_sums_are_each_vectors_own_sum():
    # Each MU's budget is the smaller of its vector's p.sum() (pairwise) and
    # its member-order sum, which rounds differently; a sum in the other
    # order would flip the verdict.
    sc = make_scenario(6, 2, 40, seed=4)
    assoc = np.arange(6) % 2
    rng = np.random.default_rng(3)
    powers, budgets = [], []
    while len(powers) < sc.num_mus:
        p = rng.dirichlet(np.ones(20)) * 10.0 ** rng.uniform(-2, 2)
        ordered = functools.reduce(operator.add, p.tolist())
        if ordered != p.sum():
            powers.append(p)
            budgets.append(min(ordered, p.sum()))
    verdicts = []
    for i in range(sc.num_mus):
        budget = np.full(sc.num_mus, 1e3)
        budget[i] = budgets[i]
        trial = dataclasses.replace(sc, budget=budget)
        got = validation_message(validate_powers, trial, assoc, powers, 0.0)
        assert got == validation_message(validate_powers_reference, trial, assoc, powers, 0.0)
        verdicts.append(got)
    assert None in verdicts and len(set(verdicts)) > 1  # some pass, some fail


@pytest.mark.parametrize(
    "check, field",
    [
        (lambda sc: validate_association(sc, [0, 1, 0]), "association: expected shape"),
        (lambda sc: validate_association(sc, [[0, 1]]), "association: expected shape"),
        (lambda sc: validate_powers(sc, [0, 1], [np.ones(2)]), "powers: expected 2 vectors"),
        # numpy turns a boolean among integers into an integer, and raises its
        # own ValueError on a ragged list: each used to solve or to escape.
        (lambda sc: a_iwf(sc, [1, True]), "association: expected integers or reals, got a boolean"),
        (lambda sc: a_iwf(sc, [[0, 1], [0]]), "association: expected a rectangular array"),
        (lambda sc: solve_profiles(sc, [[0, True]]), "associations: expected integers or reals"),
        (lambda sc: solve_profiles(sc, [[0, 1], [0]]), "associations: expected a rectangular"),
        # sum_rate used to broadcast a short vector, and sum negated powers.
        (lambda sc: sum_rate(sc, [0, 1], [np.ones(3), np.ones(2)]), r"powers\[0\]: expected length 2"),
        (lambda sc: sum_rate(sc, [0, 1], [np.full(2, 0.1), np.full(2, -0.1)]), r"powers\[1\]: negative"),
    ],
)
def test_profiles_of_the_wrong_size_are_refused_by_name(check, field):
    with pytest.raises(ValidationError, match=field):
        check(make_scenario(2, 2, 4, seed=0))
