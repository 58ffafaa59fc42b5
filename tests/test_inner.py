import math

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, minimize

import uplinkgame.inner as inner_module
from uplinkgame import (
    StepsizeSchedule,
    ValidationError,
    a_iwf,
    convergence_diagnostics,
    residual,
    residual_norms,
    s_iwf,
    sum_rate,
    system_potential,
    uniform_powers,
    water_fill,
    wf_operator,
)
from uplinkgame.game import all_rates
from uplinkgame.inner import evaluate_profile

from conftest import make_scenario, random_powers


# ---------------------------------------------------------------------------
# Independent oracle: solve the concave potential maximization directly.


def potential_max_oracle(scenario, association):
    """SLSQP on the (negated) potential over the product of budget simplices."""
    assoc = np.asarray(association)
    sizes = [scenario.chan_idx[int(a)].size for a in assoc]
    offsets = np.cumsum([0] + sizes)

    def unpack(x):
        return [x[offsets[i] : offsets[i + 1]] for i in range(scenario.num_mus)]

    def neg_potential(x):
        return -system_potential(scenario, assoc, unpack(x))

    x0 = np.concatenate(uniform_powers(scenario, assoc))
    constraints = []
    for i in range(scenario.num_mus):
        row = np.zeros(x0.size)
        row[offsets[i] : offsets[i + 1]] = 1.0
        constraints.append(LinearConstraint(row, -np.inf, scenario.budget[i]))
    res = minimize(
        neg_potential,
        x0,
        method="SLSQP",
        bounds=[(0.0, None)] * x0.size,
        constraints=constraints,
        options={"maxiter": 500, "ftol": 1e-14},
    )
    return -res.fun


# ---------------------------------------------------------------------------
# StepsizeSchedule


def test_default_schedule_values_in_unit_interval():
    sched = StepsizeSchedule()
    vals = [sched.alpha(t) for t in range(1, 2000)]
    assert all(0.0 < a < 1.0 for a in vals)
    assert vals == sorted(vals, reverse=True)


def test_harmonic_schedule():
    sched = StepsizeSchedule(rule="harmonic")
    assert sched.alpha(1) == pytest.approx(0.5)
    assert sched.alpha(9) == pytest.approx(0.1)


def test_schedule_validation():
    with pytest.raises(ValidationError):
        StepsizeSchedule(exponent=0.4)
    with pytest.raises(ValidationError):
        StepsizeSchedule(rule="custom")
    bad = StepsizeSchedule(rule="custom", func=lambda t: 1.5)
    with pytest.raises(ValidationError):
        bad.alpha(1)


# ---------------------------------------------------------------------------
# a_iwf


def test_single_mu_converges_to_water_fill():
    sc = make_scenario(1, 1, 6, seed=1)
    result = a_iwf(sc, [0], eps_wf=1e-8)
    assert result.converged
    direct = water_fill(sc.gain_sq[0], sc.noise, sc.budget[0]).powers
    assert np.max(np.abs(result.powers[0] - direct)) <= 1e-8


def test_symmetric_two_user_equilibrium():
    # Two users, one 2-channel AP, all-unit gains: the equilibrium splits each
    # budget evenly. Cross-checked against the concave-program oracle.
    from uplinkgame import NetworkScenario

    sc = NetworkScenario(
        num_mus=2,
        num_aps=1,
        num_channels=2,
        ap_channels=((1, 2),),
        gain_sq=np.ones((2, 2)),
        noise=np.ones(2),
        budget=np.ones(2),
        mu_positions=np.zeros((2, 2)),
        ap_positions=np.zeros((1, 2)),
        connection_cost=np.zeros(2),
    )
    result = a_iwf(sc, [0, 0], eps_wf=1e-10)
    assert result.converged
    for p in result.powers:
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-9)
    oracle = potential_max_oracle(sc, [0, 0])
    assert result.trace.potential[-1] == pytest.approx(oracle, abs=1e-7)


def test_final_potential_matches_oracle_and_s_iwf():
    for seed in range(6):
        sc = make_scenario(4, 1, 5, seed=seed)
        assoc = np.zeros(4, dtype=int)
        res_a = a_iwf(sc, assoc, eps_wf=1e-9)
        res_s = s_iwf(sc, assoc, eps_wf=1e-9)
        assert res_a.converged and res_s.converged
        assert res_a.trace.potential[-1] == pytest.approx(
            res_s.trace.potential[-1], abs=1e-5
        )
        oracle = potential_max_oracle(sc, assoc)
        assert res_a.trace.potential[-1] == pytest.approx(oracle, abs=1e-5)


def test_infeasible_initial_powers_rejected():
    sc = make_scenario(2, 1, 3, seed=2)
    bad = [np.full(3, 1.0), np.full(3, 0.1)]  # first MU exceeds its budget
    with pytest.raises(ValidationError):
        a_iwf(sc, [0, 0], initial_powers=bad)


def test_initial_powers_already_converged():
    sc = make_scenario(1, 1, 4, seed=3)
    wf = water_fill(sc.gain_sq[0], sc.noise, sc.budget[0]).powers
    result = a_iwf(sc, [0], initial_powers=[wf])
    assert result.converged and result.iterations == 0


def test_trace_alignment_and_stopping():
    sc = make_scenario(3, 1, 4, seed=4)
    result = a_iwf(sc, np.zeros(3, dtype=int), eps_wf=1e-8)
    tr = result.trace
    n = len(tr.potential)
    assert len(tr.residual_inf) == n == len(tr.alpha) == len(tr.sum_rate)
    assert result.iterations == n - 1
    assert math.isnan(tr.alpha[-1])
    assert tr.residual_inf[-1] <= 1e-8
    assert np.all(tr.residual_inf[:-1] > 1e-8)


def test_max_iters_reports_not_converged():
    sc = make_scenario(4, 1, 6, seed=5)
    result = a_iwf(sc, np.zeros(4, dtype=int), eps_wf=1e-12, max_iters=5)
    assert not result.converged
    assert result.iterations == 5


def test_multi_ap_inner_solves_each_cell():
    sc = make_scenario(4, 2, 6, seed=6)
    assoc = np.array([0, 1, 0, 1])
    result = a_iwf(sc, assoc, eps_wf=1e-9)
    assert result.converged
    for i in range(4):
        phi = wf_operator(sc, assoc, result.powers, i)
        assert np.max(np.abs(phi - result.powers[i])) <= 1e-8


# ---------------------------------------------------------------------------
# s_iwf


def test_s_iwf_single_mu_one_round():
    sc = make_scenario(1, 1, 5, seed=7)
    result = s_iwf(sc, [0])
    assert result.converged
    assert result.iterations == 1


def test_potential_never_decreases_across_individual_updates():
    # Each exact water-fill step is block-coordinate ascent on the potential.
    sc = make_scenario(4, 1, 6, seed=8)
    assoc = np.zeros(4, dtype=int)
    rng = np.random.default_rng(0)
    powers = random_powers(sc, assoc, rng)
    last = system_potential(sc, assoc, powers)
    for _ in range(3):
        for mu in range(4):
            powers[mu] = wf_operator(sc, assoc, powers, mu)
            now = system_potential(sc, assoc, powers)
            assert now >= last - 1e-12
            last = now


def test_s_iwf_trace_monotone_from_start():
    sc = make_scenario(5, 1, 6, seed=9)
    result = s_iwf(sc, np.zeros(5, dtype=int))
    assert result.converged
    diag = convergence_diagnostics(result.trace)
    assert diag.monotone_from == 0
    assert diag.residual_converged


# ---------------------------------------------------------------------------
# Diagnostics


def test_diagnostics_on_converged_run():
    sc = make_scenario(4, 1, 5, seed=10)
    result = a_iwf(sc, np.zeros(4, dtype=int), eps_wf=1e-8)
    diag = convergence_diagnostics(result.trace, eps=1e-8)
    assert diag.residual_converged
    assert 0 <= diag.monotone_from < len(result.trace.potential)
    assert math.isfinite(diag.stepsize_weighted_residual)
    assert diag.final_residual_inf <= 1e-8


def test_diagnostics_constant_trace_at_equilibrium():
    sc = make_scenario(1, 1, 3, seed=11)
    wf = water_fill(sc.gain_sq[0], sc.noise, sc.budget[0]).powers
    result = a_iwf(sc, [0], initial_powers=[wf])
    diag = convergence_diagnostics(result.trace)
    assert diag.monotone_from == 0
    assert diag.final_residual_inf <= 1e-15


# ---------------------------------------------------------------------------
# Stacked-row kernel


@pytest.mark.parametrize(
    "n, w, k, assoc",
    [
        (10, 3, 16, [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]),  # block widths 6/5/5
        (10, 3, 16, [0, 2, 2, 0, 2, 0, 0, 2, 2, 0]),  # AP 1 empty
        (6, 1, 5, [0] * 6),  # W = 1
        (1, 3, 8, [1]),  # N = 1
        (9, 4, 6, [0, 1, 2, 3, 3, 2, 1, 0, 3]),  # width-1 blocks beside width-2
    ],
)
def test_evaluate_profile_matches_scalar_oracles(n, w, k, assoc):
    sc = make_scenario(n, w, k, seed=12)
    assoc = np.asarray(assoc)
    powers = random_powers(sc, assoc, np.random.default_rng(n + w + k), slack=True)
    res_inf, res_two, potential, total, rates = evaluate_profile(sc, assoc, powers)
    want_inf, want_two = residual_norms(residual(sc, assoc, powers))
    close = dict(rel=1e-12, abs=1e-12)
    assert res_inf == pytest.approx(want_inf, **close)
    assert res_two == pytest.approx(want_two, **close)
    assert potential == pytest.approx(system_potential(sc, assoc, powers), **close)
    assert total == pytest.approx(sum_rate(sc, assoc, powers), **close)
    np.testing.assert_allclose(rates, all_rates(sc, assoc, powers), rtol=1e-12, atol=1e-12)


def _count_water_fills(monkeypatch):
    calls = []
    real = inner_module.water_fill_batch

    def counted(floors, budgets):
        calls.append(floors.shape)
        return real(floors, budgets)

    monkeypatch.setattr(inner_module, "water_fill_batch", counted)
    return calls


@pytest.mark.parametrize("n, w, k, widths", [(16, 4, 48, 1), (10, 3, 16, 2)])
def test_a_iwf_makes_one_water_fill_per_block_width_per_iteration(
    monkeypatch, n, w, k, widths
):
    sc = make_scenario(n, w, k, seed=13)
    assoc = np.arange(n) % w
    calls = _count_water_fills(monkeypatch)
    result = a_iwf(sc, assoc, eps_wf=1e-6)
    assert result.iterations > 0
    assert len(calls) == widths * (result.iterations + 1)
    assert sum(rows for rows, _ in calls) == n * (result.iterations + 1)


def test_s_iwf_makes_one_water_fill_per_member_slot(monkeypatch):
    # Four APs with four members each: one call per evaluation plus one per
    # member slot of every round.
    sc = make_scenario(16, 4, 48, seed=13)
    calls = _count_water_fills(monkeypatch)
    result = s_iwf(sc, np.arange(16) % 4, eps_wf=1e-10)
    assert result.iterations > 0
    assert len(calls) == (result.iterations + 1) + 4 * result.iterations
    assert sum(rows for rows, _ in calls) == 16 * (2 * result.iterations + 1)


def test_a_iwf_raises_on_infeasible_step(monkeypatch):
    sc = make_scenario(6, 2, 8, seed=14)
    real = inner_module.water_fill_batch

    def over_budget(floors, budgets):
        phi, levels = real(floors, budgets)
        return 3.0 * phi, levels

    monkeypatch.setattr(inner_module, "water_fill_batch", over_budget)
    with pytest.raises(RuntimeError, match="infeasible"):
        a_iwf(sc, np.arange(6) % 2)
