import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, minimize

import uplinkgame.inner as inner_module
from uplinkgame import (
    JaspaConfig,
    StepsizeSchedule,
    ValidationError,
    a_iwf,
    closest_ap,
    convergence_diagnostics,
    residual,
    residual_norms,
    s_iwf,
    sum_rate,
    system_potential,
    uniform_powers,
    verify_jep,
    verify_power_ne,
    water_fill,
    wf_operator,
)
from uplinkgame.game import all_rates, per_ap_potential
from uplinkgame.baselines import InnerConfig
from uplinkgame.inner import ProfileLayout, evaluate_profile, solve_profiles

from conftest import make_scenario, random_powers, unusable_ap_scenario


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


@pytest.mark.parametrize("solver", ["a_iwf", "s_iwf"])
def test_iteration_caps_must_be_integers(solver):
    sc = make_scenario(4, 2, 8, seed=0)
    assoc = closest_ap(sc)
    run = a_iwf if solver == "a_iwf" else s_iwf
    for bad in (10.5, "10", None, True):  # operator.index(True) is 1
        with pytest.raises(ValidationError, match="max_iters"):
            InnerConfig(solver=solver, max_iters=bad)
        with pytest.raises(ValidationError, match="max_iters"):
            run(sc, assoc, max_iters=bad)
        with pytest.raises(ValidationError, match="max_iters"):
            inner_module.solve_profiles(sc, assoc[None], solver, max_iters=bad)
    config = InnerConfig(solver=solver, max_iters=np.int64(10))
    assert type(config.max_iters) is int
    assert_same_run(config.run(sc, assoc), run(sc, assoc, eps_wf=config.eps_wf, max_iters=10))


def test_schedule_validation():
    with pytest.raises(ValidationError):
        StepsizeSchedule(exponent=0.4)
    with pytest.raises(ValidationError, match="unknown stepsize rule"):
        StepsizeSchedule(rule="custom")
    with pytest.raises(ValidationError):
        StepsizeSchedule().alpha(0)


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
    nan = [np.array([np.nan, 0.1, 0.1]), np.full(3, 0.1)]
    for solver in (a_iwf, s_iwf):
        with pytest.raises(ValidationError, match=r"powers\[0\]: non-finite"):
            solver(sc, [0, 0], initial_powers=nan)


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


@pytest.mark.parametrize("solver", [a_iwf, s_iwf])
@pytest.mark.parametrize("eps_wf, max_iters", [(math.nan, 200), (-1e-8, 200), (1e-8, 0), (1e-8, -5)])
def test_direct_solver_calls_validate_their_settings(solver, eps_wf, max_iters):
    sc = make_scenario(4, 2, 8, seed=0)
    with pytest.raises(ValidationError):
        solver(sc, [0, 1, 0, 1], eps_wf=eps_wf, max_iters=max_iters)


# Every library entry point that takes a tolerance: (the field its refusal
# names, a call with scenario, association, powers and the tolerance).
TOLERANCE_TAKERS = {
    "InnerConfig": ("eps_wf", lambda sc, a, p, eps: InnerConfig(eps_wf=eps)),
    "JaspaConfig.eps_wf": ("eps_wf", lambda sc, a, p, eps: JaspaConfig(eps_wf=eps)),
    "JaspaConfig.eps_eq": ("eps_eq", lambda sc, a, p, eps: JaspaConfig(eps_eq=eps)),
    # A cap, so that eps_wf=0 does not run to the default 100,000 iterations.
    "a_iwf": ("eps_wf", lambda sc, a, p, eps: a_iwf(sc, a, eps_wf=eps, max_iters=50)),
    "s_iwf": ("eps_wf", lambda sc, a, p, eps: s_iwf(sc, a, eps_wf=eps, max_iters=50)),
    "solve_profiles": (
        "eps_wf", lambda sc, a, p, eps: solve_profiles(sc, a[None], eps_wf=eps, max_iters=50)
    ),
    "verify_jep": ("eps", lambda sc, a, p, eps: verify_jep(sc, a, p, eps)),
    "verify_power_ne": ("eps", lambda sc, a, p, eps: verify_power_ne(sc, a, p, eps)),
}


@pytest.mark.parametrize("taker", TOLERANCE_TAKERS)
@pytest.mark.parametrize("eps", ["1e-8", None, True, False])
def test_a_tolerance_must_be_a_real_number(taker, eps):
    # A string or None used to raise a bare TypeError, and a bool was read as
    # 1 or 0: a_iwf with eps_wf=True stopped after 0 iterations.
    field, call = TOLERANCE_TAKERS[taker]
    sc = make_scenario(4, 2, 8, seed=0)
    assoc = closest_ap(sc)
    with pytest.raises(ValidationError, match=f"^{field} must be a number"):
        call(sc, assoc, uniform_powers(sc, assoc), eps)


@pytest.mark.parametrize("taker", TOLERANCE_TAKERS)
@pytest.mark.parametrize("eps", [np.float64(1e-6), np.float32(1e-6), 0])
def test_a_tolerance_may_be_any_real_number(taker, eps):
    sc = make_scenario(4, 2, 8, seed=0)
    assoc = closest_ap(sc)
    TOLERANCE_TAKERS[taker][1](sc, assoc, uniform_powers(sc, assoc), eps)


@pytest.mark.parametrize("exponent", ["0.6", None, True])
@pytest.mark.parametrize("rule", ["polynomial", "safeguarded", "harmonic"])
def test_schedule_exponent_must_be_a_number(rule, exponent):
    with pytest.raises(ValidationError, match="^exponent must be a number"):
        StepsizeSchedule(rule=rule, exponent=exponent)


@pytest.mark.parametrize(
    "call",
    [
        lambda sc: InnerConfig(schedule="safeguarded"),
        lambda sc: JaspaConfig(schedule="safeguarded"),
        lambda sc: a_iwf(sc, closest_ap(sc), schedule="safeguarded"),
        lambda sc: solve_profiles(sc, closest_ap(sc)[None], "a_iwf", schedule="safeguarded"),
    ],
    ids=["InnerConfig", "JaspaConfig", "a_iwf", "solve_profiles"],
)
def test_schedule_must_be_a_stepsize_schedule(call):
    # A string was accepted, and the run then failed with an AttributeError.
    with pytest.raises(ValidationError, match="^schedule must be a StepsizeSchedule"):
        call(make_scenario(4, 2, 8, seed=0))


def test_a_nan_residual_never_reads_as_converged(monkeypatch):
    # A water-fill whose first row comes back NaN makes the residual NaN,
    # which must not stop the solve.
    real = inner_module.water_fill_batch

    def nan_rows(*args):
        phi, levels = real(*args)
        phi[0] = np.nan
        return phi, levels

    monkeypatch.setattr(inner_module, "water_fill_batch", nan_rows)
    sc = make_scenario(4, 2, 6, seed=0)
    result = s_iwf(sc, [0, 1, 0, 1], max_iters=3)
    res_inf = evaluate_profile(sc, [0, 1, 0, 1], uniform_powers(sc, [0, 1, 0, 1]))[0]
    assert not result.converged and result.iterations == 3
    assert math.isnan(res_inf)


def test_inner_solvers_give_an_unusable_ap_zero_power():
    # MU 0 at AP 1, where every one of its gains vanishes: both solvers
    # converge, s_iwf's exact step gives it power 0.0 and a_iwf's steps take
    # it toward 0; the profile's metrics stay finite.
    sc = unusable_ap_scenario()
    assoc = [1, 0, 0, 0]
    exact = s_iwf(sc, assoc)
    assert exact.converged
    assert np.array_equal(exact.powers[0], np.zeros(3))
    metrics = evaluate_profile(sc, assoc, exact.powers)
    assert np.isfinite(metrics[:4]).all() and np.isfinite(metrics[4]).all()
    assert metrics[4][0] == 0.0
    averaged = a_iwf(sc, assoc)
    assert averaged.converged
    assert averaged.powers[0].max() <= 1e-8


def test_multi_ap_inner_solves_each_cell():
    sc = make_scenario(4, 2, 6, seed=6)
    assoc = np.array([0, 1, 0, 1])
    result = a_iwf(sc, assoc, eps_wf=1e-9)
    assert result.converged
    for i in range(4):
        phi = wf_operator(sc, assoc, result.powers, i)
        assert np.max(np.abs(phi - result.powers[i])) <= 1e-8


# ---------------------------------------------------------------------------
# The safeguarded rule

SAFEGUARDED = StepsizeSchedule(rule="safeguarded")


def test_safeguarded_schedule_values_and_validation():
    paper = StepsizeSchedule()
    assert all(SAFEGUARDED.alpha(t) == paper.alpha(t) for t in range(1, 500))
    with pytest.raises(ValidationError):
        StepsizeSchedule(rule="safeguarded", exponent=0.4)


def test_block_alpha_holds_half_only_under_the_safeguarded_rule():
    paper = StepsizeSchedule()
    held = np.array([True, False, True])
    assert SAFEGUARDED.block_alpha(3, held).tolist() == [0.5, paper.alpha(3), 0.5]
    assert paper.block_alpha(3, held).tolist() == [paper.alpha(3)] * 3
    assert SAFEGUARDED.block_alpha(7, True) == inner_module.SAFEGUARD_ALPHA
    assert SAFEGUARDED.block_alpha(7, False) == paper.alpha(7)
    assert paper.block_alpha(7, True) == paper.alpha(7)
    with pytest.raises(ValidationError):
        SAFEGUARDED.block_alpha(0, True)


def _first_drop(potential):
    drops = np.flatnonzero(np.diff(potential) < 0)
    return int(drops[0] + 1) if drops.size else None


@pytest.mark.parametrize("n, k, seed, drop", [(10, 16, 0, 77), (30, 8, 3, 380)])
def test_safeguarded_holds_half_until_first_potential_drop(n, k, seed, drop):
    # One AP: the trace's potential is the block's potential.
    sc = make_scenario(n, 1, k, seed=seed)
    result = a_iwf(sc, np.zeros(n, dtype=int), schedule=SAFEGUARDED, eps_wf=1e-8)
    assert result.converged
    tr = result.trace
    assert _first_drop(tr.potential) == drop
    assert np.all(tr.alpha[:drop] == inner_module.SAFEGUARD_ALPHA)
    after = [SAFEGUARDED.alpha(j + 1) for j in range(drop, result.iterations)]
    assert tr.alpha[drop:-1].tolist() == after
    assert math.isnan(tr.alpha[-1])


def test_safeguarded_converges_monotonically_on_desk_set():
    for seed in range(20):
        sc = make_scenario(10, 1, 16, seed=seed)
        result = a_iwf(
            sc, np.zeros(10, dtype=int), schedule=SAFEGUARDED, eps_wf=1e-6, max_iters=50_000
        )
        diag = convergence_diagnostics(result.trace, eps=1e-6)
        assert result.converged and diag.residual_converged
        assert diag.monotone_from == 0


def test_safeguarded_blocks_release_independently():
    # Two APs whose blocks first drop at evaluations 55 and 98 when solved
    # alone: the first drop leaves the other block at the constant step, so
    # each block follows its own solve bit for bit.
    sc = make_scenario(12, 2, 16, seed=3)
    assoc = closest_ap(sc)
    steps = 150
    joint = a_iwf(sc, assoc, schedule=SAFEGUARDED, eps_wf=0.0, max_iters=steps)
    drops = []
    for ap in range(2):
        mus = np.flatnonzero(assoc == ap)
        alone = dataclasses.replace(
            sc, num_mus=mus.size, gain_sq=sc.gain_sq[mus], budget=sc.budget[mus],
            mu_positions=sc.mu_positions[mus], connection_cost=sc.connection_cost[mus],
        )
        own = a_iwf(alone, assoc[mus], schedule=SAFEGUARDED, eps_wf=0.0, max_iters=steps)
        drops.append(_first_drop(own.trace.potential))
        for j, i in enumerate(mus):
            assert np.array_equal(joint.powers[i], own.powers[j])
    assert drops == [55, 98]
    # The largest block step stays at the constant until the later drop.
    assert np.all(joint.trace.alpha[:98] == inner_module.SAFEGUARD_ALPHA)
    assert joint.trace.alpha[98] == SAFEGUARDED.alpha(99)


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
    res_inf, res_two, potential, total, rates, ap_pot = evaluate_profile(sc, assoc, powers)
    want_inf, want_two = residual_norms(residual(sc, assoc, powers))
    close = dict(rel=1e-12, abs=1e-12)
    assert res_inf == pytest.approx(want_inf, **close)
    assert res_two == pytest.approx(want_two, **close)
    assert potential == pytest.approx(system_potential(sc, assoc, powers), **close)
    assert total == pytest.approx(sum_rate(sc, assoc, powers), **close)
    np.testing.assert_allclose(rates, all_rates(sc, assoc, powers), rtol=1e-12, atol=1e-12)
    want_ap = [per_ap_potential(sc, assoc, powers, ap) for ap in range(w)]
    np.testing.assert_allclose(ap_pot, want_ap, rtol=1e-12, atol=1e-12)
    assert sum(ap_pot.tolist()) == potential  # AP order, from 0.0


def _count_water_fills(monkeypatch):
    calls = []
    real = inner_module.water_fill_batch

    def counted(*args):
        calls.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(inner_module, "water_fill_batch", counted)
    return calls


def _block_widths(scenario, association):
    return {scenario.chan_idx[ap].size for ap in np.unique(association)}


@pytest.mark.parametrize("n, w, k, widths", [(16, 4, 48, 1), (10, 3, 16, 2)])
def test_a_iwf_makes_one_water_fill_per_iteration(monkeypatch, n, w, k, widths):
    # Blocks of every width share one padded evaluation.
    sc = make_scenario(n, w, k, seed=13)
    assoc = np.arange(n) % w
    assert len(_block_widths(sc, assoc)) == widths
    calls = _count_water_fills(monkeypatch)
    result = a_iwf(sc, assoc, eps_wf=1e-6)
    assert result.iterations > 0
    assert len(calls) == result.iterations + 1
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


@pytest.mark.parametrize("n, w, k, eps_wf", [(30, 3, 50, 1e-10), (200, 10, 256, 1e-8)])
def test_mixed_width_s_iwf_makes_one_water_fill_per_member_slot(monkeypatch, n, w, k, eps_wf):
    # Closest-AP blocks of two widths: a round makes one call per member slot
    # of the largest block, whatever its width, and no evaluation water-fills
    # a pad member's row.
    sc = make_scenario(n, w, k, seed=1)
    assoc = closest_ap(sc)
    assert len(_block_widths(sc, assoc)) == 2
    largest = int(np.bincount(assoc).max())
    calls = _count_water_fills(monkeypatch)
    result = s_iwf(sc, assoc, eps_wf=eps_wf)
    assert result.converged and result.iterations > 0
    assert len(calls) == (result.iterations + 1) + largest * result.iterations
    assert sum(rows for rows, _ in calls) == n * (2 * result.iterations + 1)
    assert {cols for _, cols in calls} == {max(_block_widths(sc, assoc))}


def gauss_seidel_reference(scenario, association, eps_wf=1e-8, max_iters=100_000):
    """Sequential iterative water-filling written MU by MU: each MU's floor
    is its AP block's received total minus its own received power, divided
    by its gain. Returns the trace rows (potential, sum rate, residual inf-
    and 2-norm) of s_iwf's evaluations, the final powers and the converged
    flag."""
    assoc = np.asarray(association)
    powers = uniform_powers(scenario, assoc)
    rows = []
    for t in range(max_iters + 1):
        res_inf, res_two = residual_norms(residual(scenario, assoc, powers))
        rows.append([system_potential(scenario, assoc, powers), sum_rate(scenario, assoc, powers),
                     res_inf, res_two])
        if res_inf <= eps_wf or t == max_iters:
            return np.array(rows), powers, res_inf <= eps_wf
        for mu in range(scenario.num_mus):
            cols = scenario.chan_idx[assoc[mu]]
            gain = scenario.gain_sq[:, cols]
            members = np.flatnonzero(assoc == assoc[mu])
            total = scenario.noise[cols] + np.sum([gain[j] * powers[j] for j in members], axis=0)
            others = total - gain[mu] * powers[mu]
            powers[mu] = water_fill(gain[mu], others, scenario.budget[mu]).powers


@pytest.mark.parametrize(
    "n, w, k, seed, assoc",
    [
        (9, 2, 31, 5, [1, 1, 0, 1, 0, 0, 1, 1, 1]),  # widths 16 and 15, 24 rounds
        (12, 5, 9, 7, [3, 1, 4, 2, 2, 2, 2, 2, 2, 4, 4, 3]),  # width 1 beside width 2, 4 rounds
        (10, 4, 6, 5, [2, 2, 0, 3, 2, 1, 0, 2, 3, 3]),  # width-1 blocks of 3 and 4 members
    ],
)
def test_mixed_width_s_iwf_follows_the_mu_by_mu_reference(n, w, k, seed, assoc):
    sc = make_scenario(n, w, k, seed=seed)
    assert len(_block_widths(sc, assoc)) == 2
    result = s_iwf(sc, assoc, eps_wf=1e-10)
    rows, powers, converged = gauss_seidel_reference(sc, assoc, eps_wf=1e-10)
    assert result.converged and converged and result.iterations == len(rows) - 1
    tr = result.trace
    got = np.column_stack([tr.potential, tr.sum_rate, tr.residual_inf, tr.residual_two])
    np.testing.assert_allclose(got, rows, rtol=1e-12, atol=1e-12)
    for mine, want in zip(result.powers, powers):
        np.testing.assert_allclose(mine, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "n, w, k, seed",
    [
        (31, 2, 31, 0),  # widths 16 and 15
        (20, 2, 3, 2),  # a width-1 block of 10 members beside a width-2 block
    ],
)
def test_mixed_width_s_iwf_equals_each_block_solved_alone(n, w, k, seed):
    # Bit for bit: pad channels and pad members move no bit of a block's
    # powers or potential, whatever the other blocks' widths.
    sc = make_scenario(n, w, k, seed=seed)
    assoc = np.arange(n) % w
    assert len(_block_widths(sc, assoc)) == 2
    joint = s_iwf(sc, assoc, eps_wf=0.0, max_iters=6)
    rounds = joint.iterations
    potential, res_inf = np.zeros(rounds + 1), np.zeros(rounds + 1)
    for ap in range(w):
        mus = np.flatnonzero(assoc == ap)
        alone = dataclasses.replace(
            sc, num_mus=mus.size, gain_sq=sc.gain_sq[mus], budget=sc.budget[mus],
            mu_positions=sc.mu_positions[mus], connection_cost=sc.connection_cost[mus],
        )
        own = s_iwf(alone, assoc[mus], eps_wf=0.0, max_iters=rounds)
        # A block that reaches residual 0 stops early; its later rounds would
        # repeat its last evaluation.
        tail = (0, rounds - own.iterations)
        potential += np.pad(own.trace.potential, tail, mode="edge")  # AP order, from 0.0
        res_inf = np.maximum(res_inf, np.pad(own.trace.residual_inf, tail, mode="edge"))
        for j, i in enumerate(mus):
            assert np.array_equal(joint.powers[i], own.powers[j])
    assert np.array_equal(joint.trace.potential, potential)
    assert np.array_equal(joint.trace.residual_inf, res_inf)


@pytest.mark.parametrize("n, w, k", [(6, 2, 31), (6, 3, 5)])
def test_solve_profiles_on_a_mixed_width_batch_follows_the_reference(n, w, k):
    sc = make_scenario(n, w, k, seed=6)
    batch = np.random.default_rng(0).integers(0, w, (24, n))
    total, potential, converged = inner_module.solve_profiles(sc, batch, eps_wf=1e-10)
    for i, assoc in enumerate(batch):
        rows, _, done = gauss_seidel_reference(sc, assoc, eps_wf=1e-10)
        assert converged[i] == done
        assert potential[i] == pytest.approx(rows[-1, 0], rel=1e-12, abs=1e-12)
        assert total[i] == pytest.approx(rows[-1, 1], rel=1e-12, abs=1e-12)


def test_a_iwf_raises_on_infeasible_step(monkeypatch):
    real = inner_module.water_fill_batch

    def over_budget(*args):
        phi, levels = real(*args)
        return 3.0 * phi, levels

    monkeypatch.setattr(inner_module, "water_fill_batch", over_budget)
    for n, w, k in [(6, 2, 8), (12, 5, 23)]:  # (12,5,23): mixed widths, padded rows
        sc = make_scenario(n, w, k, seed=14)
        with pytest.raises(RuntimeError, match="infeasible"):
            a_iwf(sc, np.arange(n) % w)


# ---------------------------------------------------------------------------
# The trace buffer: _iterate computes the trace columns of buffered
# evaluations in batched passes, which must not move a bit.

BUFFER_SIZES = [(12, 5, 23), (6, 4, 5), (16, 4, 48), (10, 1, 16)]
BUFFER_SOLVERS = {
    "a_iwf": lambda sc, assoc, **kw: a_iwf(sc, assoc, SAFEGUARDED, **kw),
    "s_iwf": s_iwf,
}


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def assert_same_run(run, ref):
    assert (run.iterations, run.converged) == (ref.iterations, ref.converged)
    for name in ("potential", "sum_rate", "residual_inf", "residual_two", "alpha"):
        assert same_bits(getattr(run.trace, name), getattr(ref.trace, name)), name
    assert all(same_bits(p, q) for p, q in zip(run.powers, ref.powers))


def buffer_case(n, w, k):
    sc = make_scenario(n, w, k, seed=3)
    return sc, np.random.default_rng(n).integers(0, w, n)


def evaluation_cells(sc, assoc) -> int:
    """Cells of one buffered evaluation: log totals and block potentials per
    nonempty AP, noise plus interference and residual rows per MU."""
    aps = np.unique(assoc)
    c = max(sc.chan_idx[ap].size for ap in aps)
    return 2 * sc.num_mus * c + aps.size * c + aps.size


@pytest.mark.parametrize("solver", sorted(BUFFER_SOLVERS))
@pytest.mark.parametrize("n, w, k", BUFFER_SIZES)
def test_trace_chunks_do_not_move_a_bit(monkeypatch, n, w, k, solver):
    sc, assoc = buffer_case(n, w, k)
    run = BUFFER_SOLVERS[solver]
    ref = run(sc, assoc, max_iters=40)
    cells = evaluation_cells(sc, assoc)
    real = inner_module.ProfileLayout.metrics
    for per_chunk in (1, 2, 7):
        budget = per_chunk * cells + cells - 1  # room for per_chunk evaluations, not one more
        chunks = []

        def spy(stack, *arrays):
            chunks.append((arrays[0].shape[0], sum(a.size for a in arrays)))
            return real(stack, *arrays)

        monkeypatch.setattr(inner_module, "_TRACE_CELLS", budget)
        monkeypatch.setattr(inner_module.ProfileLayout, "metrics", spy)
        assert_same_run(run(sc, assoc, max_iters=40), ref)
        assert [f for f, _ in chunks[:-1]] == [per_chunk] * (len(chunks) - 1)
        assert sum(f for f, _ in chunks) == ref.iterations + 1
        assert max(size for _, size in chunks) <= budget


@pytest.mark.parametrize("solver", sorted(BUFFER_SOLVERS))
@pytest.mark.parametrize("n, w, k", BUFFER_SIZES)
def test_last_trace_row_is_evaluate_profile_of_the_powers(n, w, k, solver):
    sc, assoc = buffer_case(n, w, k)
    for cap in (1, 2, 5, 17):
        result = BUFFER_SOLVERS[solver](sc, assoc, max_iters=cap)
        res_inf, res_two, potential, total, _, _ = evaluate_profile(sc, assoc, result.powers)
        tr = result.trace
        last = (tr.potential[-1], tr.sum_rate[-1], tr.residual_inf[-1], tr.residual_two[-1])
        assert same_bits(last, (potential, total, res_inf, res_two)), cap


# ---------------------------------------------------------------------------
# The block totals: slot-major ``Z`` must sum every block in member order.


def block_totals_reference(blocks, gp, nb):
    """Noise plus each of the first ``nb`` blocks' members' ``G*P`` rows, over
    the block's own width: added one by one in member order, as a lone block
    sums its rows, except that a width-1 block sums its (members, 1) column
    as numpy sums one column, pairwise (which differs from member order from
    nine members on)."""
    out = []
    for b in range(nb):
        w = int(blocks.width[b])
        rows = gp[blocks.block == b, :w]
        if w == 1:
            total = np.ascontiguousarray(rows[:, 0]).sum(keepdims=True)
        else:
            total = rows[0]
            for row in rows[1:]:
                total = total + row
        out.append(blocks.noise[b, :w] + total)
    return out


@pytest.mark.parametrize(
    "n, w, k, assoc",
    [
        (12, 5, 23, None),
        (6, 4, 5, None),
        (12, 4, 5, [1] * 10 + [0, 2]),  # ten members on a one-channel AP
        (10, 1, 16, None),
        (48, 3, 31, None),  # up to 23 member slots
    ],
)
def test_block_totals_equal_member_order_sums(n, w, k, assoc):
    # Small noise, so that the last bits of every sum reach the totals.
    sc = dataclasses.replace(make_scenario(n, w, k, seed=2), noise=np.full(k, 1e-9))
    rng = np.random.default_rng(n)
    for association in (assoc, closest_ap(sc), rng.integers(0, w, n)):
        if association is None:
            continue
        association = np.asarray(association)
        powers = random_powers(sc, association, rng, slack=True)
        stack = inner_module.ProfileLayout().load(sc, association, powers)
        b = stack.blocks
        gp = b.gain * b.pmat
        b.scatter(gp)
        for nb in sorted(set(b.slots)):
            tot = b.totals(nb)
            assert tot.shape == (nb, b.pmat.shape[1])
            for block, want in enumerate(block_totals_reference(b, gp, nb)):
                width = want.size
                assert same_bits(tot[block, :width], want), (nb, block)
                assert np.all(tot[block, width:] == np.inf)


def same_metrics(got, want) -> bool:
    return all(np.asarray(g).tobytes() == np.asarray(x).tobytes() for g, x in zip(got, want))


@pytest.mark.parametrize("n, w, k", [(12, 5, 23), (6, 4, 5), (10, 2, 16), (1, 2, 4)])
def test_a_reused_layout_evaluates_as_a_fresh_one(n, w, k):
    sc = make_scenario(n, w, k, seed=4)
    rng = np.random.default_rng(n + w)
    layout = ProfileLayout()
    first = rng.integers(0, w, n)
    other = first.copy()
    other[-1] = (other[-1] + 1) % w
    stacks = []
    # Powers change on one association, then the association changes, comes
    # back as an equal copy, and is changed in place by the caller.
    for association in (first, first, first.copy(), other, first):
        for _ in range(3):
            powers = random_powers(sc, association, rng, slack=True)
            got = evaluate_profile(sc, association, powers, layout)
            assert same_metrics(got, evaluate_profile(sc, association, powers))
            stacks.append(layout.blocks)
    association = other.copy()
    evaluate_profile(sc, association, random_powers(sc, association, rng), layout)
    association[0] = (association[0] + 1) % w  # in place, as se_jaspa moves an MU
    powers = random_powers(sc, association, rng)
    got = evaluate_profile(sc, association, powers, layout)
    assert same_metrics(got, evaluate_profile(sc, association, powers))
    # One layout per association run, built on its first evaluation only.
    assert len(set(map(id, stacks[:9]))) == 1
    assert stacks[9] is not stacks[8] and stacks[12] is not stacks[11]


# ---------------------------------------------------------------------------
# _Blocks.subset: the kept blocks, laid out as a fresh _Blocks would be.


LAYOUT_ARRAYS = (
    "block", "mus", "width", "sizes", "starts", "slot", "flat", "z_cells", "cell", "gain",
    "budgets", "noise", "log_noise", "real",
)


@pytest.mark.parametrize("n, w, k", [(6, 4, 5), (12, 5, 23)])
def test_a_subset_is_a_fresh_layout_carrying_the_kept_state(n, w, k):
    sc = make_scenario(n, w, k, seed=1)
    rng = np.random.default_rng(n)
    keys, _ = inner_module._distinct_blocks(sc, rng.integers(0, w, (6, n)))
    keys = keys[keys[:, 0] < 0]  # the nonempty blocks, largest first
    aps, members = keys[:, 2], keys[:, 3:].astype(bool)
    blocks = inner_module._Blocks(sc, aps, members)
    blocks.pmat[blocks.real] = rng.uniform(0.0, 0.2, np.count_nonzero(blocks.real))
    blocks.evaluate()
    blocks.held = rng.random(aps.size) < 0.5
    width = sc.chan_width[aps]
    assert np.unique(width).size == 2  # (6, 4, 5) has width-1 blocks
    # Every third block dropped, the widest ones (C shrinks), the largest one.
    keeps = [np.arange(aps.size) % 3 != 1, width == width.min(), np.arange(aps.size) > 0]
    for keep in keeps:
        assert 0 < np.count_nonzero(keep) < aps.size  # a block is dropped
        sub, fresh = blocks.subset(keep), inner_module._Blocks(sc, aps[keep], members[keep])
        for name in LAYOUT_ARRAYS:
            assert np.array_equal(getattr(sub, name), getattr(fresh, name)), name
        rows = keep[blocks.block]
        c = fresh.pmat.shape[1]
        assert np.array_equal(sub.aps, aps[keep]) and np.array_equal(sub.ids, np.flatnonzero(keep))
        assert np.array_equal(sub.rows, np.flatnonzero(rows))
        assert np.array_equal(sub.pmat, blocks.pmat[rows, :c])
        assert np.array_equal(sub.residual, blocks.residual[rows, :c])
        assert np.array_equal(sub.potential, blocks.potential[keep])
        assert np.array_equal(sub.held, blocks.held[keep])


# ---------------------------------------------------------------------------
# Anderson-accelerated a_iwf: every accepted iterate raises its block
# potential to at least the safeguarded step's, every rejected block takes
# the safeguarded step, every iterate is feasible, and the end point is
# plain a_iwf's.

ACCELERATED_SIZES = [(4, 2, 8), (6, 4, 5), (8, 2, 16), (10, 1, 16), (12, 5, 23)]


def accelerated_cases(n, w, k, start):
    """(scenario, association) at seeds 0-4, from closest_ap or a random draw."""
    for seed in range(5):
        sc = make_scenario(n, w, k, seed=seed)
        rng = np.random.default_rng(100 + seed)
        yield sc, closest_ap(sc) if start == "closest" else rng.integers(0, w, n)


def record_accelerated_steps(monkeypatch):
    """Spy on ``_Blocks.accelerate``: per step, the blocks, the block
    potentials it starts from, the safeguarded step P + beta R, the block
    potentials there and the powers it ends at. The potentials at P + beta R
    are taken after the step, as its own acceptance test last did, so the
    scratch it leaves to the next evaluation is unchanged."""
    real = inner_module._Blocks.accelerate
    steps = []

    def spy(b, t, schedule):
        beta = schedule.block_alpha(t, b.held)
        safe = b.pmat + np.multiply(beta[b.block][:, None], b.residual)
        before = b.potential.copy()
        alpha = real(b, t, schedule)
        steps.append((b, before, safe, b.potentials_at(safe), b.pmat.copy()))
        return alpha

    monkeypatch.setattr(inner_module._Blocks, "accelerate", spy)
    return steps


@pytest.mark.parametrize("start", ["closest", "random"])
@pytest.mark.parametrize("n, w, k", ACCELERATED_SIZES)
def test_accelerated_steps_keep_block_potentials_and_feasibility(monkeypatch, n, w, k, start):
    steps = record_accelerated_steps(monkeypatch)
    extrapolated = 0
    for sc, assoc in accelerated_cases(n, w, k, start):
        steps.clear()
        run = a_iwf(sc, assoc, SAFEGUARDED, accelerate=True)
        assert run.converged and len(steps) == run.iterations
        for j, (b, before, safe, at_safe, after) in enumerate(steps):
            # The block potentials at the iterate this step made.
            reached = steps[j + 1][1] if j + 1 < len(steps) else b.potential
            took_safe = np.array([np.array_equal(after[b.block == i], safe[b.block == i])
                                  for i in range(b.aps.size)])
            assert np.all(took_safe | ((reached > before) & (reached >= at_safe)))
            extrapolated += int(np.count_nonzero(~took_safe))
            assert after.min() >= 0.0
            assert np.all(after.sum(axis=1) <= b.budgets + 1e-9)
    assert extrapolated > 0


@pytest.mark.parametrize("start", ["closest", "random"])
@pytest.mark.parametrize("n, w, k", ACCELERATED_SIZES)
def test_accelerated_a_iwf_ends_at_plain_a_iwf_potential(n, w, k, start):
    for sc, assoc in accelerated_cases(n, w, k, start):
        plain = a_iwf(sc, assoc, SAFEGUARDED, eps_wf=1e-11)
        fast = a_iwf(sc, assoc, SAFEGUARDED, eps_wf=1e-11, accelerate=True)
        assert plain.converged and fast.converged
        assert fast.iterations <= plain.iterations
        assert abs(fast.trace.potential[-1] - plain.trace.potential[-1]) <= 1e-10


def test_accelerated_a_iwf_on_degenerate_blocks_neither_raises_nor_warns():
    # (6,4,5): AP 1 has one channel and only MU 3; AP 2 has one channel and
    # two MUs. In the unusable-AP scenario MU 0 sits alone at AP 1, where
    # every gain vanishes, from zero powers: its response is 0, so its
    # block starts converged and every difference it records is 0.
    sc = make_scenario(6, 4, 5, seed=0)
    lone = np.array([0, 0, 0, 1, 2, 2])
    unusable = unusable_ap_scenario()
    stalled = np.array([1, 0, 0, 0])
    start = uniform_powers(unusable, stalled)
    start[0] = np.zeros_like(start[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for schedule in (SAFEGUARDED, StepsizeSchedule()):
            run = a_iwf(sc, lone, schedule, accelerate=True)
            assert run.converged and run.powers[3] == pytest.approx([sc.budget[3]], abs=1e-15)
            run = a_iwf(unusable, stalled, schedule, initial_powers=start, accelerate=True)
            assert run.converged and run.iterations > 1
            assert not run.powers[0].any()


@pytest.mark.parametrize("n, w, k, seed", [(50, 5, 128, 0), (200, 10, 256, 0), (200, 10, 256, 1)])
def test_accelerated_a_iwf_takes_no_more_iterations_than_plain_at_scale(n, w, k, seed):
    # Weaker acceptance tests stalled here: any extrapolation whose potential
    # falls by at most 1e-12 (seed 1, residual 1e-5 for 100,000 iterations),
    # and rounding-level ties with the safeguarded step (seed 0, 2e-8).
    sc = make_scenario(n, w, k, seed=seed)
    assoc = closest_ap(sc)
    plain = a_iwf(sc, assoc, SAFEGUARDED)
    fast = a_iwf(sc, assoc, SAFEGUARDED, max_iters=plain.iterations, accelerate=True)
    assert plain.converged and fast.converged
    assert abs(fast.trace.potential[-1] - plain.trace.potential[-1]) <= 1e-10
