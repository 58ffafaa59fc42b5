import importlib
import warnings

import numpy as np
import pytest

from uplinkgame import (
    JaspaConfig,
    StepsizeSchedule,
    ValidationError,
    a_iwf,
    game,
    j_jaspa,
    jaspa,
    s_iwf,
    se_jaspa,
    si_jaspa,
    uniform_powers,
    update_beta,
    verify_jep,
    verify_power_ne,
    waterfill,
    wf_operator,
)
from uplinkgame.inner import SAFEGUARD_ALPHA, ProfileLayout, evaluate_profile, keeps_hold
from uplinkgame.jaspa import new_state, per_mu_rngs, sample_associations, uniform_picks
from uplinkgame.game import validate_costs
from uplinkgame.jjaspa import ApMemory, ap_memory_update
from uplinkgame.waterfill import best_reply_table

from conftest import footnote_network, make_scenario, unusable_ap_scenario


def fresh_state(n=3, w=3, m=4):
    sc = make_scenario(n, w, max(w, 4), seed=0)
    assoc = np.zeros(n, dtype=int)
    from uplinkgame import uniform_powers

    return new_state(sc, assoc, uniform_powers(sc, assoc), m)


# ---------------------------------------------------------------------------
# Probability-vector bookkeeping


def test_first_push_sets_beta_to_reply():
    state = fresh_state()
    update_beta(state, 0, 1)
    assert state.beta[0].tolist() == [0.0, 1.0, 0.0]


def test_eviction_example():
    state = fresh_state(m=2)
    update_beta(state, 0, 0)
    update_beta(state, 0, 1)
    assert state.beta[0].tolist() == [0.5, 0.5, 0.0]
    update_beta(state, 0, 1)  # evicts the e_0 entry
    assert state.beta[0].tolist() == [0.0, 1.0, 0.0]
    assert list(state.memory[0]) == [1, 1]


def test_memory_saturation_reaches_unit_vector():
    state = fresh_state(m=3)
    for ap in (0, 1, 2):
        update_beta(state, 1, ap)
    for _ in range(3):
        update_beta(state, 1, 1)
    np.testing.assert_allclose(state.beta[1], [0.0, 1.0, 0.0], atol=1e-12)


def test_beta_stays_normalized_and_equals_memory_mean():
    state = fresh_state(n=2, w=3, m=7)
    rng = np.random.default_rng(1)
    for step in range(500):
        mu = step % 2
        update_beta(state, mu, int(rng.integers(3)))
        assert abs(state.beta[mu].sum() - 1.0) <= 1e-12
        if len(state.memory[mu]) == 7:
            counts = np.bincount(list(state.memory[mu]), minlength=3)
            np.testing.assert_allclose(state.beta[mu], counts / 7.0, atol=1e-12)


def test_sample_association_respects_support():
    rng = np.random.default_rng(2)
    probs = np.array([0.0, 0.25, 0.75])
    draws = {int(sample_associations([rng], probs[None])[0]) for _ in range(200)}
    assert draws <= {1, 2}


@pytest.mark.parametrize("n, w, seed", [(8, 2, 0), (16, 4, 1), (5, 7, 2), (1, 3, 3), (6, 1, 4)])
def test_uniform_picks_equal_the_per_mu_loop(n, w, seed):
    got_rngs, want_rngs = per_mu_rngs(seed, n), per_mu_rngs(seed, n)
    masks = np.random.default_rng(seed)
    for _ in range(20):
        mask = masks.random((n, w)) < 0.4
        mask[np.arange(n), masks.integers(0, w, n)] = True
        want = []
        for row, rng in zip(mask, want_rngs):
            members = np.flatnonzero(row)
            want.append(members[int(rng.integers(members.size))])
        assert uniform_picks(mask, got_rngs).tolist() == want
    # Each stream was drawn from exactly as often.
    assert [r.random() for r in got_rngs] == [r.random() for r in want_rngs]


@pytest.mark.parametrize("n, w, seed", [(8, 2, 0), (16, 4, 1), (3, 1, 2)])
def test_sample_associations_equal_per_mu_draws(n, w, seed):
    state = fresh_state(n, w, m=7)
    replies = np.random.default_rng(seed)
    got_rngs, want_rngs = per_mu_rngs(seed, n), per_mu_rngs(seed, n)
    for _ in range(30):  # past saturation, where the bookkeeping drifts
        for mu in range(n):
            update_beta(state, mu, int(replies.integers(w)))
        want = []
        for rng, probs in zip(want_rngs, state.beta):
            u = rng.random()
            want.append(min(int(np.searchsorted(np.cumsum(probs), u, side="right")), w - 1))
        assert sample_associations(got_rngs, state.beta).tolist() == want


# ---------------------------------------------------------------------------
# jaspa


def test_config_validation():
    with pytest.raises(ValidationError):
        JaspaConfig(memory_len=0)
    with pytest.raises(ValidationError):
        JaspaConfig(selection="argmax")
    with pytest.raises(ValidationError):
        JaspaConfig(inner_solver="gradient")
    for bad in ({"eps_wf": -1.0}, {"eps_eq": -1.0}, {"eps_wf": float("nan")}, {"eps_eq": np.inf}):
        with pytest.raises(ValidationError):
            JaspaConfig(**bad)
    JaspaConfig(eps_wf=0.0, eps_eq=0.0)
    # Connection costs follow NetworkScenario's rule, checked when a run starts.
    sc = make_scenario(3, 2, 4, seed=1)
    for cost in (float("nan"), np.inf, -1.0, [0.0, 1.0], [0.0, -0.1, 0.0], "abc", True, "0.5",
                 [True, False, True], [0.5, True, 0]):
        for algo in (jaspa, si_jaspa):
            with pytest.raises(ValidationError, match="connection_cost"):
                algo(sc, JaspaConfig(memory_len=3, connection_cost=cost, max_outer=5))
    for cost in (0.0, [0.0, 0.5, 1.0]):
        jaspa(sc, JaspaConfig(memory_len=3, connection_cost=cost, max_outer=5))


@pytest.mark.parametrize("schedule", [None, "safeguarded", 0.5])
def test_config_schedule_must_be_a_stepsize_schedule(schedule):
    # None used to pass: jaspa then ran a_iwf's polynomial default, and
    # si_jaspa and j_jaspa raised AttributeError.
    with pytest.raises(ValidationError, match="schedule"):
        JaspaConfig(schedule=schedule)


@pytest.mark.parametrize("field", ["memory_len", "max_outer", "max_inner", "coalition_cap"])
def test_config_counts_must_be_integers(field):
    for bad in (10.5, True):  # operator.index(True) is 1
        with pytest.raises(ValidationError, match=field):
            JaspaConfig(**{field: bad})
    value = getattr(JaspaConfig(**{field: np.int64(40)}), field)
    assert type(value) is int and value == 40


@pytest.mark.parametrize("seed", [-1, 4.5, "3", None, False, True])
def test_config_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ValidationError, match="seed"):
        JaspaConfig(seed=seed)


def test_config_seed_is_stored_as_a_python_int():
    seed = JaspaConfig(seed=np.uint8(7)).seed
    assert type(seed) is int and seed == 7


@pytest.mark.parametrize("algo", [jaspa, se_jaspa, si_jaspa, j_jaspa])
def test_numpy_integer_counts_run_every_dynamic(algo):
    sc = make_scenario(3, 2, 4, seed=1)
    counts = dict(memory_len=4, max_outer=30, max_inner=200, coalition_cap=1000)
    want = algo(sc, JaspaConfig(seed=2, **counts))
    got = algo(sc, JaspaConfig(seed=2, **{k: np.int64(v) for k, v in counts.items()}))
    assert got.rows == want.rows and got.converged == want.converged


def test_short_memory_warns():
    sc = make_scenario(3, 2, 4, seed=1)
    with pytest.warns(UserWarning, match="memory_len"):
        jaspa(sc, JaspaConfig(memory_len=2, seed=0, max_outer=50))


def test_jaspa_warns_when_its_solves_stop_above_the_gate_tolerance():
    sc = make_scenario(8, 2, 16, seed=3)
    with pytest.warns(UserWarning, match=r"eps_wf=0\.05 > eps_eq=1e-06"):
        jaspa(sc, JaspaConfig(memory_len=8, seed=3, eps_wf=0.05, max_outer=20))


@pytest.mark.parametrize(
    "algo, eps",
    [(jaspa, {}), (jaspa, {"eps_wf": 1e-6, "eps_eq": 1e-6}),
     # their residuals keep falling once the association settles
     (si_jaspa, {"eps_wf": 0.05}), (j_jaspa, {"eps_wf": 0.05})],
)
def test_no_warning_when_the_gate_tolerance_can_be_met(algo, eps):
    sc = make_scenario(8, 2, 16, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        algo(sc, JaspaConfig(memory_len=8, seed=3, max_outer=20, **eps))


def test_single_ap_terminates_after_memory_plus_one():
    sc = make_scenario(3, 1, 4, seed=2)
    cfg = JaspaConfig(memory_len=4, seed=3, max_outer=100)
    result = jaspa(sc, cfg)
    assert result.converged
    assert result.outer_iterations == cfg.memory_len + 1
    assert result.association.tolist() == [0, 0, 0]
    report = verify_power_ne(sc, result.association, result.powers, 1e-7)
    assert report.is_equilibrium


@pytest.mark.filterwarnings("ignore:memory_len")
def test_footnote_network_splits_and_greedy_oscillates(footnote2):
    split = jaspa(
        footnote2,
        JaspaConfig(memory_len=2, seed=5, max_outer=2000,
                    initial_association=np.array([0, 0])),
    )
    assert split.converged
    assert sorted(split.association.tolist()) == [0, 1]
    assert split.rows[-1].sum_rate == 1.0  # exactly, log2(2) per user / K=2
    assert split.jep_report.is_equilibrium

    greedy = jaspa(
        footnote2,
        JaspaConfig(memory_len=1, selection="best", seed=5, max_outer=150,
                    initial_association=np.array([0, 0])),
    )
    assert not greedy.converged
    assocs = [rec.association for rec in greedy.detail]
    assert len(assocs) >= 100
    # Both users chase the vacant AP forever: profiles alternate every step.
    for a, b in zip(assocs, assocs[1:]):
        assert a != b
        assert a in {(0, 0), (1, 1)} and b in {(0, 0), (1, 1)}


def test_seeded_runs_reach_verified_equilibria():
    for seed in range(5):
        sc = make_scenario(4, 2, 4, seed=seed + 40)
        result = jaspa(sc, JaspaConfig(memory_len=4, seed=seed, max_outer=5000))
        assert result.converged
        assert result.jep_report.is_equilibrium


@pytest.mark.parametrize("seed", [0, 3])
def test_jaspa_with_an_unusable_ap_reaches_a_verified_equilibrium(seed):
    # MU 0 cannot use AP 1 (every gain there vanishes). An a_iwf solve that
    # puts it there gives it power 0.0 instead of a NaN response and an
    # infeasible step.
    result = jaspa(unusable_ap_scenario(), JaspaConfig(memory_len=4, seed=seed))
    assert result.converged
    assert result.jep_report.is_equilibrium
    assert result.association.tolist() == [0, 0, 0, 0]


def test_identical_seeds_give_identical_runs():
    sc = make_scenario(5, 2, 6, seed=3)
    cfg = JaspaConfig(memory_len=5, seed=11, max_outer=5000)
    r1, r2 = jaspa(sc, cfg), jaspa(sc, cfg)
    assert r1.rows == r2.rows
    assert r1.association.tolist() == r2.association.tolist()
    assert all(
        np.array_equal(p, q) for p, q in zip(r1.powers, r2.powers)
    )


def test_sampled_association_has_positive_probability():
    sc = make_scenario(4, 3, 6, seed=4)
    result = jaspa(sc, JaspaConfig(memory_len=4, seed=7, max_outer=3000))
    nxt = [rec.association for rec in result.detail[1:]]
    nxt.append(tuple(int(x) for x in result.association))
    for rec, sampled in zip(result.detail, nxt):
        for i, ap in enumerate(sampled):
            assert rec.beta[i, ap] > 0.0


def test_single_switch_with_rate_gain_raises_potential():
    events = 0
    for seed in range(8):
        sc = make_scenario(5, 2, 6, seed=seed + 60)
        result = jaspa(sc, JaspaConfig(memory_len=5, seed=seed, max_outer=4000))
        for prev, cur in zip(result.detail, result.detail[1:]):
            moved = [i for i in range(5) if prev.association[i] != cur.association[i]]
            if len(moved) != 1:
                continue
            i = moved[0]
            if cur.per_mu_rates[i] > prev.per_mu_rates[i] + 1e-9:
                events += 1
                assert cur.potential > prev.potential
    assert events > 0  # the scan must actually exercise the property


@pytest.mark.filterwarnings("ignore:memory_len")
def test_max_outer_returns_trace_without_error(footnote2):
    greedy = jaspa(
        footnote2,
        JaspaConfig(memory_len=1, selection="best", seed=1, max_outer=30,
                    initial_association=np.array([0, 0])),
    )
    assert not greedy.converged
    assert len(greedy.detail) == 30
    assert greedy.rows  # full trace retained


# ---------------------------------------------------------------------------
# se_jaspa


def test_se_single_user_single_ap():
    sc = make_scenario(1, 1, 4, seed=5)
    result = se_jaspa(sc, JaspaConfig(seed=2, max_outer=100))
    assert result.converged
    phi = wf_operator(sc, [0], result.powers, 0)
    np.testing.assert_allclose(result.powers[0], phi, atol=1e-12)
    assert result.outer_iterations <= 4


def test_se_stays_when_current_ap_is_argmax(footnote2):
    cfg = JaspaConfig(seed=3, max_outer=1,
                      initial_association=np.array([0, 1]),
                      initial_powers=[np.array([1.0]), np.array([1.0])])
    result = se_jaspa(footnote2, cfg)
    assert result.detail[1].association == (0, 1)
    assert result.detail[1].switch_count == 0


def test_se_seeded_runs_reach_equilibria():
    for seed in range(20):
        sc = make_scenario(4, 2, 4, seed=seed + 80)
        result = se_jaspa(sc, JaspaConfig(seed=seed, max_outer=5000))
        assert result.converged
        assert result.jep_report.is_equilibrium


# ---------------------------------------------------------------------------
# si_jaspa


def test_si_duration_bookkeeping():
    sc = make_scenario(4, 2, 4, seed=6)
    result = si_jaspa(sc, JaspaConfig(memory_len=4, seed=9, max_outer=2000))
    assert result.converged
    for prev, cur in zip(result.detail, result.detail[1:]):
        for i in range(4):
            if cur.association[i] != prev.association[i]:
                assert cur.stay_counts[i] == 1
            else:
                assert cur.stay_counts[i] == prev.stay_counts[i] + 1


def _si_and_a_iwf_at_one_ap(si_schedule, a_iwf_schedule, n=3, k=4, seed=7, steps=12):
    sc = make_scenario(n, 1, k, seed=seed)
    assoc = np.zeros(n, dtype=int)
    p0 = uniform_powers(sc, assoc)
    ref = a_iwf(sc, assoc, schedule=a_iwf_schedule, eps_wf=0.0, max_iters=steps, initial_powers=p0)
    cfg = JaspaConfig(
        memory_len=n, seed=1, max_outer=steps, eps_wf=0.0, schedule=si_schedule,
        initial_association=assoc, initial_powers=p0,
    )
    return si_jaspa(sc, cfg).detail[-1].powers, ref


def test_si_single_ap_reduces_to_a_iwf():
    # The paper's rule on both sides: every stay step is alpha(stay count).
    final, ref = _si_and_a_iwf_at_one_ap(StepsizeSchedule(), StepsizeSchedule())
    for i in range(3):
        np.testing.assert_allclose(final[i], ref.powers[i], atol=1e-12)


def test_si_single_ap_reduces_to_safeguarded_a_iwf():
    # One AP keeps one block, so si_jaspa's default stay steps are a_iwf's
    # safeguarded ones. Here a_iwf's potential first falls at evaluation 77,
    # by 2.8e-17: a rounding-level fall, which si_jaspa's differently summed
    # interference meets at another evaluation. So the two agree while both
    # hold 1/2, through step 77; the block replay below covers the release.
    final, ref = _si_and_a_iwf_at_one_ap(
        JaspaConfig().schedule, StepsizeSchedule(rule="safeguarded"), n=10, k=16, seed=0, steps=77
    )
    assert np.all(ref.trace.alpha[:-1] == SAFEGUARD_ALPHA)
    for i in range(10):
        np.testing.assert_allclose(final[i], ref.powers[i], atol=1e-12)


@pytest.mark.parametrize(
    "n, w, k, seed", [(8, 2, 16, 2), (10, 3, 20, 2), (10, 3, 20, 5), (12, 4, 24, 1)]
)
def test_si_unchanged_blocks_replay_the_safeguarded_step(n, w, k, seed):
    # Whenever an AP keeps its member set, each member moves alpha of the way
    # to its best reply, alpha = 1/2 until that block's potential has fallen
    # strictly between consecutive evaluations, else alpha(stay count). The
    # (8,2,16) run takes 148 held and 22 released block steps. In every run a
    # block leaves its AP and later returns; in the last three some return
    # below the potential it had when it left, which a comparison across the
    # gap would read as a fall. Every other MU is replayed too: a mover takes
    # its best reply, and a stayer in a changed block steps alpha(stay count).
    sc = make_scenario(n, w, k, seed=seed)
    run = si_jaspa(sc, JaspaConfig(memory_len=n, seed=seed))
    assert run.converged
    fallen, steps, returns, last_kept = set(), {True: 0, False: 0}, 0, {}
    moves = changed_stays = 0
    for t, (prev, cur) in enumerate(zip(run.detail, run.detail[1:])):
        before = evaluate_profile(sc, prev.association, prev.powers)[5]
        after = evaluate_profile(sc, cur.association, cur.powers)[5]
        _, _, br_vecs = best_reply_table(sc, np.asarray(prev.association), prev.powers)
        in_kept = set()
        for ap in range(sc.num_aps):
            members = tuple(i for i, a in enumerate(prev.association) if a == ap)
            if not members or members != tuple(i for i, a in enumerate(cur.association) if a == ap):
                continue
            held = (ap, members) not in fallen
            for i in members:
                alpha = SAFEGUARD_ALPHA if held else StepsizeSchedule().alpha(cur.stay_counts[i])
                want = (1.0 - alpha) * prev.powers[i] + alpha * br_vecs[ap][i]
                assert np.array_equal(cur.powers[i], want)
            in_kept.update(members)
            steps[held] += 1
            returns += last_kept.get((ap, members), t - 1) < t - 1
            last_kept[ap, members] = t
            if after[ap] < before[ap]:
                fallen.add((ap, members))
        for i, (a0, ap) in enumerate(zip(prev.association, cur.association)):
            if i in in_kept:
                continue
            if a0 != ap:
                want, moves = br_vecs[ap][i], moves + 1
            else:
                alpha = StepsizeSchedule().alpha(cur.stay_counts[i])
                want = (1.0 - alpha) * prev.powers[i] + alpha * br_vecs[ap][i]
                changed_stays += 1
            assert np.array_equal(cur.powers[i], want)
    assert steps[True] > 0 and steps[False] > 0 and returns > 0
    assert moves > 0 and changed_stays > 0


def test_si_seeded_runs_reach_equilibria():
    for seed in range(5):
        sc = make_scenario(4, 2, 4, seed=seed + 100)
        result = si_jaspa(sc, JaspaConfig(memory_len=4, seed=seed, max_outer=8000))
        assert result.converged
        assert result.jep_report.is_equilibrium


def test_jaspa_counts_nonconverged_inner_solves():
    sc = make_scenario(8, 2, 16, seed=0)
    capped = jaspa(sc, JaspaConfig(memory_len=8, seed=0, max_outer=5, max_inner=1))
    assert 0 < capped.inner_nonconverged <= capped.outer_iterations
    assert jaspa(sc, JaspaConfig(memory_len=8, seed=0)).inner_nonconverged == 0
    assert se_jaspa(sc, JaspaConfig(memory_len=8, seed=0)).inner_nonconverged == 0


# ---------------------------------------------------------------------------
# The verifiers and dynamics run on the best-reply table


def test_verifiers_and_dynamics_avoid_the_scalar_oracles(monkeypatch):
    jaspa_module = importlib.import_module("uplinkgame.jaspa")

    def scalar_oracle(*args, **kwargs):
        raise AssertionError("scalar oracle called")

    for name in ("best_response_rate", "wf_operator", "all_rates", "interference_at"):
        monkeypatch.setattr(game, name, scalar_oracle)
    monkeypatch.setattr(waterfill, "wf_operator", scalar_oracle)
    monkeypatch.setattr(jaspa_module, "all_rates", scalar_oracle)

    sc = make_scenario(8, 2, 16, seed=0)
    for dynamics in (jaspa, se_jaspa, j_jaspa):
        assert dynamics(sc, JaspaConfig(memory_len=8, seed=0)).converged
    result = si_jaspa(sc, JaspaConfig(memory_len=8, seed=0, connection_cost=3.0))
    assert result.converged
    costs = np.full(8, 3.0)
    assert verify_jep(sc, result.association, result.powers, costs=costs).is_equilibrium
    assert verify_power_ne(sc, result.association, result.powers, 1e-6).is_equilibrium


# ---------------------------------------------------------------------------
# A profile that repeats after a solve that met eps_wf is not solved again

# (solver, max_inner) at (8,2,16), seed 3: every uncapped solve converges; a
# cap of one round leaves 2 of 15 s_iwf solves unconverged, and a cap of 2
# iterations 3 of 16 a_iwf solves (at 3 every a_iwf solve converges).
# Iteration 9 follows a move, and its loose solve ends above eps_wf under a_iwf
# and under an s_iwf cap of one round, so the repeat at iteration 10 solves
# again there; under the a_iwf cap, iteration 10's solve stops at the cap, so
# the repeat at 11 solves again too.
REPEATS = [("a_iwf", 100_000), ("s_iwf", 100_000), ("s_iwf", 1), ("a_iwf", 2)]


def _spy_jaspa(monkeypatch, sc, config):
    """Run jaspa; return the run, its inner solves, per outer iteration the
    (association, powers, best-reply table) of step 3, and per solve its
    (eps_wf, initial powers)."""
    jaspa_module = importlib.import_module("uplinkgame.jaspa")
    solves, tables, calls = [], [], []
    for name in ("a_iwf", "s_iwf"):
        def solve(*args, _real=getattr(jaspa_module, name), **kwargs):
            calls.append((kwargs["eps_wf"], game.copy_powers(kwargs["initial_powers"])))
            solves.append(_real(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(jaspa_module, name, solve)
    real_reselect = jaspa_module._reselect

    def reselect(scenario, state, *args):
        out = real_reselect(scenario, state, *args)
        tables.append((state.association.copy(), game.copy_powers(state.powers), out[1]))
        return out

    monkeypatch.setattr(jaspa_module, "_reselect", reselect)
    return jaspa(sc, config), solves, tables, calls


def _repeats(run, solves, eps_wf):
    """The outer iterations whose association equals the previous one's
    after a solve whose last residual met ``eps_wf``, replayed from the
    run's records."""
    reused, calls, tight = [], iter(solves), False
    for t, rec in enumerate(run.detail):
        if t and tight and rec.association == run.detail[t - 1].association:
            reused.append(t)
        else:
            tight = next(calls).trace.residual_inf[-1] <= eps_wf
    assert next(calls, None) is None
    return reused


def _solved(run, solves, eps_wf):
    """The outer iterations that solved, in the order of ``solves``."""
    reused = set(_repeats(run, solves, eps_wf))
    return [t for t in range(len(run.detail)) if t not in reused]


@pytest.mark.parametrize("solver, max_inner", REPEATS)
def test_jaspa_solves_once_per_outer_iteration_unless_a_converged_profile_repeats(
    monkeypatch, solver, max_inner
):
    sc = make_scenario(8, 2, 16, seed=3)
    config = JaspaConfig(memory_len=8, seed=3, inner_solver=solver, max_inner=max_inner)
    run, solves, _, _ = _spy_jaspa(monkeypatch, sc, config)
    assert run.converged
    if max_inner == 2:  # some a_iwf solve stops at the cap
        assert run.inner_nonconverged > 0
    reused = _repeats(run, solves, config.eps_wf)
    assert len(solves) + len(reused) == len(run.detail)
    detail = run.detail
    repeated = [t for t in range(1, len(detail)) if detail[t].association == detail[t - 1].association]
    # A repeat is reused exactly when the record before it met eps_wf.
    assert reused == [t for t in repeated if detail[t - 1].residual_inf <= config.eps_wf] != []
    if max_inner > 3:  # every repeat that solves again follows a loose solve
        assert all(detail[t - 1].switch_count > 0 for t in set(repeated) - set(reused))
    if (solver, max_inner) == ("s_iwf", 100_000):
        assert reused == repeated
    elif (solver, max_inner) == ("a_iwf", 2):  # and the repeat after 10's capped solve
        assert set(reused) == set(repeated) - {10, 11}
    else:  # the repeat after iteration 9's loose solve solves again
        assert set(reused) == set(repeated) - {10}


@pytest.mark.parametrize("solver, max_inner", REPEATS)
def test_jaspa_reused_iterations_equal_a_fresh_solve_and_table(monkeypatch, solver, max_inner):
    sc = make_scenario(8, 2, 16, seed=3)
    config = JaspaConfig(memory_len=8, seed=3, inner_solver=solver, max_inner=max_inner)
    run, solves, tables, _ = _spy_jaspa(monkeypatch, sc, config)
    monkeypatch.undo()
    solve = a_iwf if solver == "a_iwf" else s_iwf
    kwargs = {"schedule": config.schedule} if solver == "a_iwf" else {}
    for assoc, powers, table in tables:
        fresh = best_reply_table(sc, assoc, powers)
        got, want = ([rates, br_rates, *vecs] for rates, br_rates, vecs in (table, fresh))
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    rows = {}
    for r in run.rows:
        rows.setdefault(r.outer_iter, []).append(r)
    for t in _repeats(run, solves, config.eps_wf):
        assoc, powers, _ = tables[t]
        again = solve(sc, assoc, eps_wf=config.eps_wf, max_iters=max_inner,
                      initial_powers=powers, **kwargs)
        assert again.converged and again.iterations == 0
        assert all(a.tobytes() == b.tobytes() for a, b in zip(again.powers, powers))
        inner, outer = rows[t]
        assert (inner.inner_iter, outer.inner_iter) == (0, -1)
        want = (again.trace.potential[0], again.trace.sum_rate[0], again.trace.residual_inf[0])
        assert (inner.system_potential, inner.sum_rate, inner.residual_inf_norm) == want
        assert outer.residual_inf_norm == again.trace.residual_inf[0]
        assert outer.system_potential == again.trace.potential[0]


# ---------------------------------------------------------------------------
# A mover starts at its best reply; a solve is loose while the association moves


@pytest.mark.parametrize("solver", ["a_iwf", "s_iwf"])
@pytest.mark.parametrize("n, w, k, seed", [(8, 2, 16, 3), (6, 4, 5, 1), (12, 5, 23, 0)])
def test_jaspa_movers_start_at_their_table_water_fill_and_stayers_keep_their_powers(
    monkeypatch, solver, n, w, k, seed
):
    sc = make_scenario(n, w, k, seed=seed)
    config = JaspaConfig(memory_len=n, seed=seed, inner_solver=solver)
    run, solves, tables, calls = _spy_jaspa(monkeypatch, sc, config)
    assert run.converged
    movers = 0
    for t, (_, start) in zip(_solved(run, solves, config.eps_wf), calls):
        if t == 0:
            continue
        before, after = (np.array(run.detail[u].association) for u in (t - 1, t))
        _, powers, (_, _, br_vecs) = tables[t - 1]
        for i, (was, ap) in enumerate(zip(before.tolist(), after.tolist())):
            want = powers[i] if was == ap else br_vecs[ap][i]
            assert start[i].tobytes() == want.tobytes(), (t, i)
            movers += was != ap
    assert movers > 0


@pytest.mark.parametrize("solver", ["a_iwf", "s_iwf"])
@pytest.mark.parametrize("eps_wf, eps_eq", [(1e-8, 1e-6), (1e-5, 1e-4), (0.05, 0.5)])
def test_jaspa_solves_loosely_exactly_while_the_association_moves(
    monkeypatch, solver, eps_wf, eps_eq
):
    # Above 1e-2, eps_wf is the tolerance of every solve.
    sc = make_scenario(8, 2, 16, seed=3)
    config = JaspaConfig(memory_len=8, seed=3, inner_solver=solver, eps_wf=eps_wf, eps_eq=eps_eq)
    run, solves, _, calls = _spy_jaspa(monkeypatch, sc, config)
    assert run.converged and run.jep_report.is_equilibrium
    tolerances = dict(zip(_solved(run, solves, eps_wf), (eps for eps, _ in calls)))
    for t, eps in tolerances.items():
        moved = run.detail[t].switch_count > 0
        assert eps == (max(eps_wf, 1e-2) if moved else eps_wf), t
    assert any(run.detail[t].switch_count > 0 for t in tolerances)
    # The last record, which the gate passed, solved or reused a tight solve.
    assert run.detail[-1].switch_count == 0 and run.detail[-1].residual_inf <= eps_wf


def test_jaspa_counts_capped_solves_but_not_loose_solves_that_met_their_tolerance(monkeypatch):
    # (8,2,16), seed 0, max_inner=3: one tight solve stops at the cap, and one
    # loose solve meets 1e-2 but not eps_wf.
    sc = make_scenario(8, 2, 16, seed=0)
    config = JaspaConfig(memory_len=8, seed=0, max_inner=3)
    run, solves, _, calls = _spy_jaspa(monkeypatch, sc, config)
    assert run.converged and run.jep_report.is_equilibrium
    ends = [(s, eps, s.trace.residual_inf[-1]) for s, (eps, _) in zip(solves, calls)]
    capped = [s for s, eps, res in ends if res > eps and s.iterations == 3]
    loose_met = [s for s, eps, res in ends if eps == 1e-2 and config.eps_wf < res <= eps]
    assert len(capped) == 1 and len(loose_met) == 1
    assert all(not s.converged for s in capped) and all(s.converged for s in loose_met)
    assert run.inner_nonconverged == sum(not s.converged for s in solves) == 1


def test_loose_solves_halve_jaspa_inner_iterations_at_paper_scale(monkeypatch):
    # jaspa's accelerated inner iterations at (16,4,48), seeds 0-2: 1,670 when
    # every solve went to eps_wf and movers restarted from a uniform spread.
    jaspa_module = importlib.import_module("uplinkgame.jaspa")
    real, iterations = jaspa_module.a_iwf, []

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(jaspa_module, "a_iwf", counted)
    for seed in range(3):
        run = jaspa(make_scenario(16, 4, 48, seed=seed), JaspaConfig(memory_len=16, seed=seed))
        assert run.converged and run.jep_report.is_equilibrium
    assert sum(iterations) <= 835


@pytest.mark.parametrize("cost", [None, 0.0, 0.05])
@pytest.mark.parametrize("name", ["jaspa", "si_jaspa"])
def test_a_cost_free_gate_report_is_the_final_report(monkeypatch, name, cost):
    # Every cost in force 0.0: the gate's verify_jep report is the run's, and
    # it is verified once; a nonzero cost keeps a second, cost-free verify.
    jaspa_module = importlib.import_module("uplinkgame.jaspa")
    calls = []  # (costs, report) per verify_jep call

    def verify(*args):
        calls.append((args[4] if len(args) > 4 else None, verify_jep(*args)))
        return calls[-1][1]

    monkeypatch.setattr(jaspa_module, "verify_jep", verify)
    sc = make_scenario(8, 2, 16, seed=0)
    config = JaspaConfig(memory_len=8, seed=0, connection_cost=cost)
    run = getattr(jaspa_module, name)(sc, config)
    assert run.converged
    costs, report = calls[-1]
    assert run.jep_report is report
    if cost:  # the gate's verify with the costs, then the cost-free one
        assert costs is None and np.all(calls[-2][0] == cost)
    else:
        assert np.all(costs == 0.0)
    fresh = verify_jep(sc, run.association, run.powers, config.eps_eq)
    for field, value in vars(fresh).items():
        got = getattr(report, field)
        assert got.tobytes() == value.tobytes() if isinstance(value, np.ndarray) else got == value


# ---------------------------------------------------------------------------
# One release test for the safeguarded rule, at its three sites

# (previous, current) levels of one block's potential, and whether the block
# still holds after the second: an equal or higher potential keeps the hold,
# a strict fall or a NaN on either side releases it.
RELEASES = {
    "equal": (0.5, 0.5, True),
    "higher": (0.5, 1.0, True),
    "lower": (1.0, 0.5, False),
    "nan_current": (0.5, np.nan, False),
    "nan_previous": (np.nan, 0.5, False),
}


def held_in_a_iwf_block(previous, current):
    """``_Blocks.evaluate`` on one MU's block, whose potential rises with
    its powers: a level scales the budget, spread uniformly (NaN: NaN powers)."""
    sc = make_scenario(1, 1, 4, seed=0)
    assoc, layout = np.zeros(1, dtype=np.intp), ProfileLayout()
    for level in (previous, current):
        blocks = layout.load(sc, assoc, [np.full(4, level * sc.budget[0] / 4)]).blocks
        blocks.held[:] = True  # only the second evaluation's test counts
        blocks.evaluate()
    return bool(blocks.held[0])


def held_in_si_jaspa(monkeypatch, previous, current):
    """si_jaspa with one MU on one AP, whose block is unchanged every round:
    the AP potentials read ``previous`` at the start and ``current`` after
    the first round; the second round's stay step shows the hold."""
    jaspa_module = importlib.import_module("uplinkgame.jaspa")
    levels, seen = iter([previous, current, current]), []
    real_evaluate, real_alpha = jaspa_module.evaluate_profile, StepsizeSchedule.block_alpha

    def evaluate(*args):
        metrics = real_evaluate(*args)
        return metrics[:5] + (np.array([next(levels)]),)

    def block_alpha(self, t, held):
        seen.append(held)
        return real_alpha(self, t, held)

    monkeypatch.setattr(jaspa_module, "evaluate_profile", evaluate)
    monkeypatch.setattr(StepsizeSchedule, "block_alpha", block_alpha)
    si_jaspa(make_scenario(1, 1, 4, seed=0), JaspaConfig(memory_len=4, max_outer=2))
    assert seen[0]  # the first round holds: nothing fell yet
    return bool(seen[1])


def held_in_j_jaspa_coalition(previous, current):
    mem = ApMemory(num_aps=1, cap=10)
    for level in (previous, current):
        ap_memory_update(mem, 0, (0,), np.zeros((1, 1)), np.zeros((1, 1)), level)
    return bool(mem.get(0, (0,)).held)


@pytest.mark.parametrize("case", sorted(RELEASES))
def test_every_safeguarded_site_releases_alike(monkeypatch, case):
    previous, current, held = RELEASES[case]
    assert keeps_hold(previous, current) == held
    assert held_in_a_iwf_block(previous, current) == held
    assert held_in_j_jaspa_coalition(previous, current) == held
    assert held_in_si_jaspa(monkeypatch, previous, current) == held


# ---------------------------------------------------------------------------
# The stop gate, recomputed from the record of the run


def first_gate_pass(sc, name, config, result):
    """The first record at which ``name``'s stop gate holds, recomputed from
    ``result.detail``, or None: memory_len+1 equal associations end there
    (for jaspa, the last memory_len records and the next record's
    association, or the final one), the residual is at most eps_wf (si_jaspa
    and j_jaspa) and ``verify_jep`` passes on the recorded powers, with the
    costs in force (cost-free for j_jaspa)."""
    detail, m = result.detail, config.memory_len
    costs = None
    if name != "j_jaspa":
        cost = config.connection_cost
        costs = sc.connection_cost if cost is None else validate_costs(sc, cost)
    for t, rec in enumerate(detail):
        if name == "jaspa":
            nxt = detail[t + 1].association if t + 1 < len(detail) else tuple(result.association)
            window = [r.association for r in detail[max(0, t - m + 1) : t + 1]] + [nxt]
        else:
            window = [r.association for r in detail[max(0, t - m) : t + 1]]
            if not rec.residual_inf <= config.eps_wf:
                continue
        if len(window) != m + 1 or len(set(window)) != 1:
            continue
        assoc = np.array(rec.association)
        if verify_jep(sc, assoc, rec.powers, config.eps_eq, costs).is_equilibrium:
            return t
    return None


@pytest.mark.filterwarnings("ignore:memory_len")
@pytest.mark.parametrize("n, w, k", [(4, 2, 6), (6, 3, 9), (8, 2, 16)])
@pytest.mark.parametrize("memory", [1, 3, "n"])
@pytest.mark.parametrize("name", ["jaspa", "si_jaspa", "j_jaspa"])
def test_runs_stop_at_the_first_gate_pass_of_their_record(name, memory, n, w, k):
    algo = {"jaspa": jaspa, "si_jaspa": si_jaspa, "j_jaspa": j_jaspa}[name]
    m = n if memory == "n" else memory
    costs = (None,) if name == "j_jaspa" else (None, 0.05)
    outcomes = set()
    for seed in (0, 1):
        sc = make_scenario(n, w, k, seed=seed)
        for cost, cap in ((c, cap) for c in costs for cap in (2, 5, 300)):
            config = JaspaConfig(memory_len=m, connection_cost=cost, seed=seed, max_outer=cap)
            result = algo(sc, config)
            stop = first_gate_pass(sc, name, config, result)
            records = len(result.detail)
            # jaspa also counts the association drawn after its last record.
            assert result.outer_iterations == records + (name == "jaspa")
            if result.converged:
                assert stop == records - 1, (seed, cost, cap)
            else:
                assert stop is None and records == cap + (name != "jaspa"), (seed, cost, cap)
            outcomes.add(result.converged)
    assert outcomes == {True, False}


def test_accelerated_inner_solves_cut_jaspa_inner_iterations_fivefold(monkeypatch):
    # jaspa's accelerated inner solves against the paper's plain A-IWF (its
    # a_iwf calls forced to accelerate=False) at (16,4,48): at most 1/5 of the
    # inner iterations, the same final sum rates and a verified joint
    # equilibrium every time.
    jaspa_module = importlib.import_module("uplinkgame.jaspa")
    real, iterations, forced = jaspa_module.a_iwf, [], {}

    def counted(*args, **kwargs):
        assert kwargs["accelerate"] is True
        result = real(*args, **{**kwargs, **forced})
        iterations[-1] += result.iterations
        return result

    monkeypatch.setattr(jaspa_module, "a_iwf", counted)
    totals = {False: 0, True: 0}
    for seed in range(3):
        sc = make_scenario(16, 4, 48, seed=seed)
        rates = {}
        for accelerate in (False, True):
            forced["accelerate"] = accelerate
            iterations.append(0)
            run = jaspa(sc, JaspaConfig(memory_len=16, seed=seed))
            assert run.converged and run.jep_report.is_equilibrium
            assert verify_jep(sc, run.association, run.powers).is_equilibrium
            totals[accelerate] += iterations[-1]
            rates[accelerate] = run.detail[-1].sum_rate
        assert rates[True] == pytest.approx(rates[False], abs=1e-9)
    assert 5 * totals[True] <= totals[False]


# ---------------------------------------------------------------------------
# A one-AP pick draws nothing: numpy's integers(1) is 0 and moves no state.


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("before", ["fresh", "random", "integers"])
def test_integers_of_one_is_zero_and_leaves_the_stream(seed, before):
    rng = np.random.default_rng(seed)
    if before == "random":
        rng.random()
    elif before == "integers":  # a bounded draw may leave half a 64-bit word buffered
        rng.integers(5)
    state = rng.bit_generator.state
    assert rng.integers(1) == 0
    assert rng.bit_generator.state == state


def test_uniform_picks_on_one_ap_rows_advance_no_stream():
    rngs = per_mu_rngs(3, 6)
    states = [r.bit_generator.state for r in rngs]
    mask = np.zeros((6, 4), dtype=bool)
    picks = [0, 3, 1, 2, 3, 0]
    mask[np.arange(6), picks] = True
    assert uniform_picks(mask, rngs).tolist() == picks
    assert [r.bit_generator.state for r in rngs] == states
    # Rows with more than one AP draw once each; the one-AP rows still do not.
    mask[[1, 4], 0] = True
    uniform_picks(mask, rngs)
    moved = [r.bit_generator.state != s for r, s in zip(rngs, states)]
    assert moved == [False, True, False, False, True, False]
