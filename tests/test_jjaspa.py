from collections import deque

import numpy as np
import pytest

import uplinkgame.jjaspa as jjaspa_module
from uplinkgame import (
    JaspaConfig,
    ResourceError,
    StepsizeSchedule,
    ValidationError,
    j_jaspa,
    sample_mu_memory,
    water_fill,
)
from uplinkgame.jjaspa import ApMemory, ap_memory_update
from uplinkgame.waterfill import best_replies, profile_table

from conftest import assert_coalition_replay, coalition_occurrences, make_scenario


def base_config(**kw):
    defaults = dict(memory_len=4, seed=0, max_outer=8000)
    defaults.update(kw)
    return JaspaConfig(**defaults)


# ---------------------------------------------------------------------------
# Memory structures


def test_ap_memory_first_visit_and_revisit():
    mem = ApMemory(num_aps=2, cap=100)
    ap_memory_update(mem, 0, (1, 3), np.array([[0.5], [0.2]]), np.zeros((2, 1)), 0.0)
    rec = mem.get(0, (1, 3))
    assert rec.visits == 1
    np.testing.assert_allclose(rec.powers, [[0.5], [0.2]])
    ap_memory_update(mem, 0, (1, 3), np.array([[0.9], [0.1]]), np.zeros((2, 1)), 0.0)
    rec = mem.get(0, (1, 3))
    assert rec.visits == 2
    np.testing.assert_allclose(rec.powers, [[0.9], [0.1]])


def test_ap_memory_sorts_an_unsorted_coalition_with_its_rows():
    mem = ApMemory(num_aps=1, cap=100)
    powers = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    interf = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    ap_memory_update(mem, 0, [5, 1, 3], powers, interf, 0.0)
    rec = mem.get(0, (1, 3, 5))  # keys are canonical sorted tuples
    assert np.array_equal(rec.powers, powers[[1, 2, 0]])
    assert np.array_equal(rec.interference, interf[[1, 2, 0]])
    ap_memory_update(mem, 0, [3, 5, 1], powers, interf, 0.0)
    assert rec.visits == 2
    assert np.array_equal(rec.powers, powers[[2, 0, 1]])
    assert np.array_equal(rec.interference, interf[[2, 0, 1]])


def test_ap_memory_holds_a_coalition_until_its_potential_first_falls():
    mem = ApMemory(num_aps=1, cap=100)
    powers, interf = np.zeros((1, 1)), np.zeros((1, 1))
    held = []
    for potential in (0.5, 0.5, 0.7, 0.6, 0.9):
        ap_memory_update(mem, 0, (0,), powers, interf, potential)
        held.append(mem.get(0, (0,)).held)
    # Equal potentials keep the hold; the first strict fall ends it for good.
    assert held == [True, True, True, False, False]
    assert mem.get(0, (0,)).potential == 0.9


def test_ap_memory_coalitions_are_independent():
    mem = ApMemory(num_aps=1, cap=100)
    ap_memory_update(mem, 0, (0,), np.array([[1.0]]), np.zeros((1, 1)), 0.0)
    ap_memory_update(mem, 0, (0, 1), np.array([[0.3], [0.7]]), np.zeros((2, 1)), 0.0)
    assert mem.get(0, (0,)).visits == 1
    assert mem.get(0, (0, 1)).visits == 1


def test_ap_memory_cap_is_enforced():
    mem = ApMemory(num_aps=1, cap=2)
    ap_memory_update(mem, 0, (0,), np.zeros((1, 1)), np.zeros((1, 1)), 0.0)
    ap_memory_update(mem, 0, (1,), np.zeros((1, 1)), np.zeros((1, 1)), 0.0)
    with pytest.raises(ResourceError):
        ap_memory_update(mem, 0, (0, 1), np.zeros((2, 1)), np.zeros((2, 1)), 0.0)


def test_singleton_memory_sample_is_forced():
    mem = deque([(1, np.zeros(4), 0.25)], maxlen=10)
    rng = np.random.default_rng(0)
    for _ in range(5):
        ap, interf, r = sample_mu_memory(mem, rng)
        assert ap == 1 and r == 0.25


def test_identical_snapshots_sample_deterministically():
    mem = deque(maxlen=5)
    for _ in range(5):
        mem.append((2, np.ones(1), 0.5))
    rng = np.random.default_rng(1)
    assert all(sample_mu_memory(mem, rng)[0] == 2 for _ in range(20))


def test_sampling_is_uniform_over_buffer():
    mem = deque(maxlen=10)
    for j in range(10):
        mem.append((j % 3, np.zeros(1), float(j)))  # rate identifies the slot
    rng = np.random.default_rng(42)
    draws = 100_000
    counts = np.zeros(10)
    for _ in range(draws):
        counts[int(sample_mu_memory(mem, rng)[2])] += 1
    expected = draws / 10
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 27.88  # chi-square df=9 at p=0.001


def test_fifo_eviction_keeps_buffers_aligned():
    mem = deque(maxlen=3)
    for j in range(5):
        mem.append((j, np.full(1, float(j)), float(j)))
    assert [ap for ap, _, _ in mem] == [2, 3, 4]
    assert [r for _, _, r in mem] == [2.0, 3.0, 4.0]
    assert [v[0] for _, v, _ in mem] == [2.0, 3.0, 4.0]


# ---------------------------------------------------------------------------
# The full dynamics


def test_seeded_runs_reach_verified_equilibria():
    for seed in range(5):
        sc = make_scenario(4, 2, 4, seed=seed + 200)
        result = j_jaspa(sc, base_config(seed=seed))
        assert result.converged
        assert result.jep_report.is_equilibrium


def test_determinism():
    sc = make_scenario(4, 2, 4, seed=9)
    r1 = j_jaspa(sc, base_config(seed=5))
    r2 = j_jaspa(sc, base_config(seed=5))
    assert r1.rows == r2.rows


@pytest.mark.filterwarnings("ignore:memory_len")
def test_unseen_coalition_powers_are_sampled_best_replies():
    # All powers stay feasible. At a coalition's first visit after the
    # initial profile, each member starts at its best reply, at its new AP,
    # to one snapshot in its memory window: the interference row of a
    # recorded profile, as profile_table forms it.
    sc = make_scenario(5, 2, 6, seed=10)
    config = base_config(seed=3, max_outer=50)
    result = j_jaspa(sc, config)
    for rec in result.detail:
        for i, p in enumerate(rec.powers):
            assert np.all(p >= 0.0)
            assert p.sum() <= sc.budget[i] + 1e-12
    interference = [profile_table(sc, rec.association, rec.powers)[1] for rec in result.detail]
    first_visits = 0
    for (ap, key), times in coalition_occurrences(result.detail, sc.num_aps).items():
        t = times[0]
        if not key or t == 0:
            continue
        first_visits += 1
        window = interference[max(0, t - config.memory_len) : t]
        for i in key:
            starts = [best_replies(sc, rows[i : i + 1], [i])[1][ap][0] for rows in window]
            assert any(np.array_equal(result.detail[t].powers[i], p) for p in starts), (t, ap, i)
    assert first_visits > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_mid_size_runs_end_at_verified_equilibria(seed):
    # At (30,3,48) joint runs converge well inside the cap.
    sc = make_scenario(30, 3, 48, seed=seed)
    result = j_jaspa(sc, JaspaConfig(memory_len=30, seed=seed, max_outer=4000))
    assert result.converged
    assert result.jep_report.is_equilibrium


def test_coalition_subsequences_replay_averaged_water_filling():
    # Restricted to one coalition's visits, the power updates must follow the
    # averaged recursion with the visit-count stepsize clock, bit for bit:
    # under the paper's rule alpha(visits) throughout; under the default 1/2
    # until the coalition's potential first falls, then alpha(visits). The
    # second run releases coalitions under the default, so both steps replay.
    # The third has widths 4/3/3, and under both schedules coalitions at the
    # narrower APs return, each water-filled at its own width.
    runs = [((4, 2, 4, 11), dict(seed=7)), ((5, 2, 8, 2), dict(memory_len=5, seed=2)),
            ((6, 3, 10, 0), dict(memory_len=6, seed=2))]
    default_steps = np.zeros(2, dtype=int)
    for (n, w, k, scenario_seed), kw in runs:
        sc = make_scenario(n, w, k, seed=scenario_seed)
        for schedule in (StepsizeSchedule(), JaspaConfig().schedule):
            cfg = base_config(schedule=schedule, **kw)
            result = j_jaspa(sc, cfg)
            held, released = assert_coalition_replay(sc, cfg, result)
            if schedule.rule == "polynomial":
                assert held == 0 and released > 0
            else:
                default_steps += (held, released)
            if np.unique(sc.chan_width).size > 1:
                narrow = [len(times) - 1 for (ap, key), times
                          in coalition_occurrences(result.detail, w).items()
                          if key and sc.chan_width[ap] < sc.chan_width.max()]
                assert sum(narrow) > 0
    assert np.all(default_steps > 0)


def test_residual_decays_along_dominant_association():
    for seed in (0, 1):
        sc = make_scenario(4, 2, 4, seed=seed + 220)
        cfg = base_config(seed=seed)
        result = j_jaspa(sc, cfg)
        assert result.converged
        counts = {}
        for rec in result.detail:
            counts[rec.association] = counts.get(rec.association, 0) + 1
        dominant = max(counts, key=counts.get)
        res = [rec.residual_inf for rec in result.detail if rec.association == dominant]
        assert res[-1] <= cfg.eps_wf
        # A non-increasing suffix must cover at least the final stretch.
        suffix = 1
        while suffix < len(res) and res[-suffix - 1] >= res[-suffix] - 1e-12:
            suffix += 1
        assert suffix >= min(3, len(res))


def test_best_sets_stabilize_near_the_limit():
    sc = make_scenario(4, 2, 4, seed=230)
    cfg = base_config(seed=2)
    result = j_jaspa(sc, cfg)
    assert result.converged
    counts = {}
    for rec in result.detail:
        counts[rec.association] = counts.get(rec.association, 0) + 1
    dominant = max(counts, key=counts.get)
    recs = [rec for rec in result.detail if rec.association == dominant]

    def interference_snapshot(rec):
        assoc = np.asarray(rec.association)
        out = []
        for ap in range(sc.num_aps):
            cols = sc.chan_idx[ap]
            base = np.zeros(cols.size)
            for j in np.flatnonzero(assoc == ap):
                base += sc.gain_sq[j, cols] * rec.powers[j]
            out.append(base)
        return out

    def best_sets(rec, interf):
        sets = []
        for i in range(sc.num_mus):
            members = {int(rec.association[i])}
            for ap in range(sc.num_aps):
                cols = sc.chan_idx[ap]
                own = interf[ap] - (
                    sc.gain_sq[i, cols] * rec.powers[i]
                    if rec.association[i] == ap
                    else 0.0
                )
                floor = sc.noise[cols] + own
                wf = water_fill(sc.gain_sq[i, cols], floor, sc.budget[i]).powers
                r = float(np.sum(np.log2(1 + sc.gain_sq[i, cols] * wf / floor)) / sc.num_channels)
                if r > rec.per_mu_rates[i]:
                    members.add(ap)
            sets.append(frozenset(members))
        return tuple(sets)

    final = interference_snapshot(recs[-1])
    stable_sets = None
    close = 0
    for rec in recs:
        interf = interference_snapshot(rec)
        dist = max(
            float(np.max(np.abs(a - b))) for a, b in zip(interf, final)
        )
        if dist <= 1e-6:
            close += 1
            sets = best_sets(rec, interf)
            if stable_sets is None:
                stable_sets = sets
            assert sets == stable_sets
    assert close >= 2


def test_run_cap_returns_trace():
    sc = make_scenario(4, 2, 4, seed=240)
    result = j_jaspa(sc, base_config(seed=1, max_outer=5))
    assert not result.converged
    assert len(result.detail) == 6  # initial state plus five iterations


def test_coalition_cap_raises_resource_error():
    sc = make_scenario(4, 2, 4, seed=250)
    with pytest.raises(ResourceError):
        j_jaspa(sc, base_config(seed=0, coalition_cap=2))


def test_coalition_step_water_fills_each_coalition_once(monkeypatch):
    calls = []
    real = jjaspa_module.water_fill_batch

    def counted(*args):
        calls.append(args[0].shape[0])
        return real(*args)

    monkeypatch.setattr(jjaspa_module, "water_fill_batch", counted)
    sc = make_scenario(8, 2, 16, seed=0)
    result = j_jaspa(sc, base_config(memory_len=8))
    # One call per returning coalition at most: never more than the APs
    # occupied after each iteration, and one row per member.
    occupied = sum(len(set(rec.association)) for rec in result.detail[1:])
    assert 0 < len(calls) <= occupied
    assert sum(calls) <= sc.num_mus * (len(result.detail) - 1)


def test_sampling_an_empty_memory_is_refused():
    with pytest.raises(ValidationError, match="empty memory"):
        sample_mu_memory(deque(maxlen=4), np.random.default_rng(0))
