import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplinkgame import (
    ValidationError, best_response_rate, s_iwf, verify_jep, water_fill, wf_operator
)
from uplinkgame.game import interference_at, rate
from uplinkgame.waterfill import best_reply_table, profile_table, water_fill_batch

from conftest import footnote_network, make_scenario, random_powers


# ---------------------------------------------------------------------------
# Oracles: bisection on the water level, and a direct KKT residual check.
# They stay independent of the closed-form active-set solver they verify.


def bisection_water_fill(gain, floor_phys, budget, tol=1e-13):
    floors = np.asarray(floor_phys, dtype=float) / np.asarray(gain, dtype=float)
    lo, hi = 0.0, floors.max() + budget
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(mid - floors, 0.0).sum() > budget:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    level = 0.5 * (lo + hi)
    return np.maximum(level - floors, 0.0), level


def kkt_residual(gain, floor_phys, budget, powers, level):
    """Max violation of stationarity, complementary slackness, primal
    feasibility and budget tightness, scaled to be relative."""
    g = np.asarray(gain, dtype=float)
    ni = np.asarray(floor_phys, dtype=float)
    p = np.asarray(powers, dtype=float)
    floors = ni / g
    worst = abs(p.sum() - budget) / budget  # budget always tight at optimum
    worst = max(worst, float(np.max(-p, initial=0.0)) / budget)
    scale = max(level, floors.max())
    for k in range(p.size):
        if p[k] > 1e-12 * budget:
            worst = max(worst, abs(floors[k] + p[k] - level) / scale)  # stationarity
        else:
            worst = max(worst, max(level - floors[k], 0.0) / scale)  # comp. slackness
    return worst


def rate_of(gain, floor_phys, powers):
    return float(np.sum(np.log(1.0 + np.asarray(gain) * powers / np.asarray(floor_phys))))


# ---------------------------------------------------------------------------
# Frozen examples (derived cases verified against the bisection oracle too).


@pytest.mark.parametrize(
    "g, ni, budget, exp_powers, exp_level",
    [
        ([1.0], [5.0], 2.0, [2.0], 7.0),
        ([1.0, 1.0], [1.0, 1.0], 2.0, [1.0, 1.0], 2.0),
        ([1.0, 1.0], [1.0, 3.0], 4.0, [3.0, 1.0], 4.0),
        ([1.0, 4.0], [1.0, 1.0], 1.0, [0.125, 0.875], 1.125),
        ([1.0, 1.0], [1.0, 3.0], 1.0, [1.0, 0.0], 2.0),
    ],
)
def test_known_allocations(g, ni, budget, exp_powers, exp_level):
    res = water_fill(g, ni, budget)
    np.testing.assert_allclose(res.powers, exp_powers, atol=1e-12)
    assert res.water_level == pytest.approx(exp_level, abs=1e-12)
    oracle_p, _ = bisection_water_fill(g, ni, budget)
    np.testing.assert_allclose(res.powers, oracle_p, atol=1e-9)
    assert kkt_residual(g, ni, budget, res.powers, res.water_level) <= 1e-10


def test_active_set_matches_positive_entries():
    res = water_fill([1.0, 1.0], [1.0, 3.0], 1.0)
    assert res.active_set.tolist() == [0]


def test_random_instances_match_oracle_and_kkt():
    rng = np.random.default_rng(42)
    for _ in range(300):
        k = int(rng.integers(1, 33))
        g = rng.uniform(0.05, 5.0, k)
        ni = rng.uniform(0.05, 5.0, k)
        budget = float(rng.uniform(0.1, 10.0))
        res = water_fill(g, ni, budget)
        assert kkt_residual(g, ni, budget, res.powers, res.water_level) <= 1e-10
        oracle_p, _ = bisection_water_fill(g, ni, budget)
        np.testing.assert_allclose(res.powers, oracle_p, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    floors=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=12),
    b1=st.floats(0.1, 5.0),
    b2=st.floats(0.1, 5.0),
)
def test_water_level_strictly_increases_with_budget(floors, b1, b2):
    if abs(b1 - b2) < 1e-6:
        return
    lo, hi = sorted((b1, b2))
    g = np.ones(len(floors))
    level_lo = water_fill(g, floors, lo).water_level
    level_hi = water_fill(g, floors, hi).water_level
    assert level_hi > level_lo


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permutation_equivariance(data):
    k = data.draw(st.integers(1, 10))
    g = np.array(data.draw(st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k)))
    ni = np.array(data.draw(st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k)))
    perm = np.array(data.draw(st.permutations(range(k))))
    base = water_fill(g, ni, 2.0)
    permuted = water_fill(g[perm], ni[perm], 2.0)
    np.testing.assert_allclose(permuted.powers, base.powers[perm], atol=1e-12)
    assert permuted.water_level == pytest.approx(base.water_level, abs=1e-12)


def test_budget_always_tight():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(1, 20))
        res = water_fill(rng.uniform(0.1, 3.0, k), rng.uniform(0.1, 3.0, k), 2.5)
        assert res.powers.sum() == pytest.approx(2.5, abs=1e-12)


def test_output_beats_random_feasible_perturbations():
    rng = np.random.default_rng(7)
    g = rng.uniform(0.2, 3.0, 8)
    ni = rng.uniform(0.2, 3.0, 8)
    budget = 2.0
    best = water_fill(g, ni, budget)
    best_rate = rate_of(g, ni, best.powers)
    for _ in range(1000):
        p = budget * rng.dirichlet(np.ones(8))
        assert best_rate >= rate_of(g, ni, p) - 1e-12


@pytest.mark.parametrize(
    "g, ni, budget",
    [
        ([1.0, -0.1], [1.0, 1.0], 1.0),
        ([1.0, 1.0], [0.0, 1.0], 1.0),
        ([], [], 1.0),
        ([1.0], [1.0], 0.0),
        ([1.0, 1.0], [1.0], 1.0),
    ],
)
def test_domain_errors(g, ni, budget):
    with pytest.raises(ValidationError):
        water_fill(g, ni, budget)


def test_vanishing_gain_is_an_absent_channel():
    # A subnormal gain passes the positivity check, but its floor overflows to
    # +inf: that channel gets no power and the other two split the budget.
    res = water_fill(np.array([1.0, 1.0, 1e-320]), np.ones(3), 1.0)
    assert res.powers.tolist() == [0.5, 0.5, 0.0]
    assert res.water_level == 1.5
    assert res.active_set.tolist() == [0, 1]
    with pytest.raises(ValidationError):
        water_fill(np.array([1e-320, 1e-320]), np.ones(2), 1.0)


@pytest.mark.parametrize("width, padded", [(1, 2), (1, 4), (7, 8), (15, 16), (16, 17), (25, 26)])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 6])
def test_inf_padding_leaves_powers_and_levels_bit_identical(width, padded, rows):
    rng = np.random.default_rng(100 * width + rows)
    floors = rng.uniform(0.05, 5.0, (rows, width)) * 10.0 ** rng.integers(-3, 3, (rows, 1))
    floors[0, -1] = floors[0, 0]  # a tie
    budgets = rng.uniform(0.01, 10.0, rows)
    want_p, want_levels = water_fill_batch(floors, budgets)
    pads = np.full((rows, padded - width), np.inf)
    got_p, got_levels = water_fill_batch(np.hstack([floors, pads]), budgets)
    assert np.array_equal(got_p[:, :width], want_p)
    assert np.all(got_p[:, width:] == 0.0)
    assert np.array_equal(got_levels, want_levels)
    # Pads anywhere in the row, as a vanishing gain's floor would be.
    cols = rng.permutation(padded)
    mixed = np.hstack([floors, pads])[:, cols]
    got_p, got_levels = water_fill_batch(mixed, budgets)
    assert np.array_equal(got_p[:, np.argsort(cols)][:, :width], want_p)
    assert np.array_equal(got_levels, want_levels)


# ---------------------------------------------------------------------------
# The per-MU operator over a scenario.


def test_single_mu_equals_plain_water_fill():
    sc = make_scenario(1, 1, 4, seed=2)
    assoc = np.zeros(1, dtype=int)
    powers = [np.zeros(4)]
    out = wf_operator(sc, assoc, powers, 0)
    direct = water_fill(sc.gain_sq[0], sc.noise, sc.budget[0]).powers
    np.testing.assert_allclose(out, direct, atol=0)


def test_split_single_channel_aps_get_full_budget():
    sc = footnote_network()
    assoc = np.array([0, 1])
    powers = [np.array([0.3]), np.array([0.3])]
    for mu in (0, 1):
        np.testing.assert_allclose(wf_operator(sc, assoc, powers, mu), [1.0])


def test_operator_composes_interference_and_water_fill():
    sc = make_scenario(2, 1, 2, seed=9)
    assoc = np.zeros(2, dtype=int)
    powers = [np.array([0.4, 0.6]), np.array([0.7, 0.3])]
    for mu in (0, 1):
        other = 1 - mu
        interf = sc.gain_sq[other] * powers[other]  # one interferer, by hand
        np.testing.assert_allclose(
            interference_at(sc, assoc, powers, mu), interf, atol=1e-15
        )
        expected = water_fill(sc.gain_sq[mu], sc.noise + interf, sc.budget[mu]).powers
        np.testing.assert_allclose(wf_operator(sc, assoc, powers, mu), expected, atol=0)


# ---------------------------------------------------------------------------
# The (MU, AP) best-reply table against the scalar best-response oracle.


@pytest.mark.parametrize(
    "n, w, k, assoc",
    [
        (10, 3, 16, [0, 2, 2, 0, 2, 0, 0, 2, 2, 0]),  # AP 1 empty
        (6, 1, 5, [0] * 6),  # W = 1
        (1, 3, 8, [1]),  # N = 1
        (9, 4, 6, [0, 1, 2, 3, 3, 2, 1, 0, 3]),  # width-1 blocks beside width-2
        (2, 2, 2, [0, 0]),  # footnote network, stacked
        (12, 1, 32, [0] * 12),  # W = 1, channel sums long enough to run pairwise
    ],
)
def test_best_reply_table_matches_best_response_rate(n, w, k, assoc):
    sc = footnote_network() if (n, w, k) == (2, 2, 2) else make_scenario(n, w, k, seed=12)
    assoc = np.asarray(assoc)
    powers = random_powers(sc, assoc, np.random.default_rng(n + w + k), slack=True)
    current, rates, vecs = best_reply_table(sc, assoc, powers)
    assert rates.shape == (n, w)
    for i in range(n):
        for ap in range(w):
            want_rate, want_p = best_response_rate(sc, assoc, powers, i, ap)
            assert rates[i, ap] == pytest.approx(want_rate, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(vecs[ap][i], want_p, rtol=1e-12, atol=1e-12)
    # Current rates sum each interferer in member order, as interference_at
    # does, so they match the scalar rate bit for bit.
    want_cur = [rate(sc, assoc, powers, i) for i in range(n)]
    assert np.array_equal(current, want_cur)
    # Bit for bit a per-AP computation on C-ordered floors: the block total
    # summed from zero in member order, less each member's own term.
    for ap in range(w):
        cols = sc.chan_idx[ap]
        members = np.flatnonzero(assoc == ap)
        total = np.zeros(cols.size)
        for j in members:
            total += sc.gain_sq[j, cols] * powers[j]
        interf = np.tile(total, (n, 1))
        for j in members:
            interf[j] = total - sc.gain_sq[j, cols] * powers[j]
        floors_phys = sc.noise[cols] + interf
        gains = np.ascontiguousarray(sc.gain_sq[:, cols])
        phi, _ = water_fill_batch(floors_phys / gains, sc.budget)
        want = np.log2(1.0 + gains * phi / floors_phys).sum(axis=1) / sc.num_channels
        assert np.array_equal(vecs[ap], phi)
        assert np.array_equal(rates[:, ap], want)


def test_interference_table_rows_exclude_only_the_own_term():
    sc = make_scenario(9, 4, 6, seed=3)
    assoc = np.array([0, 1, 2, 3, 3, 2, 1, 0, 3])
    powers = random_powers(sc, assoc, np.random.default_rng(1))
    table = profile_table(sc, assoc, powers)[1]
    assert table.shape == (9, sc.num_channels)
    for ap in range(4):
        cols = sc.chan_idx[ap]
        total = np.zeros(cols.size)
        for j in np.flatnonzero(assoc == ap):
            total += sc.gain_sq[j, cols] * powers[j]
        for i in range(9):
            own = sc.gain_sq[i, cols] * powers[i] if assoc[i] == ap else 0.0
            assert np.array_equal(table[i, cols], total - own)
            others = sum(
                (sc.gain_sq[j, cols] * powers[j] for j in range(9) if assoc[j] == ap and j != i),
                np.zeros(cols.size),
            )
            np.testing.assert_allclose(table[i, cols], others, rtol=1e-12, atol=1e-15)


def test_an_ap_without_a_usable_channel_reads_power_and_rate_zero():
    # MU 0's gains underflow on every channel but channel 0, so it has no
    # finite floor at AP 1: its best reply there is power 0 at rate 0, not NaN.
    sc = make_scenario(4, 2, 6, seed=0)
    gain = sc.gain_sq.copy()
    gain[0, 1:] = 1e-320
    sc = dataclasses.replace(sc, gain_sq=gain)
    for assoc in ([0, 1, 0, 1], [0, 0, 0, 0]):
        powers = s_iwf(sc, assoc).powers
        np.testing.assert_array_equal(powers[0], [1.0, 0.0, 0.0])
        _, rates, vecs = best_reply_table(sc, np.asarray(assoc), powers)
        assert rates[0, 0] > 0.0 and rates[0, 1] == 0.0
        assert np.array_equal(vecs[1][0], np.zeros(3))
        report = verify_jep(sc, assoc, powers)
        assert report.violations[0] == 0.0
    # All four at AP 0 is a joint equilibrium; at [0, 1, 0, 1], MUs 1 and 3
    # gain by moving to AP 0.
    assert report.is_equilibrium
