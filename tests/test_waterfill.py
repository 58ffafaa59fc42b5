import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplinkgame import (
    NetworkScenario, ValidationError, best_response_rate, s_iwf, verify_jep, water_fill, wf_operator
)
from uplinkgame.game import interference_at, rate
from uplinkgame.inner import ProfileLayout, evaluate_profile
from uplinkgame.waterfill import best_replies, best_reply_table, profile_table, water_fill_batch

from conftest import footnote_network, make_scenario, random_powers, unusable_ap_scenario


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
    # Unit gains: x / 1.0 == x, so the floors are these values exactly.
    gains = np.ones((rows, padded))
    want_p, want_levels = water_fill_batch(gains[:, :width], floors, budgets)
    pads = np.full((rows, padded - width), np.inf)
    got_p, got_levels = water_fill_batch(gains, np.hstack([floors, pads]), budgets)
    assert np.array_equal(got_p[:, :width], want_p)
    assert np.all(got_p[:, width:] == 0.0)
    assert np.array_equal(got_levels, want_levels)
    # Pads anywhere in the row.
    cols = rng.permutation(padded)
    mixed = np.hstack([floors, pads])[:, cols]
    got_p, got_levels = water_fill_batch(gains, mixed, budgets)
    assert np.array_equal(got_p[:, np.argsort(cols)][:, :width], want_p)
    assert np.array_equal(got_levels, want_levels)
    # Vanishing gains in place of the +inf floors: their floors overflow to
    # +inf, the same absent channels.
    vanishing = np.hstack([gains[:, :width], np.full(pads.shape, 1e-320)])[:, cols]
    noise = np.hstack([floors, np.ones(pads.shape)])[:, cols]
    got_p, got_levels = water_fill_batch(vanishing, noise, budgets)
    assert np.array_equal(got_p[:, np.argsort(cols)][:, :width], want_p)
    assert np.all(got_p[:, np.argsort(cols)][:, width:] == 0.0)
    assert np.array_equal(got_levels, want_levels)


def test_a_row_without_a_finite_floor_gets_zero_power():
    # Row 1's gains all vanish: no finite floor, so no usable channel. It gets
    # power 0.0 everywhere, with no RuntimeWarning (tier-1 makes them errors),
    # and the other rows are bit for bit those of a call without it.
    rng = np.random.default_rng(5)
    gains = rng.uniform(0.1, 2.0, (4, 6))
    noise = rng.uniform(0.1, 2.0, (4, 6))
    budgets = rng.uniform(0.5, 3.0, 4)
    gains[1] = 1e-320
    powers, levels = water_fill_batch(gains, noise, budgets)
    assert np.array_equal(powers[1], np.zeros(6))
    assert levels[1] == np.finfo(float).max
    live = [0, 2, 3]
    want_p, want_levels = water_fill_batch(gains[live], noise[live], budgets[live])
    assert np.array_equal(powers[live], want_p)
    assert np.array_equal(levels[live], want_levels)


def test_a_nan_floor_stays_nan():
    # NaN is not read as an absent channel: it reaches the powers, so a
    # solver's residual reads NaN and never converges.
    noise = np.array([[np.nan] * 3, [1.0, np.nan, 2.0], [1.0, 1.0, 2.0]])
    powers, levels = water_fill_batch(np.ones((3, 3)), noise, np.ones(3))
    assert np.isnan(powers[0]).all() and math.isnan(levels[0])
    assert math.isnan(powers[1, 1])
    assert np.isfinite(powers[2]).all()


def reference_water_fill_batch(gains, noise_plus_interf, budgets):
    """An earlier ``water_fill_batch`` body, kept as the oracle that the
    current one must match bit for bit: ``np.sort``, ``np.argmax`` and a
    (row, m) fancy index where the current body calls methods and ``take``."""
    with np.errstate(over="ignore"):
        floors = noise_plus_interf / gains
    r, c = floors.shape
    sorted_f = np.sort(floors, axis=1)
    levels_m = np.add.accumulate(sorted_f, axis=1)
    levels_m += budgets[:, None]
    levels_m /= np.arange(1, c + 1, dtype=float)
    np.minimum(levels_m, np.finfo(float).max, out=levels_m)
    ok = levels_m >= sorted_f
    last = (c - 1) - np.argmax(ok[:, ::-1], axis=1)
    levels = levels_m[np.arange(r), last]
    powers = np.subtract(levels[:, None], floors, out=floors)
    np.maximum(powers, 0.0, out=powers)
    return powers, levels


def assert_same_bits_as_reference(gains, noise, budgets):
    got = water_fill_batch(gains, noise.copy(), budgets)
    want = reference_water_fill_batch(gains, noise.copy(), budgets)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 12), cols=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1), special=st.floats(0.0, 0.6),
)
def test_water_fill_batch_matches_the_reference_bit_for_bit(rows, cols, seed, special):
    # A share ``special`` of the entries is a tied noise value, +inf (an
    # absent channel) or NaN, or a vanishing gain, whose floor overflows.
    rng = np.random.default_rng(seed)
    shape = (rows, cols)
    noise = 10.0 ** rng.uniform(-3, 3, shape)
    pick = rng.random(shape) < special
    noise[pick] = rng.choice([0.5, 1.0, 2.0, np.inf, np.nan], pick.sum())
    gains = 10.0 ** rng.uniform(-3, 3, shape)
    pick = rng.random(shape) < special
    gains[pick] = rng.choice([1.0, 1e-320], pick.sum())
    assert_same_bits_as_reference(gains, noise, 10.0 ** rng.uniform(-3, 3, rows))


@pytest.mark.parametrize("cols", [1, 2, 5, 17])
def test_water_fill_batch_edge_rows_match_the_reference(cols):
    rng = np.random.default_rng(cols)
    noise = rng.uniform(0.1, 2.0, (6, cols))
    gains = rng.uniform(0.1, 2.0, (6, cols))
    noise[0, ::2] = np.inf  # +inf floor columns
    gains[1] = 1e-320  # no finite floor
    noise[2, -1] = np.nan  # a NaN floor
    noise[3], gains[3] = 1.0, 1.0  # every floor tied
    noise[4, : cols // 2] = noise[4, -1]  # some floors tied
    budgets = rng.uniform(0.01, 10.0, 6)
    assert_same_bits_as_reference(gains, noise, budgets)


def test_water_fill_batch_index_cache_is_one_entry_per_channel_count(monkeypatch):
    # Shapes interleave (rows 1..12, in shuffled order, and four channel
    # counts), so the cache both grows an entry and slices a longer one.
    waterfill_module = importlib.import_module("uplinkgame.waterfill")
    monkeypatch.setattr(waterfill_module, "_INDEX", {})
    rng = np.random.default_rng(8)
    counts = [5, 1, 12, 3]
    for rows in rng.permutation(np.arange(1, 13)).tolist():
        for cols in counts:
            gains = 10.0 ** rng.uniform(-3, 3, (rows, cols))
            noise = 10.0 ** rng.uniform(-3, 3, (rows, cols))
            budgets = 10.0 ** rng.uniform(-3, 3, rows)
            assert_same_bits_as_reference(gains, noise, budgets)
            powers, levels = water_fill_batch(gains, noise, budgets)
            for i in range(rows):
                p, level = water_fill_batch(gains[i : i + 1], noise[i : i + 1], budgets[i : i + 1])
                assert p.tobytes() == powers[i].tobytes()
                assert level.tobytes() == levels[i : i + 1].tobytes()
    assert sorted(waterfill_module._INDEX) == sorted(counts)
    for steps, ends in waterfill_module._INDEX.values():
        assert not (steps.flags.writeable or ends.flags.writeable)


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
        phi, _ = water_fill_batch(gains, floors_phys, sc.budget)
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


# ---------------------------------------------------------------------------
# The interference without the rates, and best replies for some MUs only.


@pytest.mark.parametrize(
    "n, w, k", [(9, 4, 6), (12, 5, 23), (16, 4, 48), (1, 3, 8), (6, 1, 5), (7, 1, 1)]
)
def test_row_only_best_replies_equal_the_full_table_rows(n, w, k):
    sc = make_scenario(n, w, k, seed=5)
    rng = np.random.default_rng(n + k)
    for assoc in (rng.integers(0, w, n), np.zeros(n, dtype=np.intp)):
        powers = random_powers(sc, assoc, rng, slack=True)
        current, rates, vecs = best_reply_table(sc, assoc, powers)
        none, interference = profile_table(sc, assoc, powers, rates=False)
        assert none is None
        assert np.array_equal(interference, profile_table(sc, assoc, powers)[1])
        for mus in ([0], [n - 1], list(range(n - 1, -1, -2))):
            got_rates, got_vecs = best_replies(sc, interference[mus], mus)
            assert np.array_equal(got_rates, rates[mus])
            for ap in range(w):
                assert np.array_equal(got_vecs[ap], vecs[ap][mus])


def test_row_only_best_replies_keep_a_vanishing_gain_row():
    # MU 0 has no finite floor at AP 1: its own row reads power 0 and rate 0
    # there, as its row of the full table does.
    sc = unusable_ap_scenario()
    for assoc in ([0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 0, 0]):
        assoc = np.asarray(assoc)
        powers = random_powers(sc, assoc, np.random.default_rng(2))
        _, rates, vecs = best_reply_table(sc, assoc, powers)
        interference = profile_table(sc, assoc, powers, rates=False)[1]
        for mu in range(sc.num_mus):
            got_rates, got_vecs = best_replies(sc, interference[[mu]], [mu])
            assert np.array_equal(got_rates[0], rates[mu])
            for ap in range(sc.num_aps):
                assert np.array_equal(got_vecs[ap][0], vecs[ap][mu])
        got_rates, got_vecs = best_replies(sc, interference[[0]], [0])
        assert got_rates[0, 1] == 0.0 and not got_vecs[1].any()


@pytest.mark.parametrize("n, w, k", [(50, 1, 1), (20, 1, 3), (48, 3, 31), (9, 4, 6)])
def test_interference_adds_each_block_in_member_order(n, w, k):
    # Gains over many magnitudes, so that any other order of the adds moves bits.
    sc = make_scenario(n, w, k, seed=1)
    spread = 10.0 ** np.random.default_rng(k).uniform(-6, 6, size=sc.gain_sq.shape)
    sc = dataclasses.replace(sc, gain_sq=sc.gain_sq * spread)
    rng = np.random.default_rng(n)
    for assoc in (rng.integers(0, w, n), np.zeros(n, dtype=np.intp)):
        powers = random_powers(sc, assoc, rng, slack=True)
        interference = profile_table(sc, assoc, powers, rates=False)[1]
        for ap in range(w):
            cols = sc.chan_idx[ap]
            total = np.zeros(cols.size)
            for j in np.flatnonzero(assoc == ap):
                total = total + sc.gain_sq[j, cols] * powers[j]
            for i in range(n):
                own = sc.gain_sq[i, cols] * powers[i] if assoc[i] == ap else 0.0
                assert np.array_equal(interference[i, cols], total - own)


# ---------------------------------------------------------------------------
# The stacked best-reply table, and the interference read off an evaluation.


def per_ap_best_replies(scenario, interference, mus=None):
    """``best_replies`` as one ``water_fill_batch`` call per AP."""
    gain_sq, budget = scenario.gain_sq, scenario.budget
    if mus is not None:
        gain_sq, budget = gain_sq[mus], budget[mus]
    rates, vecs = np.empty((budget.size, scenario.num_aps)), []
    for ap, cols in enumerate(scenario.chan_idx):
        gains = gain_sq.take(cols, axis=1)
        floors = scenario.noise[cols] + interference.take(cols, axis=1)
        phi, _ = water_fill_batch(gains, floors, budget)
        rates[:, ap] = np.log2(1.0 + gains * phi / floors).sum(axis=1) / scenario.num_channels
        vecs.append(phi)
    return rates, vecs


def block_scenario(n, widths, seed):
    """N MUs and APs of the given channel widths, gains over four magnitudes."""
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0] + list(widths)).tolist()
    return NetworkScenario(
        num_mus=n, num_aps=len(widths), num_channels=bounds[-1],
        ap_channels=tuple(tuple(range(lo + 1, hi + 1)) for lo, hi in zip(bounds, bounds[1:])),
        gain_sq=10.0 ** rng.uniform(-3, 1, (n, bounds[-1])), noise=rng.uniform(0.01, 0.1, bounds[-1]),
        budget=rng.uniform(0.5, 2.0, n), mu_positions=rng.random((n, 2)),
        ap_positions=rng.random((len(widths), 2)), connection_cost=np.zeros(n),
    )


def assert_same_best_replies(sc, interference, mus=None):
    got_rates, got_vecs = best_replies(sc, interference, mus)
    want_rates, want_vecs = per_ap_best_replies(sc, interference, mus)
    assert np.array_equal(got_rates, want_rates)
    assert len(got_vecs) == sc.num_aps
    for got, want in zip(got_vecs, want_vecs):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "n, w, k", [(12, 5, 23), (6, 4, 5), (10, 1, 16), (8, 2, 16), (16, 4, 48), (1, 3, 8)]
)
def test_stacked_best_replies_equal_the_per_ap_loop(n, w, k):
    sc = make_scenario(n, w, k, seed=3)
    spread = 10.0 ** np.random.default_rng(k).uniform(-4, 4, size=sc.gain_sq.shape)
    sc = dataclasses.replace(sc, gain_sq=sc.gain_sq * spread)
    rng = np.random.default_rng(n + w)
    for assoc in (rng.integers(0, w, n), rng.integers(0, w, n), np.zeros(n, dtype=np.intp)):
        interference = profile_table(sc, assoc, random_powers(sc, assoc, rng, slack=True))[1]
        assert_same_best_replies(sc, interference)
        for mus in ([0], [n - 1], list(range(n - 1, -1, -2))):
            assert_same_best_replies(sc, interference[mus], mus)


@pytest.mark.parametrize(
    "n, widths",
    # Stacks split into several calls, some holding only narrower APs, at
    # widths where a pad column would regroup numpy's pairwise row sum.
    [(400, (24, 23, 24, 23)), (400, (16, 15, 16, 15, 15)), (5, (24, 23, 1, 17)), (30, (3, 1, 2, 9, 16))],
)
def test_stacked_best_replies_sum_each_ap_over_its_own_width(n, widths):
    sc = block_scenario(n, widths, seed=n)
    rng = np.random.default_rng(len(widths))
    assoc = rng.integers(0, sc.num_aps, n)
    interference = profile_table(sc, assoc, random_powers(sc, assoc, rng, slack=True))[1]
    assert_same_best_replies(sc, interference)
    assert_same_best_replies(sc, interference[::3], np.arange(0, n, 3))


def test_stacked_best_replies_keep_a_vanishing_gain_mu():
    sc = unusable_ap_scenario()
    rng = np.random.default_rng(4)
    for assoc in ([0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]):
        assoc = np.asarray(assoc)
        interference = profile_table(sc, assoc, random_powers(sc, assoc, rng))[1]
        assert_same_best_replies(sc, interference)
        assert_same_best_replies(sc, interference[[0]], [0])
        rates, vecs = best_replies(sc, interference)
        assert rates[0, 1] == 0.0 and not vecs[1][0].any()


def evaluated_interference(sc, assoc, powers, layout):
    evaluate_profile(sc, assoc, powers, layout)
    return layout.interference()


@pytest.mark.parametrize(
    "n, w, k",
    [(12, 1, 1), (20, 1, 1), (40, 2, 2), (30, 3, 4), (16, 5, 6), (6, 4, 5), (12, 5, 23),
     (10, 1, 16), (9, 4, 6), (8, 2, 16), (48, 3, 31)],
)
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_evaluation_interference_equals_the_profile_table(n, w, k, seed):
    # Gains over many magnitudes, so that any other order of the adds moves bits.
    sc = make_scenario(n, w, k, seed=seed)
    spread = 10.0 ** np.random.default_rng(seed).uniform(-6, 6, size=sc.gain_sq.shape)
    sc = dataclasses.replace(sc, gain_sq=sc.gain_sq * spread)
    rng = np.random.default_rng(n + seed)
    narrowest = int(np.argmin(sc.chan_width))
    assocs = [rng.integers(0, w, n), rng.integers(0, w, n),
              np.full(n, narrowest),  # one block: a lone column when it has width 1
              np.arange(n) % max(w - 1, 1)]  # AP w - 1 empty when w > 1
    layout = ProfileLayout()
    for assoc in assocs:
        for _ in range(2):  # a new association, then the same one again
            powers = random_powers(sc, assoc, rng, slack=True)
            got = evaluated_interference(sc, assoc, powers, layout)
            assert np.array_equal(got, profile_table(sc, assoc, powers, rates=False)[1])


def test_evaluation_interference_is_a_new_array_each_time():
    sc = make_scenario(8, 2, 16, seed=1)
    assoc = np.arange(8) % 2
    powers = random_powers(sc, assoc, np.random.default_rng(0))
    layout = ProfileLayout()
    first = evaluated_interference(sc, assoc, powers, layout)
    kept = first.copy()
    second = evaluated_interference(sc, assoc, [2.0 * p for p in powers], layout)
    assert second is not first and np.array_equal(first, kept)
    assert not np.array_equal(first, second)
