import dataclasses
import itertools
import math

import numpy as np
import pytest

import uplinkgame.baselines as baselines_module
import uplinkgame.inner as inner_module
from uplinkgame import (
    InnerConfig,
    JaspaConfig,
    NetworkScenario,
    ResourceError,
    StepsizeSchedule,
    ValidationError,
    closest_ap,
    exhaustive_search,
    jaspa,
    s_iwf,
    sum_rate,
    verify_jep,
    virtual_ap_bound,
    virtual_scenario,
)

from uplinkgame.baselines import AssociationRecord

from conftest import footnote_network, make_scenario


def test_footnote_table_by_hand(footnote2):
    result = exhaustive_search(footnote2)
    rates = {rec.association: rec.sum_rate for rec in result.table}
    stacked = math.log2(1.5)  # two users sharing one channel
    assert rates[(0, 0)] == pytest.approx(stacked, abs=1e-9)
    assert rates[(1, 1)] == pytest.approx(stacked, abs=1e-9)
    assert rates[(0, 1)] == pytest.approx(1.0, abs=1e-12)
    assert rates[(1, 0)] == pytest.approx(1.0, abs=1e-12)
    assert result.best_sum_rate == pytest.approx(1.0, abs=1e-12)
    assert result.best_association == (0, 1)  # first maximizer in order
    assert result.max_potential_association in ((0, 1), (1, 0))


def test_single_ap_enumerates_one_profile():
    sc = make_scenario(3, 1, 4, seed=1)
    result = exhaustive_search(sc)
    assert len(result.table) == 1
    ne = s_iwf(sc, np.zeros(3, dtype=int), eps_wf=1e-10)
    assert result.best_sum_rate == pytest.approx(
        sum_rate(sc, np.zeros(3, dtype=int), ne.powers), abs=1e-8
    )


def test_max_potential_profile_is_always_a_jep():
    for seed in range(6):
        sc = make_scenario(4, 2, 4, seed=seed + 300)
        result = exhaustive_search(sc)
        witness = np.asarray(result.max_potential_association)
        powers = InnerConfig().run(sc, witness).powers
        assert verify_jep(sc, witness, powers, 1e-6).is_equilibrium


def test_enumeration_cap():
    sc = make_scenario(8, 3, 6, seed=2)
    with pytest.raises(ResourceError, match="sampl"):
        exhaustive_search(sc, enumeration_cap=100)


@pytest.mark.parametrize(
    "n, w, k",
    [
        (7, 3, 12), (4, 4, 9), (9, 2, 5), (3, 5, 10), (1, 3, 8),
        (70, 1, 8),  # one profile whose member flags pass one 64-bit word
        (12, 2, 12),
    ],
)
def test_distinct_blocks_equal_row_unique(n, w, k):
    # The packed sort must reproduce np.unique(axis=0) of the (-size, width,
    # AP, member flags) rows: sorted keys and inverse.
    sc = make_scenario(n, w, k, seed=4)
    profiles = np.array(list(itertools.product(range(w), repeat=n)))
    for chunk in (profiles, profiles[::3], profiles[1:2]):
        member = chunk[:, None, :] == np.arange(w)[:, None]
        rows = np.empty((len(chunk), w, n + 3), dtype=np.int32)
        rows[..., 0] = -member.sum(axis=2)
        rows[..., 1] = [c.size for c in sc.chan_idx]
        rows[..., 2] = np.arange(w)
        rows[..., 3:] = member
        want_keys, want_inverse = np.unique(rows.reshape(-1, n + 3), axis=0, return_inverse=True)
        keys, inverse = inner_module._distinct_blocks(sc, chunk)
        assert keys.dtype == np.int32
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(inverse, want_inverse.reshape(-1))


def _per_profile_table(scenario, inner):
    """The exhaustive table built the slow way: one inner solve per profile."""
    table = []
    for assoc in itertools.product(range(scenario.num_aps), repeat=scenario.num_mus):
        result = inner.run(scenario, np.asarray(assoc))
        table.append(
            AssociationRecord(
                assoc,
                float(result.trace.sum_rate[-1]),
                float(result.trace.potential[-1]),
                result.converged,
            )
        )
    return tuple(table)


@pytest.mark.parametrize("solver", ["s_iwf", "a_iwf", "safeguarded"])
@pytest.mark.parametrize(
    "n, w, k, max_iters, cells",
    [
        (4, 3, 5, None, None),  # a width-1 block beside width-2 blocks
        (8, 2, 2, None, None),  # width-1 blocks of up to 8 members
        (4, 3, 12, 2, None),  # some profiles stop at max_iters
        (6, 2, 8, None, 64),  # two profiles per chunk: 32 chunks
        (7, 2, 8, None, None),  # safeguarded blocks released before a subset
        (4, 1, 5, None, None),  # W = 1
        (1, 3, 8, None, None),  # N = 1
        (2, 2, 2, None, None),  # the footnote network
    ],
)
def test_exhaustive_table_equals_per_profile_solves(monkeypatch, solver, n, w, k, max_iters, cells):
    if cells is not None:
        monkeypatch.setattr(baselines_module, "CHUNK_CELLS", cells)
    chunks = []
    real = baselines_module.solve_profiles

    def counted(scenario, profiles, *args):
        chunks.append(len(profiles))
        return real(scenario, profiles, *args)

    monkeypatch.setattr(baselines_module, "solve_profiles", counted)
    sc = footnote_network() if (n, w, k) == (2, 2, 2) else make_scenario(n, w, k, seed=21)
    if solver == "s_iwf":
        inner = InnerConfig(solver=solver, max_iters=max_iters or 100_000)
    else:
        inner = InnerConfig(solver="a_iwf", eps_wf=1e-7, max_iters=max_iters or 3_000)
    if solver == "safeguarded":
        # a_iwf with per-block held steps: subsets must carry the block state.
        inner = dataclasses.replace(inner, schedule=StepsizeSchedule(rule="safeguarded"))
    want = _per_profile_table(sc, inner)
    result = exhaustive_search(sc, inner)
    assert result.table == want  # exact float equality, field by field
    assert sum(chunks) == w**n
    if cells is not None:
        assert len(chunks) == w**n // 2
    if max_iters is not None:
        assert not all(rec.converged for rec in want)
        # s_iwf settles most of these profiles in two rounds.
        assert any(rec.converged for rec in want) == (solver == "s_iwf")


@pytest.mark.parametrize(
    "bad",
    [
        {"solver": "a-iwf"},  # used to run s_iwf silently
        {"solver": "newton"},
        {"eps_wf": -1.0},
        {"eps_wf": math.nan},  # used to run every profile to max_iters
        {"eps_wf": math.inf},
        {"max_iters": 0},
        {"max_iters": -5},
    ],
)
def test_inner_config_validates_its_settings(bad):
    with pytest.raises(ValidationError):
        InnerConfig(**bad)


def test_solve_profiles_checks_its_settings():
    InnerConfig(solver="a_iwf", eps_wf=0.0, max_iters=1)  # edges stay valid: the CLI passes 1
    sc = make_scenario(3, 2, 4, seed=3)
    profiles = np.zeros((1, 3), dtype=np.intp)
    for bad in ({"solver": "a-iwf"}, {"eps_wf": math.nan}, {"max_iters": 0}):
        with pytest.raises(ValidationError):
            baselines_module.solve_profiles(sc, profiles, **bad)


@pytest.mark.parametrize(
    "batch",
    [
        [[0, 1, -1, 0]],  # a negative AP: used to return a sum rate and a potential
        [[0, 1, 0]],  # one MU short: likewise
        [[0, 1, 2, 0]],  # an AP >= W
        [[0, 1, 0.5, 0]],  # not a whole number
        [0, 1, 0, 1],  # 1-D
        np.zeros((2, 4, 1), dtype=int),  # 3-D
        [[True, False, True, False]],  # booleans: used to pass as [1, 0, 1, 0]
        [["1", "0", "1", "0"]],  # strings: likewise
    ],
    ids=["negative", "short", "too-large", "fraction", "1-D", "3-D", "boolean", "string"],
)
def test_solve_profiles_refuses_a_malformed_batch(batch):
    sc = make_scenario(4, 2, 8, seed=0)
    with pytest.raises(ValidationError, match="associations"):
        baselines_module.solve_profiles(sc, np.asarray(batch))


def test_solve_profiles_takes_an_empty_batch_and_whole_floats():
    sc = make_scenario(4, 2, 8, seed=0)
    empty = baselines_module.solve_profiles(sc, np.zeros((0, 4), dtype=np.intp))
    assert [(a.shape, a.dtype) for a in empty] == [((0,), float), ((0,), float), ((0,), bool)]
    # validate_association's rules, row by row: whole floats are AP indices.
    batch = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
    got = baselines_module.solve_profiles(sc, batch.astype(float))
    want = baselines_module.solve_profiles(sc, batch)
    assert all(np.array_equal(g, x) for g, x in zip(got, want))


def test_exhaustive_search_solves_profiles_in_batches(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exhaustive search ran a per-profile solve")

    monkeypatch.setattr(baselines_module, "s_iwf", refuse)
    monkeypatch.setattr(baselines_module, "a_iwf", refuse)
    calls = []
    real = inner_module.water_fill_batch

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(inner_module, "water_fill_batch", counted)
    result = exhaustive_search(make_scenario(6, 3, 6, seed=22))
    assert len(result.table) == 729
    assert len(calls) < 729


def test_closest_ap_basics():
    sc = make_scenario(1, 2, 4, seed=3)
    moved = NetworkScenario(
        num_mus=1,
        num_aps=2,
        num_channels=4,
        ap_channels=sc.ap_channels,
        gain_sq=sc.gain_sq,
        noise=sc.noise,
        budget=sc.budget,
        mu_positions=np.array([[1.0, 1.0]]),
        ap_positions=np.array([[0.0, 0.0], [9.0, 9.0]]),
        connection_cost=sc.connection_cost,
    )
    assert closest_ap(moved).tolist() == [0]
    tie = NetworkScenario(
        num_mus=1,
        num_aps=2,
        num_channels=4,
        ap_channels=sc.ap_channels,
        gain_sq=sc.gain_sq,
        noise=sc.noise,
        budget=sc.budget,
        mu_positions=np.array([[5.0, 0.0]]),
        ap_positions=np.array([[0.0, 0.0], [10.0, 0.0]]),
        connection_cost=sc.connection_cost,
    )
    assert closest_ap(tie).tolist() == [0]  # ties go to the lower index


def test_closest_ap_permutation_equivariance():
    sc = make_scenario(5, 3, 6, seed=4)
    perm = np.array([2, 0, 1])  # new index of each old AP
    relabeled = NetworkScenario(
        num_mus=5,
        num_aps=3,
        num_channels=6,
        ap_channels=tuple(sc.ap_channels[list(perm).index(w)] for w in range(3)),
        gain_sq=sc.gain_sq,
        noise=sc.noise,
        budget=sc.budget,
        mu_positions=sc.mu_positions,
        ap_positions=sc.ap_positions[[list(perm).index(w) for w in range(3)]],
        connection_cost=sc.connection_cost,
    )
    base = closest_ap(sc)
    assert closest_ap(relabeled).tolist() == [int(perm[a]) for a in base]


def test_closest_baseline_never_beats_exhaustive_optimum():
    for seed in range(5):
        sc = make_scenario(4, 2, 4, seed=seed + 310)
        result = exhaustive_search(sc)
        assoc = closest_ap(sc)
        ne = InnerConfig().run(sc, assoc)
        assert sum_rate(sc, assoc, ne.powers) <= result.best_sum_rate + 1e-9


def test_virtual_pooling_is_identity_for_single_ap():
    sc = make_scenario(3, 1, 5, seed=5)
    vr = virtual_ap_bound(sc)
    ne = InnerConfig().run(sc, np.zeros(3, dtype=int))
    assert vr.equilibrium_sum_rate == pytest.approx(
        float(ne.trace.sum_rate[-1]), abs=1e-12
    )


def test_virtual_scenario_keeps_channel_physics(footnote2):
    pooled = virtual_scenario(footnote2)
    assert pooled.num_aps == 1
    assert pooled.ap_channels == ((1, 2),)
    assert np.array_equal(pooled.gain_sq, footnote2.gain_sq)
    assert np.array_equal(pooled.noise, footnote2.noise)


def test_footnote_bound_covers_the_split_equilibrium(footnote2):
    vr = virtual_ap_bound(footnote2)
    assert vr.capacity_bound == pytest.approx(1.0, abs=1e-9)
    assert vr.capacity_bound + 1e-9 >= 1.0  # the split JEP's throughput


def test_capacity_bound_dominates_equilibria_on_random_instances():
    for seed in range(5):
        sc = make_scenario(4, 2, 6, seed=seed + 320)
        vr = virtual_ap_bound(sc)
        ex = exhaustive_search(sc)
        assert vr.capacity_bound + 1e-9 >= ex.best_sum_rate
        run = jaspa(sc, JaspaConfig(memory_len=4, seed=seed, max_outer=4000))
        assert vr.capacity_bound + 1e-9 >= run.rows[-1].sum_rate


def test_capacity_bound_dominates_joint_family_at_protocol_size():
    from uplinkgame import j_jaspa, si_jaspa

    for seed in range(5):
        sc = make_scenario(8, 2, 16, seed=seed + 330)
        bound = virtual_ap_bound(sc).capacity_bound
        cfg = JaspaConfig(memory_len=8, seed=seed, max_outer=10_000)
        for algo in (jaspa, si_jaspa, j_jaspa):
            run = algo(sc, cfg)
            assert bound + 1e-9 >= run.rows[-1].sum_rate


def test_exhaustive_optimum_dominates_every_joint_equilibrium():
    from uplinkgame import j_jaspa, se_jaspa, si_jaspa

    for seed in range(3):
        sc = make_scenario(4, 2, 4, seed=seed + 340)
        tstar = exhaustive_search(sc).best_sum_rate
        cfg = JaspaConfig(memory_len=4, seed=seed, max_outer=10_000)
        for algo in (jaspa, se_jaspa, si_jaspa, j_jaspa):
            run = algo(sc, cfg)
            assert run.converged
            assert sum_rate(sc, run.association, run.powers) <= tstar + 1e-9


def test_footnote_argmaxes_read_the_table(footnote2):
    # (0, 1) and (1, 0) tie; the first maximizer in lexicographic order wins.
    result = exhaustive_search(footnote2)
    assert result.max_potential_association == (0, 1)
    rates = [rec.sum_rate for rec in result.table]
    potentials = [rec.potential for rec in result.table]
    assert result.best_sum_rate == rates[rates.index(max(rates))]
    assert result.max_potential == potentials[potentials.index(max(potentials))]
    assert result.table[potentials.index(max(potentials))].association == (0, 1)
    for rec in result.table:
        assert isinstance(rec, AssociationRecord)
        association, sum_rate, potential, converged = rec
        assert rec == AssociationRecord(association, sum_rate, potential, converged)


@pytest.mark.parametrize("cap", [True, 2.5, 0, -1, "8", None])
def test_enumeration_cap_is_a_positive_integer(footnote2, cap):
    with pytest.raises(ValidationError, match="enumeration_cap"):
        exhaustive_search(footnote2, enumeration_cap=cap)
