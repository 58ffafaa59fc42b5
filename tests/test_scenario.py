import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplinkgame import (
    ScenarioGenParams,
    ScenarioParseError,
    ValidationError,
    generate_scenario,
    load_scenario,
    partition_channels,
    save_scenario,
)
from uplinkgame.baselines import virtual_scenario
from uplinkgame.cli import main
from uplinkgame.scenario import sample_gains


def test_partition_paper_sizes():
    blocks = partition_channels(64, 4)
    assert [len(b) for b in blocks] == [16, 16, 16, 16]
    assert blocks[0] == list(range(1, 17))
    assert blocks[3] == list(range(49, 65))


def test_partition_identity_case():
    assert partition_channels(1, 1) == [[1]]


def test_partition_remainder_round_robin():
    blocks = partition_channels(5, 2)
    assert [len(b) for b in blocks] == [3, 2]
    assert blocks == [[1, 2, 3], [4, 5]]


def test_partition_rejects_k_below_w():
    with pytest.raises(ValidationError):
        partition_channels(3, 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_partition_is_a_partition(k, w):
    if k < w:
        return
    blocks = partition_channels(k, w)
    flat = [c for b in blocks for c in b]
    assert sorted(flat) == list(range(1, k + 1))
    sizes = [len(b) for b in blocks]
    assert max(sizes) - min(sizes) <= 1


def test_generation_is_deterministic():
    params = ScenarioGenParams(num_mus=5, num_aps=2, num_channels=6, seed=11)
    a, b = generate_scenario(params), generate_scenario(params)
    assert np.array_equal(a.gain_sq, b.gain_sq)
    assert np.array_equal(a.mu_positions, b.mu_positions)
    assert np.array_equal(a.ap_positions, b.ap_positions)


def test_generated_scenarios_satisfy_invariants():
    for seed in range(25):
        sc = generate_scenario(
            ScenarioGenParams(num_mus=4, num_aps=3, num_channels=7, seed=seed)
        )
        assert np.all(sc.gain_sq > 0) and np.all(np.isfinite(sc.gain_sq))
        assert np.all(sc.noise > 0) and np.all(sc.budget > 0)
        flat = sorted(c for b in sc.ap_channels for c in b)
        assert flat == list(range(1, 8))
        assert np.all(sc.mu_positions >= 0) and np.all(sc.mu_positions <= 10)


def test_paper_experiment_shape():
    sc = generate_scenario(ScenarioGenParams(num_mus=20, num_aps=4, num_channels=64, seed=1))
    assert sc.gain_sq.shape == (20, 64)
    assert all(len(b) == 16 for b in sc.ap_channels)


def test_mean_gain_at_distance_ten():
    # Monte-Carlo oracle over the generator's gain sampler: mean 1/d^2.
    rng = np.random.default_rng(123)
    draws = sample_gains(rng, 10.0, 100_000)
    assert abs(draws.mean() - 0.01) / 0.01 < 0.05


@pytest.mark.parametrize("n, w, k", [(1, 1, 1), (6, 4, 5), (12, 5, 23), (200, 10, 256)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_gains_are_the_per_link_draws_bit_for_bit(n, w, k, seed):
    # The oracle draws each (MU, AP) link's gains with sample_gains, in
    # (MU, AP) order, after the AP and MU positions.
    sc = generate_scenario(ScenarioGenParams(num_mus=n, num_aps=w, num_channels=k, seed=seed))
    rng = np.random.default_rng(seed)
    ap_pos = rng.uniform(0.0, 10.0, size=(w, 2))
    mu_pos = rng.uniform(0.0, 10.0, size=(n, 2))
    gain = np.empty((n, k))
    for i in range(n):
        for ap, labels in enumerate(partition_channels(k, w)):
            d = float(np.hypot(*(mu_pos[i] - ap_pos[ap])))
            gain[i, np.asarray(labels) - 1] = sample_gains(rng, d, len(labels))
    assert sc.gain_sq.tobytes() == gain.tobytes()
    assert sc.mu_positions.tobytes() == mu_pos.tobytes()


def test_distance_clamp_bounds_mean_gain():
    rng = np.random.default_rng(1)
    close = sample_gains(rng, 0.0, 50_000)
    assert abs(close.mean() - 1e4) / 1e4 < 0.05  # clamped at d = 0.01


def test_round_trip_is_lossless(tmp_path):
    sc = generate_scenario(ScenarioGenParams(num_mus=3, num_aps=2, num_channels=5, seed=4))
    path = tmp_path / "s.scn"
    save_scenario(sc, path)
    back = load_scenario(path)
    assert back.ap_channels == sc.ap_channels
    assert np.array_equal(back.gain_sq, sc.gain_sq)
    assert np.array_equal(back.noise, sc.noise)
    assert np.array_equal(back.budget, sc.budget)
    assert np.array_equal(back.mu_positions, sc.mu_positions)
    assert np.array_equal(back.connection_cost, sc.connection_cost)
    assert back.seed == sc.seed


def _doc(tmp_path, **overrides):
    sc = generate_scenario(ScenarioGenParams(num_mus=2, num_aps=2, num_channels=2, seed=0))
    path = tmp_path / "s.scn"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_overlapping_channels_rejected(tmp_path):
    path = _doc(tmp_path, ap_channels=[[1, 2], [2]])
    with pytest.raises(ValidationError, match="ap_channels"):
        load_scenario(path)


def test_zero_noise_rejected(tmp_path):
    path = _doc(tmp_path, noise=[0.0, 1.0])
    with pytest.raises(ValidationError, match="noise"):
        load_scenario(path)


def test_zero_gain_rejected(tmp_path):
    path = _doc(tmp_path, gain_sq=[[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match="gain_sq"):
        load_scenario(path)


def test_missing_field_names_it(tmp_path):
    sc = generate_scenario(ScenarioGenParams(num_mus=2, num_aps=1, num_channels=2, seed=0))
    path = tmp_path / "s.scn"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    del doc["budget"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="budget"):
        load_scenario(path)


def test_malformed_file_reports_location(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text('{"num_mus": 2,,}')
    with pytest.raises(ScenarioParseError, match="line 1"):
        load_scenario(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("ap_channels", 5),
        ("ap_channels", [["a"], [2]]),
        ("gain_sq", "abc"),
        ("gain_sq", [[1.0, 1.0], [1.0]]),
        ("num_mus", "x"),
        ("seed", "abc"),
    ],
)
def test_unconvertible_field_is_named_and_exits_3(tmp_path, capsys, field, value):
    path = _doc(tmp_path, **{field: value})
    with pytest.raises(ValidationError, match=f"^{field}: "):
        load_scenario(path)
    code = main(["run", "--algo", "s_iwf", "--scenario", str(path),
                 "--out-trace", str(tmp_path / "t.csv"), "--out-summary", str(tmp_path / "s.json")])
    assert code == 3
    assert f"validation error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_aps", 2.5),
        ("num_mus", 2.0),  # a float is refused even when whole
        ("num_channels", True),
        ("seed", 3.9),
        ("seed", False),
        ("ap_channels", [[1], [2.0]]),
        ("ap_channels", [[True], [2]]),
        ("connection_cost", [True, False]),
        ("noise", ["1", "1"]),
        ("noise", [True, True]),
        ("noise", [1.0, True]),
        ("budget", [1, True]),
    ],
)
def test_non_integer_or_boolean_field_is_refused_and_exits_3(tmp_path, capsys, field, value):
    # Each used to load truncated: num_aps 2.5 as 2 APs, seed 3.9 as 3,
    # costs [true, false] as [1.0, 0.0], noise ["1", "1"], [true, true] or
    # [1.0, true] as [1.0, 1.0], and budget [1, true] as [1.0, 1.0].
    path = _doc(tmp_path, **{field: value})
    with pytest.raises(ValidationError, match=f"^{field}: "):
        load_scenario(path)
    code = main(["run", "--algo", "s_iwf", "--scenario", str(path),
                 "--out-trace", str(tmp_path / "t.csv"), "--out-summary", str(tmp_path / "s.json")])
    assert code == 3
    assert f"validation error: {field}: " in capsys.readouterr().err


def test_a_null_seed_and_integer_costs_still_load(tmp_path):
    back = load_scenario(_doc(tmp_path, seed=None, connection_cost=[0, 1]))
    assert back.seed is None
    assert back.connection_cost.tolist() == [0.0, 1.0]


@pytest.mark.parametrize(
    "n, w, k",
    [(1, 1, 1), (1, 3, 7), (6, 1, 9), (5, 3, 7), (12, 5, 23), (200, 10, 256)],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_saved_bytes_equal_json_dump_with_indent_1(tmp_path, n, w, k, seed):
    sc = generate_scenario(ScenarioGenParams(num_mus=n, num_aps=w, num_channels=k, seed=seed))
    if seed:  # costs, and a seed that is not an integer of the file
        sc = dataclasses.replace(sc, connection_cost=np.linspace(0.0, 1.5, n), seed=None)
    path = tmp_path / "s.scn"
    save_scenario(sc, path)
    doc = {
        "num_mus": n,
        "num_aps": w,
        "num_channels": k,
        "ap_channels": [list(b) for b in sc.ap_channels],
        "gain_sq": sc.gain_sq.tolist(),
        "noise": sc.noise.tolist(),
        "budget": sc.budget.tolist(),
        "positions": {"mus": sc.mu_positions.tolist(), "aps": sc.ap_positions.tolist()},
        "connection_cost": sc.connection_cost.tolist(),
        "seed": sc.seed,
    }
    assert path.read_text() == json.dumps(doc, indent=1) + "\n"


def test_params_validation():
    with pytest.raises(ValidationError):
        ScenarioGenParams(num_mus=2, num_aps=4, num_channels=3)
    with pytest.raises(ValidationError):
        ScenarioGenParams(num_mus=2, num_aps=1, num_channels=2, area_side=0.0)


@pytest.mark.parametrize(
    "args, kwargs, field",
    [
        ((4.5, 2, 8), {}, "num_mus"),
        ((4, 2.0, 8), {}, "num_aps"),
        ((4, 2, "8"), {}, "num_channels"),
        ((4, 2, 8), {"seed": -1}, "seed"),
        ((4, 2, 8), {"seed": 2.5}, "seed"),
        ((4, 2, 8), {"area_side": float("nan")}, "area_side"),
        ((4, 2, 8), {"area_side": float("inf")}, "area_side"),
        ((True, 2, 8), {}, "num_mus"),
        ((4, True, 8), {}, "num_aps"),
        # Not "num_channels (1) must be >= num_aps (2)".
        ((4, 2, True), {}, "num_channels must be an integer"),
        ((4, 2, 8), {"seed": False}, "seed"),
        ((4, 2, 8), {"area_side": "10"}, "area_side"),
        ((4, 2, 8), {"area_side": None}, "area_side"),
        ((4, 2, 8), {"area_side": True}, "area_side"),
    ],
)
def test_bad_generation_params_are_named_validation_errors(args, kwargs, field):
    # Each used to be accepted (a bool count or seed was read as 1 or 0), or
    # to fail with a bare TypeError.
    with pytest.raises(ValidationError, match=field):
        ScenarioGenParams(*args, **kwargs)


def test_generation_params_store_python_ints():
    p = ScenarioGenParams(np.int64(4), np.int32(2), np.int64(8), seed=np.uint8(3))
    values = (p.num_mus, p.num_aps, p.num_channels, p.seed)
    assert all(type(v) is int for v in values) and values == (4, 2, 8, 3)


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_mus", 3.0),
        ("num_mus", 0),
        ("num_aps", True),
        ("num_channels", 4.0),
        ("seed", "abc"),
        ("seed", 2.5),
        ("seed", True),
        ("seed", -1),
    ],
)
def test_scenario_counts_and_seed_are_named_validation_errors(field, value):
    # Each used to construct: a float count then failed in the solvers with
    # a TypeError, and such a seed saved a file that load_scenario refused.
    sc = generate_scenario(ScenarioGenParams(num_mus=4, num_aps=2, num_channels=4, seed=0))
    with pytest.raises(ValidationError, match=field):
        dataclasses.replace(sc, **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("noise", [1.0, True, 1.0, 1.0]),
        ("connection_cost", [0.5, True, 0, 0]),
        ("mu_positions", [[0.0, 0.0], [1.0, 1.0], [2.0], [3.0, 3.0]]),
        ("gain_sq", [[1.0] * 4, [1.0] * 4, [1.0] * 4, [1.0] * 3]),
    ],
)
def test_scenario_array_fields_refuse_booleans_and_ragged_nestings(field, value):
    # A boolean used to construct as 1.0, and a ragged list raised numpy's
    # bare ValueError.
    sc = generate_scenario(ScenarioGenParams(num_mus=4, num_aps=2, num_channels=4, seed=0))
    with pytest.raises(ValidationError, match=f"^{field}: "):
        dataclasses.replace(sc, **{field: value})


def test_scenario_stores_python_ints_and_round_trips(tmp_path):
    sc = generate_scenario(ScenarioGenParams(num_mus=4, num_aps=2, num_channels=4, seed=0))
    sc = dataclasses.replace(sc, num_mus=np.int64(4), num_aps=np.int32(2),
                             num_channels=np.int64(4), seed=np.uint8(3))
    values = (sc.num_mus, sc.num_aps, sc.num_channels, sc.seed)
    assert all(type(v) is int for v in values) and values == (4, 2, 4, 3)
    path = tmp_path / "s.scn"
    save_scenario(sc, path)
    back = load_scenario(path)
    assert (back.num_mus, back.num_aps, back.num_channels, back.seed) == values
    assert back.ap_channels == sc.ap_channels and np.array_equal(back.gain_sq, sc.gain_sq)


def test_a_negative_seed_in_a_file_is_refused(tmp_path):
    with pytest.raises(ValidationError, match="seed"):
        load_scenario(_doc(tmp_path, seed=-1))


def test_scenario_arrays_are_read_only():
    sc = generate_scenario(ScenarioGenParams(num_mus=6, num_aps=4, num_channels=5, seed=0))
    # chan_noise at a channel and at a pad.
    for array, cell in ((sc.gain_sq, (0, 0)), (sc.chan_noise, (0, 0)), (sc.chan_noise, (1, 1))):
        with pytest.raises(ValueError):
            array[cell] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.chan_noise = np.ones((4, 2))


# ---------------------------------------------------------------------------
# chan_noise: each AP's channel noise, +inf on a narrower AP's pad columns.


def _noisy(n, w, k, seed=0):
    """A generated scenario with a distinct noise on every channel."""
    sc = generate_scenario(ScenarioGenParams(n, w, k, seed=seed))
    return dataclasses.replace(sc, noise=1.0 + np.arange(k) / 8)


@pytest.mark.parametrize("n, w, k", [(12, 5, 23), (6, 4, 5)])
def test_chan_noise_is_each_aps_noise_and_inf_on_its_pads(n, w, k):
    sc = _noisy(n, w, k)
    assert np.unique(sc.chan_width).size == 2
    assert sc.chan_noise.shape == (w, sc.chan_width.max())
    for ap, cols in enumerate(sc.chan_idx):
        assert np.array_equal(sc.chan_noise[ap, : cols.size], sc.noise[cols])
        assert np.all(sc.chan_noise[ap, cols.size :] == np.inf)
    assert np.count_nonzero(np.isfinite(sc.chan_noise)) == k


@pytest.mark.parametrize("n, w, k", [(8, 2, 16), (4, 3, 9), (5, 1, 7), (1, 1, 1)])
def test_chan_noise_has_no_pads_at_one_width(n, w, k):
    sc = _noisy(n, w, k)
    assert np.isfinite(sc.chan_noise).all()
    assert np.array_equal(sc.chan_noise, sc.noise[sc.chan_table])


def test_chan_noise_is_rebuilt_with_the_scenario(tmp_path):
    sc = _noisy(6, 4, 5)  # widths 2, 1, 1, 1
    inf = np.inf
    assert np.array_equal(sc.chan_noise, [[1.0, 1.125], [1.25, inf], [1.375, inf], [1.5, inf]])
    replaced = dataclasses.replace(sc, noise=np.full(5, 0.5))
    assert np.array_equal(replaced.chan_noise, [[0.5, 0.5], [0.5, inf], [0.5, inf], [0.5, inf]])
    pooled = virtual_scenario(sc)
    assert np.array_equal(pooled.chan_noise, [sc.noise])
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    loaded = load_scenario(path)
    assert np.array_equal(loaded.chan_noise, sc.chan_noise)
    assert not loaded.chan_noise.flags.writeable


def _replaced(**fields):
    """A call building the (2, 2, 2) scenario with ``fields`` replaced."""
    def build(tmp_path):
        sc = generate_scenario(ScenarioGenParams(num_mus=2, num_aps=2, num_channels=2, seed=0))
        return dataclasses.replace(sc, **fields)
    return build


def _loaded(**overrides):
    """A call loading the (2, 2, 2) scenario file with ``overrides``."""
    return lambda tmp_path: load_scenario(_doc(tmp_path, **overrides))


def _loaded_text(text):
    def load(tmp_path):
        path = tmp_path / "s.scn"
        path.write_text(text)
        return load_scenario(path)
    return load


@pytest.mark.parametrize(
    "call, error, field",
    [
        (_replaced(ap_channels=((1, 2),)), ValidationError, "ap_channels: need one"),
        (_replaced(ap_channels=((1, 2), ())), ValidationError, "ap_channels: AP 1 has no"),
        (_replaced(ap_channels=((1,), (3,))), ValidationError, "ap_channels: channel 3 outside"),
        (_replaced(gain_sq=np.ones((2, 3))), ValidationError, "gain_sq: expected shape"),
        (_replaced(noise=[1.0, np.nan]), ValidationError, "noise: entries must be finite"),
        (_replaced(budget=[1.0, 0.0]), ValidationError, "budget: entries must be strictly"),
        (_replaced(connection_cost=[0.0, -1.0]), ValidationError, "connection_cost: entries"),
        (lambda tmp_path: partition_channels(4, 0), ValidationError, "num_aps"),
        (_loaded_text("[1, 2]"), ScenarioParseError, "top level"),
        (_loaded(positions={"mus": [[0.0, 0.0], [1.0, 1.0]]}), ValidationError, "positions: expected"),
    ],
)
def test_invalid_scenarios_are_refused_by_name(tmp_path, call, error, field):
    with pytest.raises(error, match=field):
        call(tmp_path)
