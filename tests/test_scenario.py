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
    ],
)
def test_non_integer_or_boolean_field_is_refused_and_exits_3(tmp_path, capsys, field, value):
    # Each used to load truncated: num_aps 2.5 as 2 APs, seed 3.9 as 3, and
    # costs [true, false] as [1.0, 0.0].
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
    ],
)
def test_bad_generation_params_are_named_validation_errors(args, kwargs, field):
    # Each used to be accepted, or to fail with a bare TypeError.
    with pytest.raises(ValidationError, match=field):
        ScenarioGenParams(*args, **kwargs)


def test_generation_params_store_python_ints():
    p = ScenarioGenParams(np.int64(4), np.int32(2), np.int64(8), seed=np.uint8(3))
    values = (p.num_mus, p.num_aps, p.num_channels, p.seed)
    assert all(type(v) is int for v in values) and values == (4, 2, 8, 3)


def test_scenario_arrays_are_read_only():
    sc = generate_scenario(ScenarioGenParams(num_mus=2, num_aps=1, num_channels=2, seed=0))
    with pytest.raises(ValueError):
        sc.gain_sq[0, 0] = 2.0
