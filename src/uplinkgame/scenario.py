"""Immutable network description and random scenario generation.

Conventions: AP and MU indices are 0-based throughout the Python API.
Channel labels inside ``ap_channels`` (and in scenario files) are 1-based,
matching the on-disk schema; 0-based column views are precomputed as
``chan_idx``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ScenarioParseError, ValidationError, check_count, check_numbers, check_real, check_seed

# Distances below this are clamped before computing the mean gain, so that
# co-located nodes do not produce unbounded gains.
MIN_DISTANCE = 0.01

SCENARIO_FIELDS = (
    "num_mus",
    "num_aps",
    "num_channels",
    "ap_channels",
    "gain_sq",
    "noise",
    "budget",
    "positions",
    "connection_cost",
    "seed",
)


def partition_channels(num_channels: int, num_aps: int) -> list[list[int]]:
    """Split channels 1..K into contiguous per-AP blocks of near-equal size.

    Block sizes differ by at most one; the remainder goes round-robin to the
    lowest-indexed APs. Raises ValidationError if ``num_channels < num_aps``.
    """
    if num_aps < 1:
        raise ValidationError("num_aps must be >= 1")
    if num_channels < num_aps:
        raise ValidationError(
            f"num_channels ({num_channels}) must be >= num_aps ({num_aps})"
        )
    base, extra = divmod(num_channels, num_aps)
    blocks = []
    start = 1
    for w in range(num_aps):
        size = base + (1 if w < extra else 0)
        blocks.append(list(range(start, start + size)))
        start += size
    return blocks


@dataclass(frozen=True)
class NetworkScenario:
    """Static description of one network snapshot.

    gain_sq[i, k] is the squared channel gain from MU i on (1-based) channel
    k+1 toward the AP that owns the channel; noise[k] is that channel's noise
    power at its owning AP. Instances are immutable and safe to share across
    concurrent solver runs.
    """

    num_mus: int
    num_aps: int
    num_channels: int
    ap_channels: tuple  # per-AP tuple of 1-based channel labels
    gain_sq: np.ndarray  # (N, K)
    noise: np.ndarray  # (K,)
    budget: np.ndarray  # (N,)
    mu_positions: np.ndarray  # (N, 2)
    ap_positions: np.ndarray  # (W, 2)
    connection_cost: np.ndarray  # (N,)
    seed: Optional[int] = None
    chan_idx: tuple = field(init=False, repr=False)  # per-AP 0-based columns
    # chan_idx as one (W, C) array, C the widest AP's width; each AP's width;
    # and each AP's channel noise (W, C). The one pad convention of every
    # batched kernel: a narrower AP's pad columns read channel 0 in
    # chan_table, so a pad's gain is channel 0's, and +inf in chan_noise, so
    # a floor over a pad is +inf, an absent channel to ``water_fill_batch``
    # (power 0.0, and G*P 0.0). Noise is finite, so the finite entries of
    # chan_noise are exactly each AP's own channels.
    chan_table: np.ndarray = field(init=False, repr=False)
    chan_width: np.ndarray = field(init=False, repr=False)
    chan_noise: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("num_mus", "num_aps", "num_channels"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        if self.seed is not None:
            object.__setattr__(self, "seed", check_seed("seed", self.seed))
        n, w, k = self.num_mus, self.num_aps, self.num_channels
        if len(self.ap_channels) != w:
            raise ValidationError("ap_channels: need one channel list per AP")
        seen: set[int] = set()
        idx = []
        for ap, labels in enumerate(self.ap_channels):
            labels = tuple(int(c) for c in labels)
            if not labels:
                raise ValidationError(f"ap_channels: AP {ap} has no channels")
            for c in labels:
                if not 1 <= c <= k:
                    raise ValidationError(
                        f"ap_channels: channel {c} outside 1..{k} at AP {ap}"
                    )
                if c in seen:
                    raise ValidationError(
                        f"ap_channels: channel {c} assigned to more than one AP"
                    )
                seen.add(c)
            idx.append(np.asarray(labels, dtype=np.intp) - 1)

        arrays = {
            "gain_sq": (self.gain_sq, (n, k)),
            "noise": (self.noise, (k,)),
            "budget": (self.budget, (n,)),
            "mu_positions": (self.mu_positions, (n, 2)),
            "ap_positions": (self.ap_positions, (w, 2)),
            "connection_cost": (self.connection_cost, (n,)),
        }
        for name, (arr, shape) in arrays.items():
            arr = np.asarray(check_numbers(name, arr), dtype=float)
            if arr.shape != shape:
                raise ValidationError(f"{name}: expected shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name}: entries must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

        if np.any(self.gain_sq <= 0.0):
            raise ValidationError("gain_sq: entries must be strictly positive")
        if np.any(self.noise <= 0.0):
            raise ValidationError("noise: entries must be strictly positive")
        if np.any(self.budget <= 0.0):
            raise ValidationError("budget: entries must be strictly positive")
        if np.any(self.connection_cost < 0.0):
            raise ValidationError("connection_cost: entries must be nonnegative")

        object.__setattr__(self, "ap_channels", tuple(tuple(int(c) for c in b) for b in self.ap_channels))
        width = np.array([a.size for a in idx])
        table = np.zeros((w, width.max()), dtype=np.intp)
        for ap, a in enumerate(idx):
            table[ap, : a.size] = a
        noise = self.noise.take(table)
        noise[np.arange(table.shape[1]) >= width[:, None]] = np.inf
        for a in (*idx, table, width, noise):
            a.setflags(write=False)
        object.__setattr__(self, "chan_idx", tuple(idx))
        object.__setattr__(self, "chan_table", table)
        object.__setattr__(self, "chan_width", width)
        object.__setattr__(self, "chan_noise", noise)


@dataclass(frozen=True)
class ScenarioGenParams:
    """Parameters for random scenario generation."""

    num_mus: int
    num_aps: int
    num_channels: int
    area_side: float = 10.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_mus", "num_aps", "num_channels"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        object.__setattr__(self, "seed", check_seed("seed", self.seed))
        if self.num_channels < self.num_aps:
            raise ValidationError(
                f"num_channels ({self.num_channels}) must be >= num_aps ({self.num_aps})"
            )
        check_real("area_side", self.area_side)
        if not (np.isfinite(self.area_side) and self.area_side > 0):
            raise ValidationError("area_side must be finite and positive")


def sample_gains(rng: np.random.Generator, distance: float, count: int) -> np.ndarray:
    """Draw squared channel gains at the given link distance.

    I.i.d. exponential with mean 1/d^2 (Rayleigh amplitude), with d clamped to
    MIN_DISTANCE. Draws are floored away from exact zero so every stored gain
    is strictly positive.
    """
    d = max(float(distance), MIN_DISTANCE)
    draws = rng.exponential(scale=1.0 / d**2, size=count)
    return np.maximum(draws, 1e-300)


def generate_scenario(params: ScenarioGenParams) -> NetworkScenario:
    """Generate a random snapshot: uniform placement on the square, exponential
    gains with mean 1/d^2, unit noise and unit budgets.

    Deterministic for a fixed seed: draw order is AP positions, MU positions,
    then gains in (MU, AP) order. The gains are ``sample_gains``' draws in
    one call: its per-link scale on each channel of the (N, K) matrix, whose
    row-major order is (MU, AP) order since each AP's channels are one
    contiguous block. Each scale is a Python float, because CPython's
    ``d ** 2`` and numpy's square can round differently.
    """
    rng = np.random.default_rng(params.seed)
    n, w, k = params.num_mus, params.num_aps, params.num_channels
    ap_pos = rng.uniform(0.0, params.area_side, size=(w, 2))
    mu_pos = rng.uniform(0.0, params.area_side, size=(n, 2))
    blocks = partition_channels(k, w)
    dist = np.hypot(mu_pos[:, None, 0] - ap_pos[:, 0], mu_pos[:, None, 1] - ap_pos[:, 1])
    scale = [[1.0 / max(d, MIN_DISTANCE) ** 2 for d in row] for row in dist.tolist()]
    owner = np.repeat(np.arange(w), [len(b) for b in blocks])
    gain = np.maximum(rng.exponential(scale=np.array(scale)[:, owner]), 1e-300)
    return NetworkScenario(
        num_mus=n,
        num_aps=w,
        num_channels=k,
        ap_channels=tuple(tuple(b) for b in blocks),
        gain_sq=gain,
        noise=np.ones(k),
        budget=np.ones(n),
        mu_positions=mu_pos,
        ap_positions=ap_pos,
        connection_cost=np.zeros(n),
        seed=params.seed,
    )


def save_scenario(scenario: NetworkScenario, path) -> None:
    """Write the scenario as a self-describing JSON document.

    Floats round-trip exactly (shortest-repr serialization).
    """
    doc = {
        "num_mus": scenario.num_mus,
        "num_aps": scenario.num_aps,
        "num_channels": scenario.num_channels,
        "ap_channels": [list(b) for b in scenario.ap_channels],
        "gain_sq": scenario.gain_sq.tolist(),
        "noise": scenario.noise.tolist(),
        "budget": scenario.budget.tolist(),
        "positions": {
            "mus": scenario.mu_positions.tolist(),
            "aps": scenario.ap_positions.tolist(),
        },
        "connection_cost": scenario.connection_cost.tolist(),
        "seed": scenario.seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_indented(doc))
        fh.write("\n")


def _indented(value, depth: int = 0):
    """The text of ``json.dumps(value, indent=1)``, in pieces. An indent
    selects json's pure-Python encoder, so the layout is made here and each
    list of scalars is one C-encoder call, its items joined by the indent.
    Every list is an ``ndarray.tolist()`` or a list of int lists, so its first
    item tells whether it holds scalars."""
    pad = "\n" + " " * (depth + 1)
    if not value or not isinstance(value, (list, dict)):
        yield json.dumps(value)
    elif isinstance(value, list) and not isinstance(value[0], (list, dict)):
        yield "[" + pad + json.dumps(value, separators=("," + pad, ": "))[1:-1] + pad[:-1] + "]"
    else:
        keyed = isinstance(value, dict)
        heads = [json.dumps(k) + ": " for k in value] if keyed else [""] * len(value)
        for n, (head, item) in enumerate(zip(heads, value.values() if keyed else value)):
            yield ("," if n else "{" if keyed else "[") + pad + head
            yield from _indented(item, depth + 1)
        yield pad[:-1] + ("}" if keyed else "]")


def _integer(value) -> int:
    """A JSON integer; a float, a boolean or a string is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# How load_scenario converts each NetworkScenario field read from a file; the
# array fields go to NetworkScenario as read, and it checks them.
_CONVERT = {
    **dict.fromkeys(("num_mus", "num_aps", "num_channels"), _integer),
    "ap_channels": lambda value: tuple(tuple(_integer(c) for c in b) for b in value),
    "seed": lambda value: None if value is None else _integer(value),
}
_ARRAYS = ("gain_sq", "noise", "budget", "mu_positions", "ap_positions", "connection_cost")


def load_scenario(path) -> NetworkScenario:
    """Read a scenario file; raises ScenarioParseError on malformed JSON and
    ValidationError (naming the field) on invariant violations."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(
                f"{path}: malformed scenario file at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{path}: top level must be an object")
    missing = [f for f in SCENARIO_FIELDS if f not in doc]
    if missing:
        raise ValidationError(f"{path}: missing fields {missing}")
    positions = doc["positions"]
    if not isinstance(positions, dict) or "mus" not in positions or "aps" not in positions:
        raise ValidationError("positions: expected an object with 'mus' and 'aps'")
    fields = dict(doc, mu_positions=positions["mus"], ap_positions=positions["aps"])
    values = {name: fields[name] for name in _ARRAYS}
    for name, convert in _CONVERT.items():
        try:
            values[name] = convert(fields[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{name}: {exc}") from exc
    return NetworkScenario(**values)
