"""Ground truth and comparison baselines: exhaustive association search, the
closest-AP heuristic, and the pooled single-AP bound."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError
from .inner import (
    InnerLoopResult, StepsizeSchedule, a_iwf, check_solver_settings, s_iwf, solve_profiles
)
from .scenario import NetworkScenario


@dataclass(frozen=True)
class InnerConfig:
    """How per-association equilibria are computed."""

    solver: str = "s_iwf"
    eps_wf: float = 1e-10
    max_iters: int = 100_000
    schedule: StepsizeSchedule = StepsizeSchedule()

    def __post_init__(self):
        settings = check_solver_settings(self.solver, self.eps_wf, self.max_iters, self.schedule)
        for name, value in zip(("eps_wf", "max_iters"), settings):
            object.__setattr__(self, name, value)  # a Python float and int

    def run(self, scenario, association, initial_powers=None) -> InnerLoopResult:
        settings = dict(eps_wf=self.eps_wf, max_iters=self.max_iters, initial_powers=initial_powers)
        if self.solver == "a_iwf":
            return a_iwf(scenario, association, schedule=self.schedule, **settings)
        return s_iwf(scenario, association, **settings)


@dataclass(frozen=True)
class AssociationRecord:
    association: tuple
    sum_rate: float
    potential: float
    converged: bool


@dataclass(frozen=True)
class ExhaustiveResult:
    """Per-association equilibrium table plus its two argmax rows.

    best_association maximizes the equilibrium sum rate (value T*);
    max_potential_association maximizes the equilibrium potential and is the
    profile guaranteed to be a joint equilibrium. Sum rates use the
    single-user-receiver equilibrium throughput, not cooperative capacity."""

    best_association: tuple
    best_sum_rate: float
    max_potential_association: tuple
    max_potential: float
    table: tuple


# Stacked row-cells (rows times block width) of one batch of profiles in
# exhaustive_search; bounds the batch's working memory.
CHUNK_CELLS = 2**19


def exhaustive_search(
    scenario, inner: InnerConfig | None = None, enumeration_cap: int = 100_000
) -> ExhaustiveResult:
    """Solve the power game for every one of the W^N association profiles.

    Profiles are enumerated in lexicographic order and ties keep the first
    maximizer, so results are deterministic. Each profile's row equals
    ``inner.run`` on it (final sum rate and potential, converged flag), bit
    for bit, but profiles are solved in batches by ``inner.solve_profiles``:
    lexicographic runs of at most CHUNK_CELLS / (N * widest block) profiles,
    each distinct (AP, member set) block of a batch solved once. Raises
    ResourceError when W^N exceeds the cap (sample associations instead of
    enumerating)."""
    inner = inner or InnerConfig()
    n, w = scenario.num_mus, scenario.num_aps
    count = w**n
    if count > enumeration_cap:
        raise ResourceError(
            f"{w}^{n} = {count} association profiles exceed the enumeration cap "
            f"({enumeration_cap}); sample profiles instead of enumerating"
        )
    width = int(scenario.chan_width.max())
    chunk = max(1, CHUNK_CELLS // (n * width))
    parts = []
    for lo in range(0, count, chunk):
        index = np.arange(lo, min(lo + chunk, count))
        profiles = np.stack(np.unravel_index(index, (w,) * n), axis=1)
        parts.append(
            solve_profiles(
                scenario, profiles, inner.solver, inner.eps_wf, inner.max_iters, inner.schedule
            )
        )
    columns = (np.concatenate(col).tolist() for col in zip(*parts))
    table = [
        AssociationRecord(assoc, *row)
        for assoc, row in zip(itertools.product(range(w), repeat=n), zip(*columns))
    ]
    best = max(range(len(table)), key=lambda j: table[j].sum_rate)
    top_pot = max(range(len(table)), key=lambda j: table[j].potential)
    return ExhaustiveResult(
        best_association=table[best].association,
        best_sum_rate=table[best].sum_rate,
        max_potential_association=table[top_pot].association,
        max_potential=table[top_pot].potential,
        table=tuple(table),
    )


def closest_ap(scenario) -> np.ndarray:
    """Assign every MU to its nearest AP (ties to the lowest AP index)."""
    diff = scenario.mu_positions[:, None, :] - scenario.ap_positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return np.argmin(dist, axis=1).astype(np.intp)


def virtual_scenario(scenario) -> NetworkScenario:
    """Pool all APs into one that owns every channel; each channel keeps its
    gains toward the AP that owned it, so the per-channel physics is
    unchanged. The merged AP sits at the centroid of the originals."""
    return NetworkScenario(
        num_mus=scenario.num_mus,
        num_aps=1,
        num_channels=scenario.num_channels,
        ap_channels=(tuple(range(1, scenario.num_channels + 1)),),
        gain_sq=scenario.gain_sq,
        noise=scenario.noise,
        budget=scenario.budget,
        mu_positions=scenario.mu_positions,
        ap_positions=scenario.ap_positions.mean(axis=0, keepdims=True),
        connection_cost=scenario.connection_cost,
        seed=scenario.seed,
    )


@dataclass(frozen=True)
class VirtualApResult:
    """Equilibrium of the pooled network.

    equilibrium_sum_rate is the throughput realized at the equilibrium the
    solver reached; when equilibria are not unique it depends on the starting
    point and is NOT an upper bound on joint-equilibrium throughput.
    capacity_bound is the equilibrium potential value, which is unique and
    does upper-bound the sum rate of every association's equilibrium."""

    equilibrium_sum_rate: float
    capacity_bound: float
    converged: bool


def virtual_ap_bound(scenario, inner: InnerConfig | None = None) -> VirtualApResult:
    """Equilibrium throughput and potential of the idealized network where
    every MU can use all channels at once."""
    inner = inner or InnerConfig()
    pooled = virtual_scenario(scenario)
    result = inner.run(pooled, np.zeros(pooled.num_mus, dtype=np.intp))
    return VirtualApResult(
        equilibrium_sum_rate=float(result.trace.sum_rate[-1]),
        capacity_bound=float(result.trace.potential[-1]),
        converged=result.converged,
    )
