"""The joint-equilibrium set at enumerable sizes, and the four dynamics ending
in it.

Where W^N is small, every profile can be solved at its fixed association and
checked with ``verify_jep``: the profiles that pass are the whole set of
joint equilibria. A converged run of any dynamics must end at one of them,
whatever its algorithm, so this check holds across changes that move the
dynamics' results. The sizes and seeds are fixed in advance.
"""

import itertools

import numpy as np
import pytest

import uplinkgame as ug
from uplinkgame.baselines import InnerConfig

from conftest import make_scenario

DYNAMICS = ("jaspa", "se_jaspa", "si_jaspa", "j_jaspa")


def equilibrium_set(scenario) -> set:
    """Every association whose fixed-association solve passes ``verify_jep``."""
    inner = InnerConfig()
    out = set()
    for profile in itertools.product(range(scenario.num_aps), repeat=scenario.num_mus):
        association = np.array(profile)
        powers = inner.run(scenario, association).powers
        if ug.verify_jep(scenario, association, powers).is_equilibrium:
            out.add(profile)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, w, k", [(4, 2, 6), (6, 2, 12), (5, 3, 9), (8, 2, 16)])
def test_every_converged_run_ends_in_the_equilibrium_set(n, w, k, seed):
    sc = make_scenario(n, w, k, seed=seed)
    jeps = equilibrium_set(sc)
    assert jeps  # the max-potential profile is a joint equilibrium
    config = ug.JaspaConfig(memory_len=n, seed=seed)
    converged = 0
    for algo in DYNAMICS:
        run = getattr(ug, algo)(sc, config)
        if run.converged:
            converged += 1
            assert tuple(run.association.tolist()) in jeps, algo
    assert converged  # a check that no run reaches shows nothing
