import dataclasses

import numpy as np
import pytest

from uplinkgame import NetworkScenario, ScenarioGenParams, generate_scenario, water_fill
from uplinkgame.inner import SAFEGUARD_ALPHA, evaluate_profile


def make_scenario(n, w, k, seed=0):
    return generate_scenario(ScenarioGenParams(num_mus=n, num_aps=w, num_channels=k, seed=seed))


def footnote_network() -> NetworkScenario:
    """Two MUs, two single-channel APs, identical unit gains/noise/budgets:
    the classic greedy-oscillation example. Split associations are joint
    equilibria with sum rate exactly 1 bit/channel use."""
    return NetworkScenario(
        num_mus=2,
        num_aps=2,
        num_channels=2,
        ap_channels=((1,), (2,)),
        gain_sq=np.ones((2, 2)),
        noise=np.ones(2),
        budget=np.ones(2),
        mu_positions=np.array([[1.0, 0.0], [2.0, 0.0]]),
        ap_positions=np.array([[0.0, 0.0], [3.0, 0.0]]),
        connection_cost=np.zeros(2),
    )


def unusable_ap_scenario() -> NetworkScenario:
    """(4, 2, 6), seed 0, with MU 0's gains vanishing (1e-320) on every
    channel but channel 0: MU 0 has no finite floor at AP 1."""
    sc = make_scenario(4, 2, 6, seed=0)
    gain = sc.gain_sq.copy()
    gain[0, 1:] = 1e-320
    return dataclasses.replace(sc, gain_sq=gain)


def random_powers(scenario, association, rng, slack=False):
    """Random feasible power profile; with slack=True budgets are not tight."""
    out = []
    for i in range(scenario.num_mus):
        k = scenario.chan_idx[int(association[i])].size
        frac = rng.dirichlet(np.ones(k))
        scale = rng.uniform(0.2, 1.0) if slack else 1.0
        out.append(scenario.budget[i] * scale * frac)
    return out


@pytest.fixture
def footnote2():
    return footnote_network()


def coalition_occurrences(detail, num_aps):
    """(ap, coalition) -> ordered iteration indices in a joint-run detail."""
    out = {}
    for t, rec in enumerate(detail):
        for ap in range(num_aps):
            key = tuple(i for i, a in enumerate(rec.association) if a == ap)
            out.setdefault((ap, key), []).append(t)
    return out


def assert_coalition_replay(scenario, config, result):
    """Replay the averaged water-filling recursion along every coalition's
    visit subsequence and demand bitwise equality with the recorded powers.
    The step from visit n is alpha(n), or SAFEGUARD_ALPHA under the
    safeguarded rule until the coalition's potential (``evaluate_profile``'s
    per-AP potential, the one j_jaspa reads) first falls strictly between
    consecutive visits. Returns the number of (coalition, step) pairs checked
    at the held and at the released step."""
    safeguarded = config.schedule.rule == "safeguarded"
    ap_potentials = [
        evaluate_profile(scenario, rec.association, rec.powers)[5] for rec in result.detail
    ]
    checked = {True: 0, False: 0}
    for (ap, key), times in coalition_occurrences(result.detail, scenario.num_aps).items():
        if not key:
            continue
        cols = scenario.chan_idx[ap]
        held = True
        for n, (t1, t2) in enumerate(zip(times, times[1:]), start=1):
            if n > 1:
                held &= ap_potentials[t1][ap] >= ap_potentials[times[n - 2]][ap]
            snap = result.detail[t1].powers
            base = np.zeros(cols.size)
            for j in key:
                base += scenario.gain_sq[j, cols] * snap[j]
            held_step = safeguarded and held
            alpha = SAFEGUARD_ALPHA if held_step else config.schedule.alpha(n)
            for i in key:
                interf = base - scenario.gain_sq[i, cols] * snap[i]
                phi = water_fill(
                    scenario.gain_sq[i, cols], scenario.noise[cols] + interf,
                    scenario.budget[i],
                ).powers
                expected = (1.0 - alpha) * snap[i] + alpha * phi
                assert np.array_equal(expected, result.detail[t2].powers[i])
            checked[held_step] += 1
    assert sum(checked.values()) > 0
    return checked[True], checked[False]
