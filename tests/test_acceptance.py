"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them all).

Criterion 12 asserts that sequential se_jaspa needs no more median outer
iterations than simultaneous si_jaspa at (8,2,16): si's stop rule waits
memory_len+1 constant rounds after its last switch and then for its averaged
power steps, so measured medians are se 25, si 202 (stop-rule floor 30).
"""

import statistics
import time

import numpy as np
import pytest

from uplinkgame import (
    InnerConfig,
    JaspaConfig,
    a_iwf,
    closest_ap,
    convergence_diagnostics,
    exhaustive_search,
    j_jaspa,
    jaspa,
    potential_gradient,
    rate,
    residual,
    residual_norms,
    s_iwf,
    se_jaspa,
    si_jaspa,
    sum_rate,
    system_potential,
    verify_jep,
    water_fill,
)
from uplinkgame.cli import main as cli_main

from conftest import (
    assert_coalition_replay,
    footnote_network,
    make_scenario,
    random_powers,
)
from test_waterfill import bisection_water_fill, kkt_residual


def verdict(num, ok, detail=""):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_c01_water_filling_kkt_and_oracle():
    rng = np.random.default_rng(1001)
    cases = []
    for _ in range(1000):
        k = int(rng.integers(1, 33))
        cases.append(
            (rng.uniform(0.02, 5.0, k), rng.uniform(0.02, 5.0, k), float(rng.uniform(0.1, 10.0)))
        )
    start = time.perf_counter()
    results = [water_fill(g, ni, b) for g, ni, b in cases]
    elapsed = time.perf_counter() - start
    worst_kkt = 0.0
    worst_gap = 0.0
    for (g, ni, b), res in zip(cases, results):
        worst_kkt = max(worst_kkt, kkt_residual(g, ni, b, res.powers, res.water_level))
        oracle, _ = bisection_water_fill(g, ni, b)
        worst_gap = max(worst_gap, float(np.max(np.abs(res.powers - oracle))))
    verdict(
        1,
        worst_kkt <= 1e-10 and worst_gap <= 1e-9 and elapsed < 1.0,
        f"kkt={worst_kkt:.2e} oracle gap={worst_gap:.2e} solve time={elapsed:.3f}s",
    )


def test_c02_potential_identity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    trials = 0
    while trials < 1000:
        sc = make_scenario(5, 2, 6, seed=int(rng.integers(10_000)))
        assoc = rng.integers(0, 2, 5)
        powers = random_powers(sc, assoc, rng, slack=True)
        for _ in range(50):
            mu = int(rng.integers(5))
            moved = [p.copy() for p in powers]
            moved[mu] = sc.budget[mu] * rng.dirichlet(np.ones(moved[mu].size))
            d_rate = rate(sc, assoc, moved, mu) - rate(sc, assoc, powers, mu)
            d_pot = system_potential(sc, assoc, moved) - system_potential(sc, assoc, powers)
            worst = max(worst, abs(d_rate - d_pot))
            trials += 1
    verdict(2, worst <= 1e-10, f"max |dR - dP| = {worst:.2e} over {trials} deviations")


def test_c03_gradient_matches_finite_differences():
    rng = np.random.default_rng(1003)
    h = 1e-6
    worst = 0.0
    for point in range(100):
        sc = make_scenario(4, 2, 6, seed=2000 + point)
        assoc = rng.integers(0, 2, 4)
        powers = [np.maximum(p, 2 * h) for p in random_powers(sc, assoc, rng, slack=True)]
        grads = potential_gradient(sc, assoc, powers)
        for i in range(4):
            for k in range(powers[i].size):
                up = [p.copy() for p in powers]
                dn = [p.copy() for p in powers]
                up[i][k] += h
                dn[i][k] -= h
                fd = (system_potential(sc, assoc, up) - system_potential(sc, assoc, dn)) / (2 * h)
                worst = max(worst, abs(grads[i][k] - fd))
    verdict(3, worst < 1e-6, f"max |analytic - central difference| = {worst:.2e}")


def test_c04_averaged_iwf_converges_at_desk_scale():
    check_c04(accelerate=False)


def test_c04_accelerated_averaged_iwf_converges_at_desk_scale():
    check_c04(accelerate=True)


def check_c04(accelerate):
    start = time.perf_counter()
    ok = True
    details = []
    for seed in range(20):
        sc = make_scenario(10, 1, 16, seed=seed)
        result = a_iwf(sc, np.zeros(10, dtype=int), eps_wf=1e-6, max_iters=50_000,
                       accelerate=accelerate)
        diag = convergence_diagnostics(result.trace, eps=1e-6)
        tail = result.trace.potential[diag.monotone_from :]
        monotone = bool(np.all(np.diff(tail) >= -1e-12))
        ok = ok and result.converged and diag.residual_converged and monotone
        details.append(result.iterations)
    elapsed = time.perf_counter() - start
    verdict(
        4,
        ok and elapsed < 30.0,
        f"iterations max={max(details)} time={elapsed:.1f}s",
    )


def test_c05_solver_agreement():
    check_c05(accelerate=False)


def test_c05_accelerated_solver_agreement():
    check_c05(accelerate=True)


def check_c05(accelerate):
    worst = 0.0
    for seed in range(20):
        sc = make_scenario(10, 1, 16, seed=seed)
        assoc = np.zeros(10, dtype=int)
        pa = a_iwf(sc, assoc, eps_wf=1e-8, accelerate=accelerate).trace.potential[-1]
        ps = s_iwf(sc, assoc, eps_wf=1e-8).trace.potential[-1]
        worst = max(worst, abs(pa - ps))
    verdict(5, worst <= 1e-5, f"max potential gap {worst:.2e}")


def test_c06_residual_gradient_sign():
    rng = np.random.default_rng(1006)
    violations = 0
    tested = 0
    descent_const = np.inf  # empirical min of s.grad / ||s||^2, reported only
    for seed in range(10):
        sc = make_scenario(5, 1, 8, seed=3000 + seed)
        assoc = np.zeros(5, dtype=int)
        for j in range(100):
            powers = random_powers(sc, assoc, rng, slack=(j % 2 == 0))
            res = residual(sc, assoc, powers)
            norm_two = residual_norms(res)[1]
            if norm_two <= 1e-9:
                continue
            tested += 1
            grads = potential_gradient(sc, assoc, powers)
            inner = sum(float(np.dot(s, g)) for s, g in zip(res, grads))
            if inner <= 0.0:
                violations += 1
            descent_const = min(descent_const, inner / norm_two**2)
    verdict(
        6,
        violations == 0 and tested > 900,
        f"{tested} points, {violations} violations, descent constant >= {descent_const:.3g}",
    )


def test_c07_max_potential_profile_is_jep():
    failures = []
    sizes = [(5, 2, 8), (4, 2, 6), (3, 3, 6), (5, 2, 6)]
    for run in range(20):
        n, w, k = sizes[run % len(sizes)]
        sc = make_scenario(n, w, k, seed=4000 + run)
        inner = InnerConfig(eps_wf=1e-10)
        ex = exhaustive_search(sc, inner)
        witness = np.asarray(ex.max_potential_association)
        powers = inner.run(sc, witness).powers
        if not verify_jep(sc, witness, powers, 1e-6).is_equilibrium:
            failures.append(run)
    verdict(7, not failures, f"failures={failures or 'none'} over 20 scenarios")


def test_c08_jaspa_terminates_at_verified_equilibria():
    failures = []
    for seed in range(20):
        sc = make_scenario(6, 2, 8, seed=seed)
        result = jaspa(sc, JaspaConfig(memory_len=6, seed=seed, max_outer=10_000))
        if not (result.converged and result.jep_report.is_equilibrium):
            failures.append(seed)
    verdict(8, not failures, f"failures={failures or 'none'} over 20 seeds")


def test_c09_j_jaspa_equilibria_and_embedding():
    failures = []
    for seed in range(20):
        sc = make_scenario(6, 2, 8, seed=seed)
        cfg = JaspaConfig(memory_len=6, seed=seed, max_outer=10_000)
        result = j_jaspa(sc, cfg)
        if not (result.converged and result.jep_report.is_equilibrium):
            failures.append(seed)
            continue
        assert_coalition_replay(sc, cfg, result)
    verdict(9, not failures, f"failures={failures or 'none'}; replays bit-exact")


@pytest.mark.filterwarnings("ignore:memory_len")
def test_c10_footnote_regression():
    net = footnote_network()
    greedy = jaspa(
        net,
        JaspaConfig(memory_len=1, selection="best", seed=3, max_outer=120,
                    initial_association=np.array([0, 0])),
    )
    oscillates = not greedy.converged and len(greedy.detail) >= 100
    oscillates = oscillates and all(
        a.association != b.association for a, b in zip(greedy.detail, greedy.detail[1:])
    )
    run = jaspa(
        net,
        JaspaConfig(memory_len=2, seed=3, max_outer=2000,
                    initial_association=np.array([0, 0])),
    )
    split = run.converged and sorted(run.association.tolist()) == [0, 1]
    exact = sum_rate(net, run.association, run.powers) == 1.0
    verdict(
        10,
        oscillates and split and exact,
        f"greedy oscillated {len(greedy.detail)} iters; memory run hit the split at T=1.0",
    )


def test_c11_throughput_ratios_vs_exhaustive():
    jaspa_ratios = []
    closest_ratios = []
    inner = InnerConfig()
    for seed in range(50):
        sc = make_scenario(5, 2, 8, seed=5000 + seed)
        tstar = exhaustive_search(sc, inner).best_sum_rate
        run = jaspa(sc, JaspaConfig(memory_len=5, seed=seed, max_outer=10_000))
        jaspa_ratios.append(run.rows[-1].sum_rate / tstar)
        assoc = closest_ap(sc)
        ne = inner.run(sc, assoc)
        closest_ratios.append(sum_rate(sc, assoc, ne.powers) / tstar)
    med_j = statistics.median(jaspa_ratios)
    med_c = statistics.median(closest_ratios)
    verdict(
        11,
        med_j >= med_c,
        f"median ratio to T*: jaspa={med_j:.4f} closest={med_c:.4f}",
    )


def association_window_floor(run, memory_len):
    """Fewest outer iterations si_jaspa's stop rule allows for this run: the
    association must stay constant over memory_len+1 history entries, so the
    run lasts at least its last association switch + memory_len + 1."""
    d = run.detail
    last_switch = max(
        (t for t in range(1, len(d)) if d[t].association != d[t - 1].association), default=0
    )
    return last_switch + memory_len + 1


def test_c12_convergence_speed_orderings():
    m = 8
    si0, si3, se, floor0 = [], [], [], []
    window_ok = True
    for seed in range(50):
        sc = make_scenario(8, 2, 16, seed=seed)
        run0 = si_jaspa(sc, JaspaConfig(memory_len=m, seed=seed, max_outer=10_000))
        run3 = si_jaspa(
            sc, JaspaConfig(memory_len=m, seed=seed, max_outer=10_000, connection_cost=3.0)
        )
        si0.append(run0.outer_iterations)
        si3.append(run3.outer_iterations)
        floor0.append(association_window_floor(run0, m))
        window_ok &= run0.outer_iterations >= floor0[-1]
        window_ok &= run3.outer_iterations >= association_window_floor(run3, m)
        se.append(
            se_jaspa(sc, JaspaConfig(memory_len=m, seed=seed, max_outer=10_000)).outer_iterations
        )
    med_si0, med_si3, med_se, med_floor = (
        statistics.median(x) for x in (si0, si3, se, floor0)
    )
    ok_cost = med_si3 <= med_si0  # connection costs accelerate convergence
    # se (greedy best response, exact water-fills) stops after num_mus quiet
    # turns; si waits out its association-window floor and then its averaged
    # stay steps. si beating se would be a change to the algorithm.
    ok_seq = med_se <= med_si0
    detail = (
        f"median iterations: si={med_si0} si(c=3)={med_si3} se={med_se} "
        f"si floor={med_floor} | "
        f"cost ordering {'ok' if ok_cost else 'violated'}, "
        f"se<=si {'ok' if ok_seq else 'violated'}, "
        f"stop-rule floor {'ok' if window_ok else 'violated'}"
    )
    verdict(12, ok_cost and ok_seq and window_ok, detail)


def test_c13_cli_determinism(tmp_path):
    scn = tmp_path / "s.scn"
    assert cli_main(["generate", "--n", "6", "--w", "2", "--k", "8", "--seed", "2",
                     "--out", str(scn)]) == 0
    pairs = []
    for algo in ("jaspa", "a_iwf"):
        files = []
        for rep in (1, 2):
            trace = tmp_path / f"{algo}{rep}.csv"
            code = cli_main([
                "run", "--algo", algo, "--scenario", str(scn), "--m", "6",
                "--seed", "4", "--out-trace", str(trace),
                "--out-summary", str(tmp_path / f"{algo}{rep}.json"),
            ])
            assert code == 0
            files.append(trace.read_bytes())
        pairs.append(files[0] == files[1])
    verdict(13, all(pairs), "repeated CLI runs produced byte-identical traces")
