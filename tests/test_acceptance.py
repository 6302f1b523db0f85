"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.  Criteria C7 (n = 5 leg) and C9 (0.05-gap leg) are implemented
exactly as stated and are expected to fail; the measured values are printed
and the analysis lives in the repo notes.  All other criteria pass.
"""

import math
import os
import subprocess
import sys

import numpy as np

from hpsim.cavity import CavityParams, reflection_coefficient, reflection_pair, \
    solve_params_for_phase
from hpsim.homodyne import sample_outcomes
from hpsim.metrics import closed_form_two_qubit, monte_carlo_estimate, \
    prepare_state, run_scenario
from oracles import apply_cps, closed_form_final_state, density_cdf, \
    erfc_oracle, hamming_weights, init_plus_state, steady_state_oracle, \
    w_state_success

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def report(cid, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    return ok


def by_target(results, name):
    return next(r for r in results if r.target_name == name)


def test_c01_phase_settings():
    p2 = solve_params_for_phase(2)
    p3 = solve_params_for_phase(3)
    sets_ok = (abs(p2.delta1 - 0.5) < 1e-12 and abs(p2.delta2 - 0.5) < 1e-12
               and abs(p2.g - 1 / math.sqrt(2)) < 1e-12
               and abs(p3.delta1 - math.sqrt(3) / 2) < 1e-12
               and abs(p3.g ** 2 - 1.5) < 1e-12)
    worst = 0.0
    for n in range(2, 11):
        pair = reflection_pair(solve_params_for_phase(n))
        worst = max(worst, abs(pair.phi0 - math.pi / n),
                    abs(pair.phi1 + math.pi / n))
    ok = report("C1 phase settings",
                sets_ok and worst < 1e-9,
                f"published sets reproduced={sets_ok}, "
                f"max phase error n=2..10: {worst:.2e} (tol 1e-9)")
    assert ok


def test_c02_closed_form_vs_steady_state_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        d1, d2, g = rng.uniform(0.1, 5.0, 3)
        gamma = (0.0, 0.2, 0.5)[i % 3]
        params = CavityParams(d1, d2, g, gamma=gamma)
        for p1 in (0, 1):
            closed = reflection_coefficient(params, p1)
            oracle = steady_state_oracle(params, p1)
            worst = max(worst, abs(closed.real - oracle.real),
                        abs(closed.imag - oracle.imag))
    ok = report("C2 closed-form/oracle", worst < 1e-8,
                f"100 random points, gamma in {{0, 0.2, 0.5}}, "
                f"max |closed - oracle| component: {worst:.2e} (tol 1e-8)")
    assert ok


def test_c03_two_qubit_closed_forms():
    ps_exact = all(closed_form_two_qubit(e * a)[0] == 0.5
                   for a in (0.0, 0.7, math.sqrt(3), 4.0)
                   for e in (1.0, math.sqrt(2 / 3), 0.4))
    _, f_anchor = closed_form_two_qubit(math.sqrt(2 / 3) * math.sqrt(3))
    anchor_ok = abs(f_anchor - 0.997661) <= 1e-5
    worst = 0.0
    for alpha in (0.3, 1.0, math.sqrt(3), 3.0, 6.0):
        for eta_sq in (1.0, 2 / 3, 1 / 3):
            run = run_scenario("two_qubit_X", alpha, eta_sq)
            ps, f = closed_form_two_qubit(math.sqrt(eta_sq) * alpha)
            worst = max(worst, abs(run.results[1].success_prob - ps),
                        abs(run.results[1].fidelity - f))
    ok = report("C3 two-qubit closed form",
                ps_exact and anchor_ok and worst < 1e-8,
                f"Ps == 1/2 exact={ps_exact}; F(sqrt3, 2/3)={f_anchor:.6f} "
                f"(target 0.997661 +- 1e-5); quadrature gap {worst:.2e} (tol 1e-8)")
    assert ok


def test_c04_three_qubit_point():
    run = run_scenario("three_qubit_P", 5.0, 2 / 3)
    pw = by_target(run.results, "W(3)").success_prob
    pg = by_target(run.results, "GHZ(3)").success_prob
    fmin = min(r.fidelity for r in run.results)
    ok = report("C4 three-qubit",
                abs(pw - 0.375) <= 1e-3 and abs(pg - 0.25) <= 1e-3
                and fmin >= 0.999,
                f"P(W3)={pw:.6f} (0.375 +- 1e-3), P(GHZ3)={pg:.6f} "
                f"(0.25 +- 1e-3), min fidelity={fmin:.6f} (>= 0.999)")
    assert ok


def test_c05_summed_dicke_point():
    run = run_scenario("gsum_X", math.sqrt(5), 2 / 3)
    pgp = by_target(run.results, "Gprime(3,1)").success_prob
    pg = by_target(run.results, "GHZ(3)").success_prob
    fgp = by_target(run.results, "Gprime(3,1)").fidelity
    ok = report("C5 summed-Dicke",
                abs(pgp - 0.75) <= 0.01 and abs(pg - 0.25) <= 0.01
                and fgp >= 0.99,
                f"P(G'31)={pgp:.6f} (0.75 +- 0.01), P(GHZ3)={pg:.6f} "
                f"(0.25 +- 0.01), F(G'31)={fgp:.6f} (>= 0.99)")
    assert ok


def test_c06_n_qubit_closed_form_oracle():
    worst = 0.0
    for n in range(2, 9):
        pair = reflection_pair(solve_params_for_phase(n))
        st = init_plus_state(n, 1.9)
        for i in range(n):
            st = apply_cps(st, i, pair)
        cf = closed_form_final_state(n, 1.9)
        sector = prepare_state("n_qubit_P", 1.9, 1.0, n=n)
        worst = max(worst, float(np.max(np.abs(st.fields - cf.fields))),
                    float(np.max(np.abs(st.amps - cf.amps))),
                    float(np.max(np.abs(sector.fields[hamming_weights(n)]
                                        - cf.fields))))
    st3 = closed_form_final_state(3, 2.0)
    w = hamming_weights(3)
    coef = [math.sqrt(float(np.sum(np.abs(st3.amps[np.isin(w, [0, 3])]) ** 2))),
            math.sqrt(float(np.sum(np.abs(st3.amps[w == 1]) ** 2))),
            math.sqrt(float(np.sum(np.abs(st3.amps[w == 2]) ** 2)))]
    cdev = max(abs(coef[0] - 0.5), abs(coef[1] - math.sqrt(6) / 4),
               abs(coef[2] - math.sqrt(6) / 4))
    ok = report("C6 n-qubit oracle", worst < 1e-12 and cdev < 1e-12,
                f"sequential (dense and per weight) vs closed form n=2..8 "
                f"max dev {worst:.2e} "
                f"(tol 1e-12); weight-class coefficients dev {cdev:.2e}")
    assert ok


def test_c07_w_state_scaling():
    # implemented exactly as stated (alpha = 6, tol 1e-3, n in {3, 4, 5});
    # the n = 5 leg fails: the W bin and its neighbor are only ~3.1 apart
    # at alpha = 6, leaving ~4.6e-3 of neighbor mass in the W bin.  The
    # independently predicted deviation is 2*(5/32)*erfc(half-gap)/2.
    devs = {}
    for n in (3, 4, 5):
        run = run_scenario("n_qubit_P", 6.0, 1.0, n=n)
        got = sum(r.success_prob for r in run.results
                  if r.target_name in (f"W({n})", f"Dicke({n},{n-1})"))
        devs[n] = abs(got - w_state_success(n))
    gap5 = math.sqrt(2) * 6.0 * (math.sin(0.6 * math.pi) - math.sin(0.2 * math.pi)) / 2
    predicted5 = (5 / 32) * erfc_oracle(gap5)
    ok = report("C7 W-state scaling", all(d <= 1e-3 for d in devs.values()),
                "|P - n/2^(n-1)| at alpha=6: "
                + ", ".join(f"n={n}: {d:.2e}" for n, d in devs.items())
                + f" (tol 1e-3; n=5 deviation predicted {predicted5:.2e} "
                f"by the erfc oracle, needs alpha >~ 7.5)")
    assert ok, ("spec defect: at the pinned alpha = 6 the n = 5 deviation is "
                f"{devs[5]:.3e} > 1e-3 and exactly matches the Gaussian-overlap "
                "prediction; see notes/decisions.md")


def test_c08_monte_carlo_consistency():
    trials = 100_000
    ok4 = True
    ks_ok = True
    detail = []
    for scenario, alpha, seed in (("two_qubit_X", 2.0, 11),
                                  ("three_qubit_P", 5.0, 7)):
        run = run_scenario(scenario, alpha, 2 / 3)
        mc = monte_carlo_estimate(run.state, run.rule, trials, seed=seed)
        for est, quad in zip(mc, run.results):
            ok4 &= abs(est.success_prob - quad.success_prob) <= 4 * est.mc_stderr
        xs = np.sort(sample_outcomes(run.state, run.rule.quadrature, trials, seed))
        cdf = density_cdf(run.state, run.rule.quadrature, xs)
        i = np.arange(1, trials + 1)
        d_stat = max(float(np.max(np.abs(i / trials - cdf))),
                     float(np.max(np.abs((i - 1) / trials - cdf))))
        crit = 1.62762 / math.sqrt(trials)     # 1% asymptotic KS critical value
        ks_ok &= d_stat < crit
        detail.append(f"{scenario}: KS D={d_stat:.5f} < {crit:.5f}")
    ok = report("C8 Monte Carlo", ok4 and ks_ok,
                f"all class probabilities within 4 sigma={ok4}; "
                + "; ".join(detail))
    assert ok


def test_c09_gamma_robustness():
    # implemented exactly as stated.  The monotonicity half holds; the
    # 0.05-gap half cannot: with the documented gamma model the coupled
    # reflection at gamma = 0.2 kappa has |r1| = 2/3, so 5/9 of the
    # coupled-path pulse is scattered per node.  The environment labels
    # this which-path record and the odd-bin coherence drops to
    # exp(-(1-|r1|^2)(eta alpha)^2), putting the fidelity gap at 0.22-0.49
    # over <n> in [1, 10] (0.07-0.09 even with coherence ignored).
    nbars = list(range(1, 11))
    gaps = []
    monotone = True
    for nbar in nbars:
        f0 = run_scenario("two_qubit_X", math.sqrt(nbar), 2 / 3,
                          gamma=0.0).results[1].fidelity
        f2 = run_scenario("two_qubit_X", math.sqrt(nbar), 2 / 3,
                          gamma=0.2).results[1].fidelity
        f5 = run_scenario("two_qubit_X", math.sqrt(nbar), 2 / 3,
                          gamma=0.5).results[1].fidelity
        monotone &= f5 <= f2 + 1e-12 and f2 <= f0 + 1e-12
        gaps.append(f0 - f2)
    max_gap = max(gaps)
    ok = report("C9 gamma robustness", monotone and max_gap <= 0.05,
                f"degradation monotone in gamma: {monotone}; "
                f"max |F(0.2k) - F(0)| over <n>=1..10: {max_gap:.4f} (bound 0.05)")
    assert monotone, "gamma degradation must be monotone"
    assert ok, ("spec defect: the 0.05 bound is unattainable under the "
                f"documented gamma model (max gap {max_gap:.3f}); "
                "see notes/decisions.md")


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("HPSIM_DEFAULT_SEED", None)
    return subprocess.run([sys.executable, "-m", "hpsim", *args],
                          capture_output=True, text=True, env=env)


def test_c10_determinism():
    sim_args = ("simulate", "--scenario", "three_qubit", "--alpha", "5",
                "--eta-sq", "0.6667", "--trials", "20000", "--seed", "42")
    sweep_args = ("sweep", "--scenario", "two_qubit", "--nbar", "1:4:1",
                  "--gamma", "0,0.2", "--eta-sq", "0.6667")
    sim = [_cli(*sim_args).stdout for _ in range(2)]
    swp = [_cli(*sweep_args).stdout for _ in range(2)]
    swp_jobs = _cli(*sweep_args, "--jobs", "2").stdout
    ok = report("C10 determinism",
                sim[0] == sim[1] and swp[0] == swp[1] and swp[0] == swp_jobs
                and len(sim[0]) > 0 and len(swp[0]) > 0,
                "repeated simulate/sweep runs byte-identical "
                f"(simulate {len(sim[0])} bytes, sweep {len(swp[0])} bytes, "
                "jobs-count invariant)")
    assert ok
