import io
import math
import tracemalloc

import numpy as np
import pytest

from hpsim import metrics
from hpsim.homodyne import (build_decision_rule, class_overlap_integrand,
                            outcome_density)
from hpsim.metrics import (QUAD_TOL, SWEEP_CSV_COLUMNS, ClassResult,
                           _clip_to_window, _segment_points,
                           closed_form_two_qubit, fidelity, interval_probability,
                           monte_carlo_estimate, prepare_state, run_scenario,
                           success_probability, sweep, sweep_rows,
                           write_sweep_csv)
from hpsim.numerics import integrate_piecewise
from oracles import (erfc_oracle, gauss_bin_mass, integrate_piecewise_recursive,
                     mixture_bin_mass, w_state_success)

ETA23 = math.sqrt(2 / 3)


def two_qubit_run(alpha, eta_sq=2 / 3, gamma=0.0):
    return run_scenario("two_qubit_X", alpha, eta_sq, gamma=gamma)


def by_target(results, name):
    for r in results:
        if r.target_name == name:
            return r
    raise KeyError(name)


# --- level-by-level quadrature against the recursive oracle ----------------------

class _Counted:
    """Integrand wrapper that counts the outcome points it is asked for."""

    def __init__(self, f):
        self.f = f
        self.points = 0

    def __call__(self, v):
        self.points += np.size(v)
        return self.f(v)


@pytest.mark.parametrize("scenario, n", [
    ("two_qubit_X", None), ("three_qubit_P", None), ("gsum_X", None),
    ("n_qubit_P", 5), ("n_qubit_P", 6), ("n_qubit_P", 8)])
def test_level_by_level_integration_matches_recursive_oracle(scenario, n):
    # same refinement decisions: equal point counts, values equal to rounding
    for alpha in (1.0, 3.0):
        for gamma in (0.0, 0.2):
            state = prepare_state(scenario, alpha, 2 / 3, gamma, n)
            rule = build_decision_rule(scenario, alpha, ETA23, n=n)
            density = lambda v: outcome_density(state, rule.quadrature, v)
            for cls in rule.classes:
                lo, hi = _clip_to_window(state, rule, cls.lo, cls.hi)
                pts = _segment_points(state, rule, lo, hi)
                overlap = class_overlap_integrand(state, rule.quadrature, cls)
                for f in (density, overlap):
                    level = _Counted(f)
                    single = _Counted(lambda v: float(f(np.array([v]))[0]))
                    got = integrate_piecewise(level, pts, QUAD_TOL)
                    want = integrate_piecewise_recursive(single, pts, QUAD_TOL)
                    where = (alpha, gamma, cls.target_name)
                    assert abs(got - want) <= 1e-13, where
                    assert level.points == single.points, where


# --- success probability ---------------------------------------------------------

def test_two_qubit_success_is_half():
    for alpha, eta_sq in ((0.5, 1.0), (2.0, 2 / 3), (4.0, 0.25)):
        run = two_qubit_run(alpha, eta_sq)
        for r in run.results:
            assert abs(r.success_prob - 0.5) < 1e-8


def test_success_matches_erfc_oracle_two_qubit():
    run = two_qubit_run(1.5, 2 / 3)
    m = math.sqrt(2) * ETA23 * 1.5
    want = mixture_bin_mass([0.5, 0.5], [m, -m], 0.0, math.inf)
    assert abs(run.results[1].success_prob - want) < 1e-8


def test_three_qubit_success_probabilities():
    run = run_scenario("three_qubit_P", 5.0, 2 / 3)
    assert abs(by_target(run.results, "W(3)").success_prob - 0.375) < 1e-3
    assert abs(by_target(run.results, "GHZ(3)").success_prob - 0.25) < 1e-3
    assert abs(by_target(run.results, "Dicke(3,2)").success_prob - 0.375) < 1e-3


def test_gsum_success_probabilities():
    run = run_scenario("gsum_X", math.sqrt(5), 2 / 3)
    assert abs(by_target(run.results, "Gprime(3,1)").success_prob - 0.75) < 0.01
    assert abs(by_target(run.results, "GHZ(3)").success_prob - 0.25) < 0.01


def test_success_quadrature_matches_interval_closed_form():
    run = run_scenario("three_qubit_P", 3.0, 0.9)
    for i, cls in enumerate(run.rule.classes):
        quad = success_probability(run.state, run.rule, i)
        closed = interval_probability(run.state, "P", cls.lo, cls.hi)
        assert abs(quad - closed) < 1e-8


def test_probability_completeness_every_scenario():
    cases = [("two_qubit_X", 1.3, None), ("three_qubit_P", 2.4, None),
             ("gsum_X", 1.8, None), ("n_qubit_P", 3.1, 5), ("n_qubit_P", 2.2, 4),
             ("n_qubit_P", 2.6, 6), ("n_qubit_P", 2.6, 8)]
    for scenario, alpha, n in cases:
        run = run_scenario(scenario, alpha, 0.75, n=n)
        total = sum(r.success_prob for r in run.results)
        assert abs(total - 1.0) < 1e-9, scenario


# --- fidelity ---------------------------------------------------------------------

def test_two_qubit_fidelity_anchor():
    # <n> = 3, eta^2 = 2/3: F = erfc(-2)/2
    run = two_qubit_run(math.sqrt(3), 2 / 3)
    want = erfc_oracle(-2.0) / 2.0
    assert abs(run.results[1].fidelity - want) < 1e-8
    assert abs(want - 0.997661) < 1e-5


def test_two_qubit_fidelity_limits():
    run = two_qubit_run(5.0, 1.0)
    assert run.results[1].fidelity > 1.0 - 1e-6
    ps, f = closed_form_two_qubit(0.0, 1.0)
    assert ps == 0.5 and f == 0.5
    assert closed_form_two_qubit(math.inf, 1.0) == (0.5, 1.0)
    with pytest.raises(ValueError):
        closed_form_two_qubit(math.nan, 1.0)


def test_gsum_fidelity():
    run = run_scenario("gsum_X", math.sqrt(5), 2 / 3)
    assert by_target(run.results, "Gprime(3,1)").fidelity >= 0.99


def test_fidelity_undefined_for_empty_class():
    run = two_qubit_run(2.0, 1.0)
    rule = build_decision_rule("two_qubit_X", 2.0, 1.0)
    assert math.isnan(fidelity(run.state, rule, 0, success_prob=0.0))
    assert math.isnan(fidelity(run.state, rule, 0, success_prob=9e-13))


def test_quadrature_matches_closed_form_across_grid():
    # alpha in [0, 6] (grid starts just off the degenerate-rule point at 0)
    alphas = np.concatenate([[0.05], np.linspace(0.25, 6.0, 16)])
    for eta_sq in (1.0, 2 / 3, 1 / 3):
        eta = math.sqrt(eta_sq)
        for alpha in alphas:
            run = two_qubit_run(float(alpha), eta_sq)
            ps, f = closed_form_two_qubit(float(alpha), eta)
            assert abs(run.results[1].success_prob - ps) < 1e-8
            assert abs(run.results[1].fidelity - f) < 1e-8


def test_fidelity_monotone_in_alpha():
    eta_sq = 2 / 3
    fids = [closed_form_two_qubit(a, math.sqrt(eta_sq))[1]
            for a in np.linspace(0.0, 6.0, 25)]
    quad = [two_qubit_run(float(a), eta_sq).results[1].fidelity
            for a in np.linspace(0.2, 4.0, 8)]
    for seq in (fids, quad):
        for lo, hi in zip(seq, seq[1:]):
            assert hi >= lo - 1e-12


def test_class_symmetry_two_qubit():
    run = two_qubit_run(1.7, 2 / 3)
    even, odd = run.results
    assert abs(even.success_prob - odd.success_prob) < 1e-9
    assert abs(even.fidelity - odd.fidelity) < 1e-9


# --- closed forms ------------------------------------------------------------------

def test_closed_form_success_is_exactly_half():
    for alpha in (0.0, 0.3, 2.0, 6.0):
        for eta in (1.0, ETA23, 0.2):
            ps, _ = closed_form_two_qubit(alpha, eta)
            assert ps == 0.5


def test_closed_form_matches_independent_oracle():
    for alpha, eta in ((0.7, 1.0), (math.sqrt(3), ETA23), (3.0, 0.5)):
        s = math.sqrt(2) * eta * alpha
        _, f = closed_form_two_qubit(alpha, eta)
        want = erfc_oracle(-s) / (erfc_oracle(s) + erfc_oracle(-s))
        assert abs(f - want) < 1e-13


def test_w_state_success_values():
    assert w_state_success(3) == 0.75
    assert w_state_success(4) == 0.5
    assert w_state_success(5) == 5 / 16
    # n = 2 is the degenerate algebraic limit: both single-excitation bins
    # coincide, the realized single-bin probability is 1/2
    assert w_state_success(2) == 1.0
    with pytest.raises(ValueError):
        w_state_success(1)


def test_w_class_quadrature_scaling():
    # the 1e-3 match at alpha = 6 holds for n = 3, 4; n = 5 needs alpha ~ 8
    # because the W and neighbor bins are only ~3 sigma apart at alpha = 6
    for n, alpha, tol in ((3, 6.0, 1e-3), (4, 6.0, 1e-3), (5, 8.0, 1e-3)):
        run = run_scenario("n_qubit_P", alpha, 1.0, n=n)
        got = sum(r.success_prob for r in run.results
                  if r.target_name in (f"W({n})", f"Dicke({n},{n-1})"))
        assert abs(got - w_state_success(n)) < tol, (n, alpha, got)


def test_w_class_quadrature_n5_alpha6_known_deviation():
    # frozen by the erfc oracle: the deviation at the published alpha = 6 is
    # 2 * (5/32) * erfc(half-gap) ~ 4.58e-3, an order above 1e-3
    run = run_scenario("n_qubit_P", 6.0, 1.0, n=5)
    got = sum(r.success_prob for r in run.results
              if r.target_name in ("W(5)", "Dicke(5,4)"))
    gap = math.sqrt(2) * 6.0 * (math.sin(0.6 * math.pi) - math.sin(0.2 * math.pi)) / 2
    predicted = 5 / 16 + 2 * (5 / 32) * 0.5 * erfc_oracle(gap)
    assert abs(got - predicted) < 1e-6
    assert abs(got - 5 / 16) > 4e-3


# --- Monte Carlo --------------------------------------------------------------------

def test_monte_carlo_two_qubit():
    run = two_qubit_run(2.0, 2 / 3)
    mc = monte_carlo_estimate(run.state, run.rule, 100_000, seed=31)
    for est, quad in zip(mc, run.results):
        assert est.method == "monte_carlo"
        assert abs(est.success_prob - quad.success_prob) <= 3 * est.mc_stderr
        assert abs(est.fidelity - quad.fidelity) < 0.01


def test_monte_carlo_three_qubit_within_4_sigma():
    run = run_scenario("three_qubit_P", 5.0, 2 / 3)
    mc = monte_carlo_estimate(run.state, run.rule, 100_000, seed=7)
    for est, quad in zip(mc, run.results):
        assert abs(est.success_prob - quad.success_prob) <= 4 * est.mc_stderr


def test_monte_carlo_single_trial_flagged():
    run = two_qubit_run(1.0, 1.0)
    mc = monte_carlo_estimate(run.state, run.rule, 1, seed=5)
    assert all(math.isnan(r.mc_stderr) for r in mc)
    with pytest.raises(ValueError):
        monte_carlo_estimate(run.state, run.rule, 0, seed=5)


def test_monte_carlo_deterministic():
    run = two_qubit_run(1.5, 0.9)
    a = monte_carlo_estimate(run.state, run.rule, 5000, seed=12)
    b = monte_carlo_estimate(run.state, run.rule, 5000, seed=12)
    assert a == b


@pytest.mark.parametrize("scenario, alpha, eta_sq, gamma, n, trials", [
    ("two_qubit_X", 1.5, 0.9, 0.0, None, 1000),     # both bins span blocks
    ("n_qubit_P", 8.0, 1.0, 1.0, 9, 1000),          # Dicke(9,7) stays empty
    ("two_qubit_X", 1.0, 1.0, 0.0, None, 1)])       # stderr NaN
def test_monte_carlo_does_not_depend_on_block_size(monkeypatch, scenario, alpha,
                                                   eta_sq, gamma, n, trials):
    run = run_scenario(scenario, alpha, eta_sq, gamma=gamma, n=n)
    results = []
    for block in (7, trials + 1):
        monkeypatch.setattr(metrics, "MC_BLOCK_TRIALS", block)
        results.append(monte_carlo_estimate(run.state, run.rule, trials, 9))
    small, whole = ([[getattr(r, f) for r in res]
                     for f in ("success_prob", "mc_stderr", "fidelity")]
                    for res in results)
    assert small[0] == whole[0]                     # identical hit counts
    assert np.array_equal(small[1], whole[1], equal_nan=True)
    np.testing.assert_allclose(small[2], whole[2], rtol=0, atol=1e-12)
    if trials == 1:
        assert np.isnan(small[1]).all()
    else:
        assert np.isnan(small[2]).any() == (n == 9)


def test_monte_carlo_memory_does_not_grow_with_trials():
    # the benchmark's mc_n5 task; holding all 10^6 trials at once takes ~100 MB
    run = run_scenario("n_qubit_P", 3.0, 0.6667, gamma=0.2, n=5)
    tracemalloc.start()
    try:
        monte_carlo_estimate(run.state, run.rule, 1_000_000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


# --- gamma model ----------------------------------------------------------------------

def test_gamma_fidelity_matches_env_model_prediction():
    # semi-analytic dual route: with gamma > 0 the coupled reflection is
    # -i|r1|, so the odd bin sits at sqrt(2) eta alpha |r1| with coherence
    # Gamma = exp(-(1-|r1|^2) (eta alpha)^2) between its two branches
    nbar, gamma, eta_sq = 4.0, 0.2, 2 / 3
    alpha, eta = math.sqrt(nbar), math.sqrt(eta_sq)
    r1_mod = 2 / 3
    m = math.sqrt(2) * eta * alpha
    coher = math.exp(-(1 - r1_mod**2) * (eta * alpha) ** 2)
    num = 0.25 * (1 + coher) * gauss_bin_mass(m * r1_mod, 0.0, math.inf)
    ps = mixture_bin_mass([0.25, 0.5, 0.25],
                          [-m, m * r1_mod, -m * r1_mod**2], 0.0, math.inf)
    run = two_qubit_run(nbar**0.5, eta_sq, gamma=gamma)
    odd = run.results[1]
    assert abs(odd.success_prob - ps) < 1e-8
    assert abs(odd.fidelity - num / ps) < 1e-8


def test_gamma_degradation_monotone():
    for nbar in (1.0, 4.0, 9.0):
        fids = [two_qubit_run(math.sqrt(nbar), 2 / 3, gamma=g).results[1].fidelity
                for g in (0.0, 0.2, 0.5)]
        assert fids[0] >= fids[1] >= fids[2]


# --- sweeps ------------------------------------------------------------------------

def test_sweep_grid_and_order():
    pts = sweep("two_qubit_X", [1.0, 2.0], [0.0, 0.2], 2 / 3)
    assert len(pts) == 4
    assert [(p.mean_photon_number, p.gamma_over_kappa) for p in pts] == [
        (1.0, 0.0), (1.0, 0.2), (2.0, 0.0), (2.0, 0.2)]
    assert all(len(p.results) == 2 for p in pts)
    assert abs(pts[0].alpha - 1.0) < 1e-15


def test_sweep_zero_photon_point_has_no_bins():
    pts = sweep("two_qubit_X", [0.0, 1.0], [0.0], 1.0)
    assert pts[0].results == ()
    assert len(pts[1].results) == 2


def test_sweep_empty_range_rejected():
    with pytest.raises(ValueError):
        sweep("two_qubit_X", [], [0.0], 1.0)


def test_sweep_fidelity_monotone_in_nbar():
    pts = sweep("two_qubit_X", [1.0, 2.0, 4.0, 9.0], [0.0], 2 / 3)
    fids = [p.results[1].fidelity for p in pts]
    assert all(hi >= lo for lo, hi in zip(fids, fids[1:]))
    assert all(abs(p.results[1].success_prob - 0.5) < 1e-8 for p in pts)


def test_sweep_parallel_matches_serial():
    serial = sweep("three_qubit_P", [1.0, 3.0], [0.0, 0.2], 2 / 3, jobs=1)
    parallel = sweep("three_qubit_P", [1.0, 3.0], [0.0, 0.2], 2 / 3, jobs=2)
    assert sweep_rows(serial) == sweep_rows(parallel)


def test_sweep_pool_size_capped_by_points_and_cpus(monkeypatch):
    # an executor starts all max_workers processes at its first submit, so
    # the pool must not be sized by --jobs alone; no process is started here
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(metrics, "ProcessPoolExecutor", Recorder)
    for cpus, want in ((64, 3), (2, 2)):
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: cpus)
        pts = sweep("two_qubit_X", [0.0, 1.0, 2.0], [0.0], 1.0, jobs=10_000)
        assert sizes.pop() == want
        assert len(pts) == 3
    monkeypatch.setattr(metrics.os, "cpu_count", lambda: None)
    sweep("two_qubit_X", [0.0, 1.0], [0.0], 1.0, jobs=10_000)
    assert sizes == []                  # one usable CPU: no pool at all


def test_sweep_csv_format():
    pts = sweep("gsum_X", [2.0], [0.0], 0.9)
    buf = io.StringIO()
    write_sweep_csv(pts, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert buf.getvalue().endswith("\n")
    assert "\r" not in buf.getvalue()
    # one row per class result plus header and trailing newline
    assert len(lines) == 1 + 2 + 1


def test_class_result_equality_supports_comparison():
    a = ClassResult(1, "W(3)", 0.5, 0.9, "quadrature")
    b = ClassResult(1, "W(3)", 0.5, 0.9, "quadrature")
    assert a == b
