import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from hpsim import cli, homodyne, metrics, numerics
from hpsim.homodyne import (build_decision_rule, class_overlap_integrand,
                            outcome_density, sample_outcomes)
from hpsim.cli import SWEEP_CSV_COLUMNS
from hpsim.metrics import (QUAD_TOL, ClassResult, _bin_breakpoints,
                           closed_form_two_qubit, evaluate_classes,
                           monte_carlo_estimate, prepare_state, run_scenario,
                           sweep)
from hpsim.hybrid_state import MAX_ALPHA
from hpsim.numerics import MAX_TRIALS, erfc, integrate_piecewise
from oracles import (erfc_oracle, gauss_bin_mass, integrate_piecewise_recursive,
                     integrate_piecewise_v1, interval_probability,
                     mixture_bin_mass, monte_carlo_blocks, monte_carlo_masks,
                     w_state_success)

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
            rule = build_decision_rule(scenario, ETA23 * alpha, n=n)
            density = lambda v: outcome_density(state, rule.quadrature, v)
            for cls, pts in zip(rule.classes, _bin_breakpoints(state, rule)):
                overlap = class_overlap_integrand(state, rule.quadrature, cls)
                for f in (density, overlap):
                    level = _Counted(f)
                    single = _Counted(lambda v: float(f(np.array([v]))[0]))
                    got, = integrate_piecewise(lambda v, which: level(v),
                                               [pts], QUAD_TOL)
                    want = integrate_piecewise_recursive(single, pts, QUAD_TOL)
                    where = (alpha, gamma, cls.target_name)
                    assert abs(got - want) <= 1e-13, where
                    assert level.points == single.points, where


@pytest.mark.parametrize("scenario, n, empty", [
    ("two_qubit_X", None, None), ("three_qubit_P", None, None),
    ("gsum_X", None, None), ("n_qubit_P", 2, None),
    ("n_qubit_P", 5, "Dicke(5,4)"), ("n_qubit_P", 6, None),
    ("n_qubit_P", 13, "Dicke(13,10)"), ("n_qubit_P", 20, "Dicke(20,15)")])
def test_evaluate_classes_matches_per_bin_integrals(scenario, n, empty):
    # the one batched pass (every bin's P and numerator) gives each bin the
    # P and numerator of its own integrals alone; at alpha = 100,
    # gamma = 0.2 the bin `empty` has P < 1e-12 and F = NaN
    undefined = set()
    for alpha in (1.5, 3.0, 100.0):
        for gamma in (0.0, 0.2):
            state = prepare_state(scenario, alpha, 0.6667, gamma, n)
            rule = build_decision_rule(scenario, math.sqrt(0.6667) * alpha, n=n)
            density = lambda v: outcome_density(state, rule.quadrature, v)
            results, = metrics.evaluate_classes([(state, rule)])
            for cls, pts, res in zip(rule.classes, _bin_breakpoints(state, rule),
                                     results):
                where = (alpha, gamma, res.target_name)
                assert res.target_name == cls.target_name, where
                ps, = integrate_piecewise(lambda v, which: density(v), [pts],
                                          QUAD_TOL)
                assert abs(res.success_prob - ps) <= 1e-14, where
                if ps < 1e-12:
                    assert math.isnan(res.fidelity), where
                    undefined.add(where)
                    continue
                overlap = class_overlap_integrand(state, rule.quadrature, cls)
                num, = integrate_piecewise(lambda v, which: overlap(v), [pts],
                                           QUAD_TOL)
                assert abs(res.fidelity - num / ps) <= 1e-14, where
    assert undefined == ({(100.0, 0.2, empty)} if empty else set())


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
    edges = (-math.inf, *run.rule.thresholds, math.inf)
    for res, lo, hi in zip(run.results, edges, edges[1:]):
        closed = interval_probability(run.state, "P", lo, hi)
        assert abs(res.success_prob - closed) < 1e-8


def test_reported_numbers_are_python_floats():
    # cli.cmd_sweep writes repr(); numpy 2 spells a float64 "np.float64(...)"
    run = run_scenario("three_qubit_P", 3.0, 0.9, gamma=0.2, trials=500,
                       seed=3)
    results = run.results + run.mc_results
    results += tuple(r for pt in sweep("gsum", [0.0, 2.0], [0.0, 0.2], 0.9)
                     for r in pt.results)
    assert {r.method for r in results} == {"quadrature", "monte_carlo"}
    for r in results:
        for x in (r.success_prob, r.fidelity, r.mc_stderr):
            assert x is None or type(x) is float, (r, x)


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
    ps, f = closed_form_two_qubit(0.0)
    assert ps == 0.5 and f == 0.5
    assert closed_form_two_qubit(MAX_ALPHA) == (0.5, 1.0)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError):
            closed_form_two_qubit(alpha)


def test_gsum_fidelity():
    run = run_scenario("gsum_X", math.sqrt(5), 2 / 3)
    assert by_target(run.results, "Gprime(3,1)").fidelity >= 0.99


def test_fidelity_undefined_for_empty_class(monkeypatch):
    # with the threshold between the GHZ(3) bin's P (0.25) and the other
    # two (0.37), only GHZ(3) loses its fidelity; nothing else moves a bit
    run = run_scenario("three_qubit_P", 3.0, 0.9)
    probs = sorted(r.success_prob for r in run.results)
    assert probs[0] < probs[1]
    monkeypatch.setattr(metrics, "EMPTY_BIN_P", (probs[0] + probs[1]) / 2)
    results, = metrics.evaluate_classes([(run.state, run.rule)])
    for want, got in zip(run.results, results):
        assert got.success_prob == want.success_prob
        if want.success_prob == probs[0]:
            assert want.target_name == "GHZ(3)"
            assert math.isnan(got.fidelity)
        else:
            assert got.fidelity == want.fidelity


def test_quadrature_matches_closed_form_across_grid():
    # alpha in [0, 6] (grid starts just off the degenerate-rule point at 0)
    alphas = np.concatenate([[0.05], np.linspace(0.25, 6.0, 16)])
    for eta_sq in (1.0, 2 / 3, 1 / 3):
        eta = math.sqrt(eta_sq)
        for alpha in alphas:
            run = two_qubit_run(float(alpha), eta_sq)
            ps, f = closed_form_two_qubit(eta * float(alpha))
            assert abs(run.results[1].success_prob - ps) < 1e-8
            assert abs(run.results[1].fidelity - f) < 1e-8


def test_fidelity_monotone_in_alpha():
    eta_sq = 2 / 3
    fids = [closed_form_two_qubit(math.sqrt(eta_sq) * a)[1]
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
            ps, _ = closed_form_two_qubit(eta * alpha)
            assert ps == 0.5
    # the reflection identity is exact in numerics.erfc, so one erfc call
    # gives the bits of P_s = (lo + hi) / 4 and F = hi / (hi + lo)
    grid = np.concatenate([np.linspace(0.0, 12.0, 1201), [1e-300],
                           np.geomspace(12.0, MAX_ALPHA, 200)])
    for a in grid.tolist():
        lo, hi = erfc(math.sqrt(2.0) * a), erfc(-math.sqrt(2.0) * a)
        assert closed_form_two_qubit(a) == ((lo + hi) / 4, hi / (hi + lo)), a


def test_closed_form_matches_independent_oracle():
    for alpha, eta in ((0.7, 1.0), (math.sqrt(3), ETA23), (3.0, 0.5)):
        s = math.sqrt(2) * eta * alpha
        _, f = closed_form_two_qubit(eta * alpha)
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
        assert 0 < est.fidelity_stderr < 1e-3
        assert abs(est.fidelity - quad.fidelity) <= 5 * est.fidelity_stderr
        assert quad.fidelity_stderr is None         # Monte Carlo only


def test_monte_carlo_three_qubit_within_4_sigma():
    run = run_scenario("three_qubit_P", 5.0, 2 / 3)
    mc = monte_carlo_estimate(run.state, run.rule, 100_000, seed=7)
    for est, quad in zip(mc, run.results):
        assert abs(est.success_prob - quad.success_prob) <= 4 * est.mc_stderr


def test_monte_carlo_single_trial_flagged():
    run = two_qubit_run(1.0, 1.0)
    mc = monte_carlo_estimate(run.state, run.rule, 1, seed=5)
    assert all(math.isnan(r.mc_stderr) for r in mc)
    assert all(math.isnan(r.fidelity_stderr) for r in mc)
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


MC_CONFIGS = pytest.mark.parametrize("scenario, alpha, eta_sq, gamma, n", [
    ("two_qubit_X", 1.5, 0.9, 0.0, None),
    ("three_qubit_P", 3.0, 0.6667, 0.2, None),
    ("gsum_X", 1.7, 0.6667, 0.2, None),         # two-label bins
    ("n_qubit_P", 2.0, 0.8, 0.5, 6),            # three-weight bins
    ("n_qubit_P", 8.0, 1.0, 1.0, 9)])           # Dicke(9,7) stays empty


@MC_CONFIGS
def test_monte_carlo_matches_per_bin_mask_loop(monkeypatch, scenario, alpha,
                                               eta_sq, gamma, n):
    # One sort by value scores the same samples as one boolean mask per
    # bin with searchsorted classification, and the fidelity standard
    # error merged block by block matches numpy's over all of a bin's
    # ratios at once.
    trials = 3000
    run = run_scenario(scenario, alpha, eta_sq, gamma=gamma, n=n)
    hits, fids, errs = zip(*monte_carlo_masks(run.state, run.rule, trials, 5))
    for block in (7, metrics.MC_BLOCK_TRIALS):
        monkeypatch.setattr(metrics, "MC_BLOCK_TRIALS", block)
        got = monte_carlo_estimate(run.state, run.rule, trials, 5)
        assert [round(r.success_prob * trials) for r in got] == list(hits)
        np.testing.assert_allclose([r.fidelity for r in got], fids,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose([r.fidelity_stderr for r in got], errs,
                                   rtol=1e-9, atol=1e-15)
    assert (0 in hits) == (n == 9)


@MC_CONFIGS
def test_monte_carlo_equals_frozen_block_loop(monkeypatch, scenario, alpha,
                                              eta_sq, gamma, n):
    # every ClassResult field equal, not close: the in-place sampler and
    # the scoring of value-sorted blocks change no bit of the estimate
    run = run_scenario(scenario, alpha, eta_sq, gamma=gamma, n=n)
    for block in (7, metrics.MC_BLOCK_TRIALS):
        monkeypatch.setattr(metrics, "MC_BLOCK_TRIALS", block)
        assert (monte_carlo_estimate(run.state, run.rule, 3000, 5)
                == monte_carlo_blocks(run.state, run.rule, 3000, 5, block))


@pytest.mark.parametrize("scenario, alpha, n", [
    ("two_qubit_X", 1.5, None), ("gsum_X", 1.7, None), ("n_qubit_P", 3.0, 9)])
def test_monte_carlo_bins_ties_as_classify(monkeypatch, scenario, alpha, n):
    # every threshold and its two neighbouring floats, and -0.0 beside 0.0,
    # shuffled over blocks of 4: a bin's hits are the outcomes that
    # searchsorted side="right" puts in it, ties up
    run = run_scenario(scenario, alpha, 1.0, n=n)
    t = np.asarray(run.rule.thresholds)
    v = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                        [-0.0, 0.0]])
    np.random.default_rng(3).shuffle(v)

    def crafted(state, quadrature, trials, seed, start, stop, out):
        out[:] = v[start:stop]
        return out

    monkeypatch.setattr(metrics, "sample_outcomes", crafted)
    monkeypatch.setattr(metrics, "MC_BLOCK_TRIALS", 4)
    got = monte_carlo_estimate(run.state, run.rule, v.size, 1)
    assert [round(r.success_prob * v.size) for r in got] == np.bincount(
        np.searchsorted(t, v, side="right"),
        minlength=len(run.rule.classes)).tolist()


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


def test_monte_carlo_working_set_does_not_grow_with_n():
    # the run's block arrays are made once and the integrand holds the
    # terms of one slice's slots at a time (one Gaussian row per slot at
    # Monte Carlo's slice length), so at 200,000 trials n = 20 peaks within
    # 1.5x of n = 5 (1.63 against 1.58 MB once warm; 2.74 against 2.70 MB
    # with a stable sort by bin and a gather into a third array; holding a
    # slice's (n+1) Gaussians at once read 4.54 against 3.29 MB, whole
    # blocks 12.7 against 4.9 MB)
    def peak(n):
        run = run_scenario("n_qubit_P", 3.0, 0.6667, gamma=0.2, n=n)
        tracemalloc.start()
        try:
            monte_carlo_estimate(run.state, run.rule, 200_000, seed=4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(5), peak(20)
    assert large <= 1.5 * small, (small, large)
    assert large <= 2.2e6, large


# a child process of its own: the test process's heap history (earlier
# tests' frees) can hide or add page faults
_FAULT_CHILD = textwrap.dedent("""
    import resource
    from hpsim.hybrid_state import alpha_for_nbar
    from hpsim.metrics import monte_carlo_estimate, run_scenario
    for scenario, nbar, n in (("n_qubit_P", 9.0, 5), ("gsum_X", 3.0, None)):
        run = run_scenario(scenario, alpha_for_nbar(nbar), 0.6667, gamma=0.2,
                           n=n)
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            monte_carlo_estimate(run.state, run.rule, 1_000_000, 4)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(faults)
""")


def test_monte_carlo_blocks_take_no_fresh_pages():
    # the benchmark's mc_n5 and mc_gsum runs at 10^6 trials, each run twice
    # in a fresh process; the second run's minor page faults are counted.
    # Block arrays made and freed per block went back to the kernel and
    # were faulted in again by the next block: about 5,700 and 6,050
    # faults a run.  With the run's arrays reused by every block, about
    # 500-550 remain, most of them the first touch of those arrays.
    src = os.path.dirname(os.path.dirname(os.path.abspath(metrics.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", _FAULT_CHILD], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    faults = [int(line) for line in res.stdout.split()]
    assert len(faults) == 2 and max(faults) <= 1500, faults


@pytest.mark.parametrize("trials", [np.int64(1000), np.uint16(1000),
                                    np.int32(1)])
def test_numpy_integer_trials_equal_python_ints(trials):
    # a numpy integer passed the checks, then overflowed Philox.advance
    # (np.int64) on its way to the normals' stream position
    run = run_scenario("two_qubit", 1.5, 0.9, trials=trials, seed=3)
    assert run.mc_results == run_scenario("two_qubit", 1.5, 0.9,
                                          trials=int(trials), seed=3).mc_results
    assert (monte_carlo_estimate(run.state, run.rule, trials, 3)
            == list(run.mc_results))
    if trials > 1:
        assert np.array_equal(
            sample_outcomes(run.state, "X", trials, 3, np.int8(2),
                            np.uint64(9)),
            sample_outcomes(run.state, "X", int(trials), 3, 2, 9))


@pytest.mark.parametrize("start, stop", [(0.5, 4), (0, 4.0), (True, 4),
                                         (0, np.float64(4)), ("0", 4)])
def test_sampler_range_must_be_integers(start, stop):
    # a fractional start raised a TypeError inside Philox; a bool or float
    # is refused at the range check, as a bad range is
    st = prepare_state("two_qubit_X", 1.0, 1.0)
    with pytest.raises(ValueError, match="trial range"):
        sample_outcomes(st, "X", 10, 1, start, stop)


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
    pts = list(sweep("two_qubit_X", [1.0, 2.0], [0.0, 0.2], 2 / 3))
    assert len(pts) == 4
    assert [(p.mean_photon_number, p.gamma_over_kappa) for p in pts] == [
        (1.0, 0.0), (1.0, 0.2), (2.0, 0.0), (2.0, 0.2)]
    assert all(len(p.results) == 2 for p in pts)
    assert abs(pts[0].alpha - 1.0) < 1e-15


def test_sweep_zero_photon_point_has_no_bins():
    pts = list(sweep("two_qubit_X", [0.0, 1.0], [0.0], 1.0))
    assert pts[0].results == ()
    assert len(pts[1].results) == 2


def test_sweep_empty_range_rejected():
    with pytest.raises(ValueError):
        sweep("two_qubit_X", [], [0.0], 1.0)
    with pytest.raises(ValueError, match="gamma range is empty"):
        sweep("two_qubit_X", [1.0], [], 1.0)


@pytest.mark.parametrize("nbars, gammas, bad", [
    ([2.0, -1.0], [0.0], "mean photon number"),
    ([2.0, math.nan], [0.0], "mean photon number"),
    ([2.0], [0.0, -1.0], "gamma"),
    ([2.0], [0.0, math.inf], "gamma"),
], ids=["negative_nbar", "nan_nbar", "negative_gamma", "inf_gamma"])
def test_sweep_rejects_bad_values_before_any_point(monkeypatch, nbars, gammas,
                                                   bad):
    calls = []
    for name in ("prepare_state", "sector_states"):
        monkeypatch.setattr(metrics, name,
                            lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError,
                       match=f"^{bad} must be finite and non-negative"):
        sweep("two_qubit_X", nbars, gammas, 1.0)
    assert calls == []


@pytest.mark.parametrize("eta_sq", [-0.1, math.nan])
def test_sweep_rejects_bad_eta_sq_before_any_point(monkeypatch, capsys,
                                                   eta_sq):
    # run_scenario's message, not the "math domain error" of sqrt(-0.1),
    # and no rule, state or integral is built first
    message = f"eta_sq must lie in [0, 1], got {eta_sq}"
    calls = []
    for name in ("build_decision_rule", "prepare_state", "sector_states",
                 "evaluate_classes"):
        monkeypatch.setattr(metrics, name,
                            lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError) as err:
        sweep("two_qubit_X", [0.0, 2.0], [0.0, 0.2], eta_sq)
    assert str(err.value) == message
    code = cli.main(["sweep", "--scenario", "two_qubit", "--nbar", "0,2",
                     "--gamma", "0,0.2", "--eta-sq", str(eta_sq)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"hpsim: error: {message}\n")
    assert calls == []


@pytest.mark.parametrize("scenario, n", [
    ("two_qubit_X", None), ("three_qubit_P", None), ("gsum_X", None),
    ("n_qubit_P", 6), ("n_qubit_P", 9), ("n_qubit_P", 20)])
@pytest.mark.parametrize("block", [5, 8, metrics.SWEEP_BLOCK_POINTS])
def test_sweep_blocks_equal_run_scenario(monkeypatch, scenario, n, block):
    # 39 grid points fill no whole number of blocks and more than one of
    # each size; <n> = 0 resolves no bins; n = 6 has three-weight bins.
    # Each point equals its run alone, bit for bit, at gamma = 0 and
    # gamma > 0.
    monkeypatch.setattr(metrics, "SWEEP_BLOCK_POINTS", block)
    nbars = [0.0, 1.5, 4.0, 9.0, 0.25, 0.5, 1.0, 2.0, 2.5, 3.0, 6.0, 12.0,
             25.0]
    gammas = [0.0, 0.2, 0.5]
    assert len(nbars) * len(gammas) > block
    assert (len(nbars) * len(gammas)) % block
    points = list(sweep(scenario, nbars, gammas, 0.6667, n=n))
    assert [(p.mean_photon_number, p.gamma_over_kappa) for p in points] == [
        (nbar, gamma) for nbar in nbars for gamma in gammas]
    for point in points:
        if point.mean_photon_number == 0.0:
            assert point.results == ()
            continue
        run = run_scenario(scenario, point.alpha, 0.6667,
                           gamma=point.gamma_over_kappa, n=n)
        assert point.results == run.results
        assert point.scenario == run.rule.scenario


@pytest.mark.parametrize("scenario, n", [
    ("two_qubit_X", None), ("gsum_X", None), ("n_qubit_P", 9)])
def test_sweep_equals_frozen_integrator(monkeypatch, scenario, n):
    # a default block's batch, with its table columns and padded slots,
    # integrates to the frozen 8-row frontier's numbers bit for bit.  got is
    # read before the patch: read after it, it would be the frozen
    # integrator's too
    nbars, gammas = [0.25 * i for i in range(1, 14)], [0.0, 0.2, 0.5]
    got = list(sweep(scenario, nbars, gammas, 0.6667, n=n))
    monkeypatch.setattr(metrics, "integrate_piecewise", integrate_piecewise_v1)
    assert got == list(sweep(scenario, nbars, gammas, 0.6667, n=n))


def test_sweep_builds_states_one_block_at_a_time(monkeypatch):
    # a whole grid at once would hold points x n^2 entries of G; the
    # phases are solved once per sweep and each distinct gamma's pair once.
    # The first blocks hold only <n> = 0 points: empty batches.
    calls = {"sector_states": [], "solve_params_for_phase": [],
             "reflection_pair": []}
    for name, log in calls.items():
        real = getattr(metrics, name)
        monkeypatch.setattr(metrics, name, lambda *args, real=real, log=log:
                            log.append(args) or real(*args))
    block = metrics.SWEEP_BLOCK_POINTS
    nbars, gammas = [0.0] * block + [0.5, 2.0, 9.0], [0.0, 0.2, 0.5, 0.2]
    points = sweep("n_qubit_P", nbars, gammas, 0.6667, n=9)
    assert calls == {name: [] for name in calls}    # nothing runs until read
    points = list(points)
    built = [len(args[1]) for args in calls["sector_states"]]
    assert max(built) <= block and built[0] == 0
    assert sum(built) == 12 == sum(bool(p.results) for p in points)
    assert len(calls["solve_params_for_phase"]) == 1
    assert len(calls["reflection_pair"]) == 3


def test_fig4b_sweep_memory_is_bounded(monkeypatch):
    # the fig4b sweep at the default block: the evaluator takes Simpson's
    # whole levels in slices of at most SLICE_POINTS // 8 points, some of
    # them full, and the traced heap peak stays under a budget that a
    # level holding its whole old and new frontier at once exceeds (1.50-
    # 1.57 MB measured, 2.01 MB with that rebuild, 3.33 MB unsliced;
    # notes/decisions.md, "Sliced Simpson levels and 32-point sweep
    # blocks", "One layer slices the integrand" and "Lean Simpson levels")
    sizes = []
    real = homodyne._gaussian_sum
    monkeypatch.setattr(homodyne, "_gaussian_sum", lambda v, *args:
                        sizes.append(v.size) or real(v, *args))
    nbars, gammas = [0.25 * i for i in range(41)], [0.0, 0.2, 0.5]
    tracemalloc.start()
    try:
        list(sweep("two_qubit", nbars, gammas, 0.6667))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(sizes) == homodyne.SLICE_POINTS // 8
    assert peak < 1.8e6, peak


def test_sweep_fidelity_monotone_in_nbar():
    pts = list(sweep("two_qubit_X", [1.0, 2.0, 4.0, 9.0], [0.0], 2 / 3))
    fids = [p.results[1].fidelity for p in pts]
    assert all(hi >= lo for lo, hi in zip(fids, fids[1:]))
    assert all(abs(p.results[1].success_prob - 0.5) < 1e-8 for p in pts)


def sweep_csv(capsys, scenario, nbar, gamma, eta_sq):
    """The sweep CSV that `cli.main` writes, run in this process."""
    assert cli.main(["sweep", "--scenario", scenario, "--nbar", nbar,
                     "--gamma", gamma, "--eta-sq", eta_sq]) == 0
    return capsys.readouterr().out


def test_sweep_csv_format(capsys):
    text = sweep_csv(capsys, "gsum_X", "2", "0", "0.9")
    lines = text.split("\n")
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert text.endswith("\n")
    assert "\r" not in text
    # one row per class result plus header and trailing newline
    assert len(lines) == 1 + 2 + 1


def test_sweep_alias_writes_canonical_name(capsys):
    # the rule is the one home of the scenario name, aliases included
    def csv_bytes(scenario):
        return sweep_csv(capsys, scenario, "2", "0,0.2", "0.9").encode("utf-8")
    got = csv_bytes("gsum")
    assert got == csv_bytes("gsum_X")
    assert all(row.startswith(b"gsum_X,") for row in got.splitlines()[1:])


def test_run_scenario_alias_matches_canonical():
    alias = run_scenario("gsum", 2.0, 1.0)
    canonical = run_scenario("gsum_X", 2.0, 1.0)
    assert alias.rule == canonical.rule
    assert alias.rule.scenario == "gsum_X"
    assert alias.results == canonical.results


@pytest.mark.parametrize("scenario, n", [
    ("two_qubit_X", None), ("three_qubit_P", None), ("gsum_X", None),
    ("n_qubit_P", 7), ("n_qubit_P", 13)])
def test_channel_loss_is_a_rescaling_of_alpha(scenario, n):
    # the channel is one lumped loss at the pulse input, so it enters only
    # as a = eta alpha: a run at (alpha, eta^2) and one at (eta alpha, 1)
    # share every threshold, P, F and Monte Carlo hit count, bit for bit
    def same(x, y):                 # NaN, an empty bin's F, equals NaN
        return x == y or (math.isnan(x) and math.isnan(y))
    for alpha in (0.7, 2.0, 4.0):
        for gamma in (0.0, 0.2, 1.0):
            for eta_sq in (0.6667, 0.25):
                lossy = run_scenario(scenario, alpha, eta_sq, gamma, n,
                                     trials=2000)
                scaled = run_scenario(scenario, math.sqrt(eta_sq) * alpha,
                                      1.0, gamma, n, trials=2000)
                where = (alpha, gamma, eta_sq)
                assert lossy.rule.thresholds == scaled.rule.thresholds, where
                assert len(lossy.mc_results) == len(lossy.results), where
                # an MC success_prob is the bin's hit count over the trials
                for got, want in zip(lossy.results + lossy.mc_results,
                                     scaled.results + scaled.mc_results):
                    assert got.success_prob == want.success_prob, where
                    assert same(got.fidelity, want.fidelity), where


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": -1}, "trials must be non-negative, got -1"),
    ({"eta_sq": -0.5}, "eta_sq must lie in [0, 1], got -0.5"),
    ({"eta_sq": 1.5}, "eta_sq must lie in [0, 1], got 1.5"),
    ({"trials": 1, "seed": -1},
     "seed must be an unsigned 64-bit integer, got -1"),
    ({"seed": 2**64},
     f"seed must be an unsigned 64-bit integer, got {2**64}"),
    ({"trials": 1000, "seed": 1.9},
     "seed must be an unsigned 64-bit integer, got 1.9"),
], ids=["negative_trials", "eta_sq_below", "eta_sq_above", "negative_seed",
        "seed_above_64_bits", "float_seed"])
def test_run_scenario_rejects_bad_inputs_before_work(monkeypatch, kwargs,
                                                     message):
    calls = []
    monkeypatch.setattr(metrics, "build_decision_rule",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError) as err:
        run_scenario("two_qubit_X", 1.0, **{"eta_sq": 1.0, **kwargs})
    assert str(err.value) == message
    assert calls == []


def test_monte_carlo_checks_the_seed_before_work(monkeypatch):
    # no bin's overlap row is built for a seed the sampler would refuse
    run = run_scenario("gsum", 2.0, 1.0)
    calls = []
    monkeypatch.setattr(metrics, "class_overlap_integrand",
                        lambda *args: calls.append(args))
    for seed in (-1, 2**64):
        with pytest.raises(ValueError) as err:
            monte_carlo_estimate(run.state, run.rule, 10, seed)
        assert str(err.value) == ("seed must be an unsigned 64-bit integer, "
                                  f"got {seed}")
    assert calls == []


def test_monte_carlo_takes_trials_up_to_the_cap(monkeypatch):
    # MAX_TRIALS reaches the sampler (stubbed: it raises at the first
    # draw); one more is refused before any draw
    class Drawn(Exception):
        pass

    def draw(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(metrics, "sample_outcomes", draw)
    run = run_scenario("gsum", 2.0, 1.0)
    with pytest.raises(Drawn):
        monte_carlo_estimate(run.state, run.rule, MAX_TRIALS, 1)
    with pytest.raises(ValueError) as err:
        monte_carlo_estimate(run.state, run.rule, MAX_TRIALS + 1, 1)
    assert str(err.value) == (f"trials must be at most {MAX_TRIALS}, "
                              f"got {MAX_TRIALS + 1}")


def test_run_scenario_takes_trials_up_to_the_cap(monkeypatch):
    # MAX_TRIALS itself reaches Monte Carlo (stubbed: no trial runs); one
    # more is refused before any work
    calls = []

    def record(state, rule, trials, seed):
        calls.append(trials)
        return []

    monkeypatch.setattr(metrics, "monte_carlo_estimate", record)
    run = run_scenario("gsum", 2.0, 1.0, trials=MAX_TRIALS)
    assert calls == [MAX_TRIALS] and run.mc_results == ()
    with pytest.raises(ValueError) as err:
        run_scenario("gsum", 2.0, 1.0, trials=MAX_TRIALS + 1)
    assert str(err.value) == (f"trials must be at most {MAX_TRIALS}, "
                              f"got {MAX_TRIALS + 1}")
    assert calls == [MAX_TRIALS]


def test_sampler_and_monte_carlo_share_one_trials_rule():
    # both draw at least one trial and refuse a count with the same message
    run = run_scenario("gsum", 2.0, 1.0)
    for trials, message in (
            (0, "trials must be >= 1, got 0"),
            (-3, "trials must be non-negative, got -3"),
            (MAX_TRIALS + 1,
             f"trials must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
            (2.0, "trials must be an integer, got 2.0")):
        for draw in (
                lambda: monte_carlo_estimate(run.state, run.rule, trials, 1),
                lambda: sample_outcomes(run.state, "X", trials, 1)):
            with pytest.raises(ValueError) as err:
                draw()
            assert str(err.value) == message


@pytest.mark.parametrize("trials", [1000.0, 2.5, True, "10", math.nan],
                         ids=["float", "fraction", "bool", "str", "nan"])
def test_trials_must_be_an_integer(monkeypatch, trials):
    # refused before the quadrature or any overlap row: a float ran the
    # quadrature and then failed in range(), nan skipped Monte Carlo and
    # True ran one trial
    run = run_scenario("gsum", 2.0, 1.0)
    calls = []
    monkeypatch.setattr(metrics, "evaluate_classes",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(metrics, "class_overlap_integrand",
                        lambda *args: calls.append(args))
    message = f"trials must be an integer, got {trials!r}"
    with pytest.raises(ValueError) as err:
        run_scenario("gsum", 2.0, 1.0, trials=trials)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        monte_carlo_estimate(run.state, run.rule, trials, 1)
    assert str(err.value) == message
    assert calls == []


@pytest.mark.parametrize("scenario, n", [
    ("n_qubit_P", 5.0), ("two_qubit_X", 2.0), ("n_qubit_P", 5.5),
    ("n_qubit_P", "5"), ("n_qubit_P", True), ("two_qubit_X", np.float64(2.0)),
], ids=["float", "fixed_float", "fraction", "str", "bool", "numpy_float"])
def test_n_must_be_an_integer(monkeypatch, scenario, n):
    # refused before the phases are solved: a float n failed in range()
    # after that work, and a str n in the range comparison
    assert prepare_state("n_qubit_P", 3.0, 0.5, n=np.int64(5)).n == 5
    calls = []
    monkeypatch.setattr(metrics, "solve_params_for_phase",
                        lambda *args: calls.append(args))
    for call in (lambda: run_scenario(scenario, 3.0, 0.5, n=n),
                 lambda: sweep(scenario, [9.0], [0.0], 0.5, n=n),
                 lambda: prepare_state(scenario, 3.0, 0.5, n=n),
                 lambda: build_decision_rule(scenario, 3.0, n=n)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"n must be an integer, got {n!r}"
    assert calls == []


def test_batch_of_mixed_scenarios_equals_each_pair_alone():
    # pairs of different scenarios, axes and bin counts in one batch: each
    # pair's bins sit at its own offsets among the integrand columns, and a
    # pair's results must not depend on what shares its batch; n = 13 at
    # alpha = 100, gamma = 0.2 has an empty bin (F = NaN)
    pairs = []
    for scenario, n, alpha, gamma in (
            ("two_qubit_X", None, 1.5, 0.0), ("three_qubit_P", None, 3.0, 0.2),
            ("gsum_X", None, 2.0, 0.0), ("n_qubit_P", 6, 3.0, 0.2),
            ("n_qubit_P", 13, 100.0, 0.2), ("n_qubit_P", 20, 3.0, 0.0)):
        state = prepare_state(scenario, alpha, 0.6667, gamma, n)
        pairs.append((state, build_decision_rule(
            scenario, math.sqrt(0.6667) * alpha, n=n)))

    def bits(results):
        return [(r.parity, r.target_name, r.success_prob.hex(),
                 r.fidelity.hex()) for r in results]

    alone = [bits(evaluate_classes([pair])[0]) for pair in pairs]
    assert "nan" in [fidelity for *_, fidelity in alone[4]]
    for order in (slice(None), slice(None, None, -1)):
        got = [bits(results) for results in evaluate_classes(pairs[order])]
        assert got == alone[order]


def test_state_and_rule_of_different_n_are_refused(monkeypatch):
    # a three-qubit state scored with a two-qubit rule gave confident wrong
    # numbers; the reverse pair raised IndexError
    two, three = (run_scenario(s, 2.0, 1.0) for s in ("two_qubit_X",
                                                       "three_qubit_P"))
    calls = []
    monkeypatch.setattr(metrics, "integrands", lambda *args: calls.append(args))
    monkeypatch.setattr(metrics, "class_overlap_integrand",
                        lambda *args: calls.append(args))
    for state, rule in ((three.state, two.rule), (two.state, three.rule)):
        message = f"state has n={state.n} but rule has n={rule.n}"
        with pytest.raises(ValueError) as err:
            evaluate_classes([(two.state, two.rule), (state, rule)])
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            monte_carlo_estimate(state, rule, 100, 1)
        assert str(err.value) == message
    assert calls == []


def test_class_result_equality_supports_comparison():
    a = ClassResult(1, "W(3)", 0.5, 0.9, "quadrature")
    b = ClassResult(1, "W(3)", 0.5, 0.9, "quadrature")
    assert a == b


def test_legal_inputs_stay_above_simpson_depth_cap(monkeypatch):
    # adaptive Simpson accepts every panel still open at numerics._MAX_DEPTH
    # without a word; a scan of 864 extreme legal configurations refined to
    # level 23 at most (notes/decisions.md, "Simpson depth scan").  These
    # fast cases refine to level 22: a cap of 30 must change none of
    # their numbers, and a cap of 16 must, or they no longer reach that deep
    def numbers():
        out = []
        for scenario, gamma in (("two_qubit_X", 0.0), ("two_qubit_X", 0.2),
                                ("gsum_X", 0.0)):
            run = run_scenario(scenario, MAX_ALPHA, 1.0, gamma=gamma)
            out += [x for r in run.results for x in (r.success_prob, r.fidelity)]
        return np.array(out)

    full = numbers()
    monkeypatch.setattr(numerics, "_MAX_DEPTH", 30)
    assert np.array_equal(numbers(), full, equal_nan=True)
    monkeypatch.setattr(numerics, "_MAX_DEPTH", 16)
    assert not np.array_equal(numbers(), full, equal_nan=True)
