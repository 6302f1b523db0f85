import math
import pickle
from bisect import bisect_right

import numpy as np
import pytest

from hpsim.errors import DegenerateRuleError
from hpsim.homodyne import (SCENARIOS, OutcomeClass, _zeta_coefficients,
                            build_decision_rule, class_overlap_integrand,
                            density_components, density_integrand,
                            integrand_rows, integrands, integration_window,
                            outcome_density, overlap_integrand, quadrature_mean,
                            resolve_scenario, sample_outcomes)
from hpsim.hybrid_state import MAX_ALPHA
from hpsim.metrics import prepare_state, run_scenario
from oracles import (DegenerateOutcomeError, adaptive_simpson,
                     complex_overlap_integrand, conditional_atomic_state,
                     density_cdf, density_row_per_bin, dense_state,
                     make_target, mixture_density, overlap_row_per_bin,
                     overlap_scale, quadrature_wavefunction, same_bits,
                     target_at, zeta_polar)

QPI = math.pi ** (-0.25)


def test_vacuum_wavefunction():
    for v in (-1.0, 0.0, 0.4):
        got = quadrature_wavefunction(0j, "X", v)
        assert abs(got - QPI * math.exp(-v * v / 2)) < 1e-15


def test_real_label_peaks_at_sqrt2_alpha():
    alpha = 1.7
    vs = np.linspace(-6, 6, 2001)
    dens = np.abs(quadrature_wavefunction(alpha + 0j, "X", vs)) ** 2
    assert abs(vs[np.argmax(dens)] - math.sqrt(2) * alpha) < 0.01


def test_wavefunction_normalized():
    rng = np.random.default_rng(8)
    for _ in range(5):
        label = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for quad in ("X", "P"):
            mean = quadrature_mean(label, quad)
            f = lambda v: abs(quadrature_wavefunction(label, quad, v)) ** 2
            total = adaptive_simpson(f, mean - 8, mean + 8, 1e-11)
            assert abs(total - 1.0) < 1e-10


def test_phase_formulas_match_quoted_forms():
    a, theta, v = 1.3, 0.9, 0.7
    label = a * complex(math.cos(theta), math.sin(theta))
    zx = a * math.sin(theta) * (v - 2 * a * math.cos(theta))
    zp = -2 * a * math.cos(theta) * (math.sqrt(2) * v - a * math.sin(theta))
    px = quadrature_wavefunction(label, "X", v)
    pp = quadrature_wavefunction(label, "P", v)
    assert abs(np.angle(px) - math.remainder(zx, 2 * math.pi)) < 1e-12
    assert abs(np.angle(pp) - math.remainder(zp, 2 * math.pi)) < 1e-12
    # the package's (slope, offset) pair against the oracle's polar form,
    # relative to the size a (|v| + a) of zeta's terms (a near-real label
    # has a sin(theta) ~ 0, rounded differently by the two forms): seeded
    # random labels, the lossy sector fields, and the label above
    rng = np.random.default_rng(20240)
    labels = [rng.uniform(0, 10, 200)
              * np.exp(1j * rng.uniform(-np.pi, np.pi, 200)),
              prepare_state("gsum_X", 2.0, 2 / 3, 0.2).fields,
              prepare_state("n_qubit_P", 2.0, 2 / 3, 0.2, n=7).fields,
              np.array([label])]
    vs = np.linspace(-6.0, 6.0, 13)[:, None]
    for quad in ("X", "P"):
        for labs in labels:
            slope, offset = _zeta_coefficients(labs, quad)
            got = slope * vs + offset
            want = zeta_polar(labs, quad, vs)
            scale = np.abs(labs) * (np.abs(vs) + np.abs(labs))
            assert np.all(np.abs(got - want) <= 1e-12 * scale), quad


def test_envelope_only_mode_drops_phase():
    label = 1.5 * np.exp(1j * 0.8)
    got = quadrature_wavefunction(label, "P", 0.3, include_phase=False)
    assert got.imag == 0.0
    assert abs(got - abs(quadrature_wavefunction(label, "P", 0.3))) < 1e-15


def test_outcome_density_two_gaussian_mixture():
    eta = math.sqrt(2 / 3)
    st = prepare_state("two_qubit_X", 3.0, 2 / 3)
    m = math.sqrt(2) * eta * 3.0
    for v in (-4.0, 0.0, 2.5):
        want = 0.5 * (math.exp(-(v - m) ** 2) + math.exp(-(v + m) ** 2)) / math.sqrt(math.pi)
        assert abs(outcome_density(st, "X", np.array([v]))[0] - want) < 1e-12


def test_outcome_density_normalized():
    st = prepare_state("three_qubit_P", 2.0, 0.8)
    lo, hi = integration_window(st, "P")
    total = adaptive_simpson(lambda v: outcome_density(st, "P", np.array([v]))[0],
                             lo, hi, 1e-11)
    assert abs(total - 1.0) < 1e-10


def test_three_qubit_density_peaks_and_weights():
    st = prepare_state("three_qubit_P", 5.0, 2 / 3)
    eta = math.sqrt(2 / 3)
    peak = math.sqrt(2) * eta * 5.0 * math.sin(math.pi / 3)
    # peak heights: weight / sqrt(pi) at the centers (neighbor tails negligible)
    heights = outcome_density(st, "P", np.array([0.0, peak, -peak]))
    assert abs(heights[0] - 0.25 / math.sqrt(math.pi)) < 1e-10
    assert abs(heights[1] - 0.375 / math.sqrt(math.pi)) < 1e-10
    assert abs(heights[2] - 0.375 / math.sqrt(math.pi)) < 1e-10


def test_density_cdf_matches_quadrature():
    st = prepare_state("two_qubit_X", 1.5, 0.9)
    lo, _ = integration_window(st, "X")
    for v in (-1.0, 0.3, 2.0):
        direct = adaptive_simpson(
            lambda u: outcome_density(st, "X", np.array([u]))[0], lo, v, 1e-11)
        assert abs(density_cdf(st, "X", v) - direct) < 1e-9


# --- decision rules ------------------------------------------------------------

def test_two_qubit_rule():
    rule = build_decision_rule("two_qubit_X", 2.0, 1.0)
    assert rule.quadrature == "X"
    assert rule.thresholds == (0.0,)
    lower, upper = rule.classes
    assert (lower.parity, lower.target_name) == (0, "Bell-phi+")
    assert (upper.parity, upper.target_name) == (1, "Bell-psi+")


def test_three_qubit_rule_midpoints():
    rule = build_decision_rule("three_qubit_P", 5.0, 1.0)
    want = math.sqrt(6) * 5.0 / 4.0
    assert np.allclose(rule.thresholds, (-want, want))
    names = [c.target_name for c in rule.classes]
    assert names == ["Dicke(3,2)", "GHZ(3)", "W(3)"]
    assert [c.parity for c in rule.classes] == [2, 0, 1]


def test_three_qubit_rule_eta_scaled():
    eta = math.sqrt(2 / 3)
    rule = build_decision_rule("three_qubit_P", 5.0, eta)
    assert abs(rule.thresholds[1] - math.sqrt(6) * eta * 5.0 / 4.0) < 1e-12


def test_gsum_rule_midpoint():
    rule = build_decision_rule("gsum_X", 3.0, 1.0)
    assert len(rule.thresholds) == 1
    assert abs(rule.thresholds[0] + math.sqrt(2) * 3.0 / 4.0) < 1e-12
    assert rule.classes[0].target_name == "GHZ(3)"
    assert rule.classes[1].target_name == "Gprime(3,1)"
    assert rule.classes[1].parity == "1|2"


def test_n_qubit_rule_five():
    rule = build_decision_rule("n_qubit_P", 6.0, 1.0, n=5)
    assert len(rule.thresholds) == 4
    names = [c.target_name for c in rule.classes]
    assert names == ["Dicke(5,4)", "Dicke(5,3)", "GHZ(5)", "Dicke(5,2)", "W(5)"]


def test_n_qubit_rule_merges_balanced_dicke():
    rule = build_decision_rule("n_qubit_P", 3.0, 1.0, n=4)
    merged = [c for c in rule.classes if c.needs_x_gate]
    assert len(merged) == 1
    assert merged[0].weights == (0, 2, 4)
    assert merged[0].parity == "0|2"
    assert merged[0].target_name == "GHZ(4)|Dicke(4,2)"


def test_n_qubit_rule_six_pairs_mirror_weights():
    # on P, weights k and j share a mean when k + j = n/2 or 3n/2
    rule = build_decision_rule("n_qubit_P", 3.0, 1.0, n=6)
    assert [c.parity for c in rule.classes] == ["4|5", "0|3", "1|2"]
    assert [c.target_name for c in rule.classes] == [
        "Dicke(6,4)|Dicke(6,5)", "GHZ(6)|Dicke(6,3)", "W(6)|Dicke(6,2)"]
    assert [c.weights for c in rule.classes] == [(4, 5), (0, 3, 6), (1, 2)]
    assert all(c.needs_x_gate for c in rule.classes)
    # the two labels of a bin carry opposite zeta phases
    ghz = rule.classes[1]
    assert dict(zip(ghz.weights, ghz.phase_signs)) == {0: 1, 3: -1, 6: 1}


def test_rule_every_n_and_pipeline_invariants():
    for n in range(2, 21):
        rule = build_decision_rule("n_qubit_P", 3.0, 0.8, n=n)
        covered = sorted(k for c in rule.classes for k in c.weights)
        assert covered == list(range(n + 1)), n
        assert sum(c.size for c in rule.classes) == 2**n, n
        run = run_scenario("n_qubit_P", 3.0, 2 / 3, gamma=0.2, n=n)
        total = sum(r.success_prob for r in run.results)
        assert abs(total - 1.0) < 1e-9, n
        assert all(0.0 <= r.fidelity <= 1.0 for r in run.results), n


def test_rule_degenerate_cases():
    with pytest.raises(DegenerateRuleError):
        build_decision_rule("three_qubit_P", 4.0, 0.0)   # opaque channel
    with pytest.raises(DegenerateRuleError):
        build_decision_rule("n_qubit_P", 4.0, 0.0, n=2)
    with pytest.raises(ValueError):
        build_decision_rule("two_qubit_X", 0.0, 1.0)
    with pytest.raises(ValueError):
        build_decision_rule("n_qubit_P", 1.0, 1.0)       # missing n
    with pytest.raises(ValueError):
        build_decision_rule("n_qubit_P", 1.0, 1.0, n=21)
    for alpha in (math.inf, math.nan):           # not a numerical failure
        with pytest.raises(ValueError, match="finite"):
            build_decision_rule("two_qubit", alpha)
    with pytest.raises(ValueError, match="finite"):
        run_scenario("gsum", math.inf, 1.0)
    for alpha in (math.inf, math.nan):           # the state alone, likewise
        with pytest.raises(ValueError, match="finite"):
            prepare_state("gsum", alpha, 1.0)


@pytest.mark.parametrize("scenario, n", [
    ("two_qubit", None), ("three_qubit", None), ("gsum", None)]
    + [("n_qubit", n) for n in (5, 6, 8, 20)])
def test_rules_are_values(scenario, n):
    rule = build_decision_rule(scenario, 3.0, 0.8, n=n)
    assert rule == build_decision_rule(scenario, 3.0, 0.8, n=n)
    assert pickle.loads(pickle.dumps(rule)) == rule


def test_classify_examples():
    rule2 = build_decision_rule("two_qubit_X", 2.0, 1.0)
    rule3 = build_decision_rule("three_qubit_P", 5.0, 1.0)
    cases = [(rule2, 0.7, 1, "Bell-psi+"),
             (rule2, 0.0, 1, "Bell-psi+"),                # tie -> upper interval
             (rule2, -0.3, 0, "Bell-phi+"),
             (rule3, 0.0, 0, "GHZ(3)")]
    for rule, v, parity, name in cases:
        cls = rule.classes[rule.class_indices(np.array([v]))[0]]
        assert (cls.parity, target_at(rule, cls, v).name) == (parity, name)


def test_classify_merged_class_sets_flag():
    rule = build_decision_rule("n_qubit_P", 3.0, 1.0, n=4)
    cls = rule.classes[rule.class_indices(np.array([0.0]))[0]]
    assert target_at(rule, cls, 0.0).needs_x_gate


# --- sampling --------------------------------------------------------------------

def test_sampler_single_branch_mean():
    st = prepare_state("two_qubit_X", 2.0, 1.0)
    # collapse to one branch by sampling a state whose branches share a mean:
    # use the vacuum pulse instead (all means zero)
    st0 = prepare_state("two_qubit_X", 0.0, 1.0)
    draws = sample_outcomes(st0, "X", 100_000, 17)
    sigma = 1 / math.sqrt(2)
    assert abs(draws.mean()) < 3 * sigma / math.sqrt(100_000) * 1.5
    assert abs(draws.std() - sigma) < 0.01


def test_sampler_two_qubit_split_is_half():
    st = prepare_state("two_qubit_X", 2.0, 2 / 3)
    n = 100_000
    draws = sample_outcomes(st, "X", n, 23)
    frac = np.count_nonzero(draws >= 0.0) / n
    assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / n)


def test_sampler_reproducible():
    st = prepare_state("three_qubit_P", 4.0, 1.0)
    a = sample_outcomes(st, "P", 512, 99)
    b = sample_outcomes(st, "P", 512, 99)
    assert np.array_equal(a, b)


def test_sampler_rejects_zero_trials():
    st = prepare_state("two_qubit_X", 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_outcomes(st, "X", 0, 1)
    for start, stop in ((-1, 4), (4, 4), (5, 4), (0, 11)):
        with pytest.raises(ValueError, match="trial range"):
            sample_outcomes(st, "X", 10, 1, start, stop)


# --- conditional state -------------------------------------------------------------

def test_conditional_state_pure_when_env_labels_equal():
    st = dense_state("three_qubit_P", 3.0, 2 / 3)     # lumped loss only
    rho = conditional_atomic_state(st, "P", 1.0)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert abs(np.real(np.trace(rho @ rho)) - 1.0) < 1e-9


def test_conditional_state_hermitian_positive():
    st = dense_state("three_qubit_P", 2.0, 0.7, gamma=0.3)
    rho = conditional_atomic_state(st, "P", 0.5)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_conditional_state_dominant_gaussian_limit():
    st = dense_state("two_qubit_X", 2.0, 1.0)
    rho = conditional_atomic_state(st, "X", math.sqrt(2) * 2.0 + 3.5)
    psi = make_target("Bell-psi+").amps
    assert np.real(psi.conj() @ rho @ psi) > 1.0 - 1e-9


def test_conditional_state_ghz_weight_at_center():
    st = dense_state("three_qubit_P", 5.0, 1.0)
    rho = conditional_atomic_state(st, "P", 0.0)
    ghz = make_target("GHZ", 3).amps
    f = np.real(ghz.conj() @ rho @ ghz)
    # at p = 0 the W/D peaks sit sqrt(6)a/2 away; their leak is ~exp(-37)
    assert f > 1.0 - 1e-12


def test_conditional_state_gsum_form():
    v = 1.1
    rho = conditional_atomic_state(dense_state("gsum_X", 2.0, 1.0), "X", v)
    zeta = 2.0 * math.sin(math.pi / 3) * (v - 2 * 2.0 * math.cos(math.pi / 3))
    t = make_target("Gprime", 3, 1, phase=zeta)
    overlap = np.real(t.amps.conj() @ rho @ t.amps)
    assert overlap > 0.999        # only GHZ-tail leakage is missing


def test_conditional_state_degenerate_outcome():
    st = dense_state("two_qubit_X", 1.0, 1.0)
    with pytest.raises(DegenerateOutcomeError):
        conditional_atomic_state(st, "X", 60.0)


def test_zeta_convention_irrelevant_for_two_qubit_fidelity():
    st = dense_state("two_qubit_X", 1.5, 2 / 3)
    psi = make_target("Bell-psi+").amps
    for v in (0.2, 1.0, 2.4):
        with_phase = conditional_atomic_state(st, "X", v, include_phase=True)
        without = conditional_atomic_state(st, "X", v, include_phase=False)
        fa = np.real(psi.conj() @ with_phase @ psi)
        fb = np.real(psi.conj() @ without @ psi)
        assert abs(fa - fb) < 1e-12


def test_target_overlap_density_matches_dense_route():
    run = run_scenario("three_qubit_P", 3.0, 0.8)
    dense_st = dense_state("three_qubit_P", 3.0, 0.8)
    cls = run.rule.classes[1]        # GHZ bin
    vs = np.array([-0.5, 0.0, 1.2])
    got = class_overlap_integrand(run.state, "P", cls)(vs)
    for v, g in zip(vs, got):
        dense = conditional_atomic_state(dense_st, "P", v)
        t = target_at(run.rule, cls, v)
        want = np.real(t.amps.conj() @ dense @ t.amps) * outcome_density(
            run.state, "P", np.array([v]))[0]
        assert abs(g - want) < 1e-12


def test_density_components_sum_to_total():
    run = run_scenario("gsum_X", 2.2, 0.9)
    vs = np.linspace(*integration_window(run.state, "X"), 201)
    comps = density_components(run.state, run.rule, vs)
    total = outcome_density(run.state, "X", vs)
    assert np.max(np.abs(sum(comps) - total)) < 1e-12


def test_conditional_state_dense_cap():
    st = dense_state("n_qubit_P", 1.0, 1.0, n=11)
    with pytest.raises(ValueError):
        conditional_atomic_state(st, "P", 0.0)


def test_vectorized_class_lookup_matches_scalar():
    rule = build_decision_rule("three_qubit_P", 4.0, 0.8)
    vs = np.linspace(-8, 8, 101)
    vec = rule.class_indices(vs)
    for v, i in zip(vs, vec):
        assert bisect_right(rule.thresholds, float(v)) == i
    for j, t in enumerate(rule.thresholds):           # tie -> upper interval
        assert rule.class_indices(np.array([t]))[0] == j + 1


def test_class_indices_match_searchsorted():
    rng = np.random.default_rng(41)
    configs = [(name, None) for name, row in SCENARIOS.items()
               if row[2] == row[3]] + [("n_qubit_P", n) for n in range(2, 21)]
    for scenario, n in configs:
        rule = build_decision_rule(scenario, 3.0, 0.9, n=n)
        t = np.asarray(rule.thresholds)    # empty for n_qubit_P at n = 2
        lo, hi = (t[0], t[-1]) if len(t) else (0.0, 0.0)
        vs = np.concatenate([rng.uniform(lo - 3.0, hi + 3.0, 1000), t,
                             np.nextafter(t, -np.inf), np.nextafter(t, np.inf)])
        got = rule.class_indices(vs)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.searchsorted(t, vs, side="right"))
        # NaN compares false with every threshold: the lowest class
        assert rule.class_indices(np.array([np.nan]))[0] == 0


def test_outcome_density_matches_broadcast_form():
    for scenario, n in (("gsum_X", None), ("n_qubit_P", 6)):
        st = prepare_state(scenario, 2.5, 0.8, 0.2, n)
        axis = resolve_scenario(scenario, n)[2]
        vs = np.linspace(*integration_window(st, axis), 2001)
        assert np.array_equal(outcome_density(st, axis, vs),
                              mixture_density(st, axis, vs))


def test_integrand_point_has_the_same_bits_in_any_array():
    # a point's density or overlap alone, in a reversed array and inside
    # one mixed batch of every integrand: the same bits (a BLAS weight sum
    # may round a point differently in another array).  n = 20 sums 21
    # weights; n = 6 has three-weight bins; gsum has two-label phases.
    rows, single, grids = [], [], []
    for scenario, n in (("gsum_X", None), ("n_qubit_P", 6), ("n_qubit_P", 20)):
        st = prepare_state(scenario, 2.5, 0.8, 0.2, n)
        rule = build_decision_rule(scenario, 2.5, math.sqrt(0.8), n=n)
        axis = rule.quadrature
        vs = np.linspace(*integration_window(st, axis), 37)
        rows += [density_integrand(st, axis)] + [
            overlap_integrand(st, axis, cls) for cls in rule.classes]
        single += [lambda v, st=st, axis=axis: outcome_density(st, axis, v)]
        single += [class_overlap_integrand(st, axis, cls)
                   for cls in rule.classes]
        grids += [vs] * (1 + len(rule.classes))
    batch = integrands(rows)
    which = np.repeat(np.arange(len(rows)), [vs.size for vs in grids])
    order = np.random.default_rng(7).permutation(which.size)
    mixed = np.empty(which.size)
    mixed[order] = batch(np.concatenate(grids)[order], which[order])
    lo = 0
    for f, vs in zip(single, grids):
        alone = np.array([f(vs[j:j + 1])[0] for j in range(vs.size)])
        assert np.array_equal(f(vs), alone)
        assert np.array_equal(f(vs[::-1].copy())[::-1], alone)
        assert np.array_equal(mixed[lo:lo + vs.size], alone)
        lo += vs.size


@pytest.mark.parametrize("scenario, n", [
    ("two_qubit_X", None), ("three_qubit_P", None), ("gsum_X", None),
    ("n_qubit_P", 5), ("n_qubit_P", 6), ("n_qubit_P", 12)])
def test_real_overlap_matches_complex_form(scenario, n):
    # n = 6 has three-weight bins; gsum and gamma > 0 give two-label phases
    # alpha up to MAX_ALPHA: a pair written as one Gaussian at the midpoint
    # of its means fails from 1e3
    for alpha in (0.5, 3.0, 20.0, 100.0, 1e3, 1e4):
        for gamma in (0.0, 0.2, 0.5, 1e3):
            st = prepare_state(scenario, alpha, 0.8, gamma, n)
            rule = build_decision_rule(scenario, alpha, math.sqrt(0.8), n=n)
            vs = np.linspace(*integration_window(st, rule.quadrature), 2001)
            for cls in rule.classes:
                got = class_overlap_integrand(st, rule.quadrature, cls)(vs)
                want = complex_overlap_integrand(st, rule.quadrature, cls)(vs)
                # relative to the terms' size; the floor covers the tails,
                # where both forms fall to subnormal numbers
                bound = (1e-12 * overlap_scale(st, rule.quadrature, cls, vs)
                         + np.finfo(float).tiny)
                assert np.all(np.abs(got - want) <= bound), (
                    alpha, gamma, cls.target_name)


def test_batched_rows_equal_per_bin_rows():
    # every scenario; n_qubit_P n in {2, 5, 9, 13, 20}; alpha up to
    # MAX_ALPHA and gamma from lossless to nearly opaque.  States of
    # different n and axes share mixed batches of one to five; each row,
    # a full density, a bin's overlap or a bin's own density, must have
    # the bits of its row built alone.
    specs = []
    for scenario, n in [("two_qubit_X", None), ("three_qubit_P", None),
                        ("gsum_X", None)] + [("n_qubit_P", n)
                                             for n in (2, 5, 9, 13, 20)]:
        for alpha in (0.3, 3.0, 50.0, MAX_ALPHA):
            try:
                rule = build_decision_rule(scenario, alpha, 0.8, n=n)
            except DegenerateRuleError:
                continue
            for gamma in (0.0, 0.2, 1e3):
                st = prepare_state(scenario, alpha, 0.64, gamma, n)
                q = rule.quadrature
                parts = [tuple(range(st.n + 1))]
                want = [density_row_per_bin(st, q, parts[0])]
                for cls in rule.classes:
                    parts += [cls, cls.weights]
                    want += [overlap_row_per_bin(st, q, cls),
                             density_row_per_bin(st, q, cls.weights)]
                specs.append(((st, q, parts), want))
    rng = np.random.default_rng(5)
    order = rng.permutation(len(specs))
    cuts = np.cumsum(rng.integers(1, 6, size=len(specs)))
    for batch in np.split(order, cuts[cuts < len(specs)]):
        rows = integrand_rows([specs[i][0] for i in batch])
        want = [row for i in batch for row in specs[i][1]]
        assert len(rows) == len(want)
        for got, row in zip(rows, want):
            assert same_bits(got[0], row[0]) and same_bits(got[1], row[1])
    for (st, q, parts), want in specs:          # the batch-of-one routes
        for part, row in zip(parts, want):
            got = (overlap_integrand(st, q, part)
                   if isinstance(part, OutcomeClass)
                   else density_integrand(st, q, part))
            assert same_bits(got[0], row[0]) and same_bits(got[1], row[1])
