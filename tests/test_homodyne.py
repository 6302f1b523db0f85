import math
import pickle
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest

from hpsim import homodyne
from hpsim.cavity import ReflectionPair
from hpsim.errors import DegenerateRuleError
from hpsim.homodyne import (SCENARIOS, OutcomeClass, _zeta_coefficients,
                            build_decision_rule, class_overlap_integrand,
                            density_components, integrands, integration_window,
                            outcome_density, quadrature_mean, resolve_scenario,
                            sample_outcomes)
from hpsim.hybrid_state import MAX_ALPHA, sector_states
from hpsim.metrics import (closed_form_two_qubit, prepare_state,
                           pulse_amplitude, run_scenario)
from oracles import (DegenerateOutcomeError, adaptive_simpson,
                     build_decision_rule_tol, complex_overlap_integrand,
                     conditional_atomic_state, density_cdf,
                     density_row_per_bin, dense_state,
                     make_target, mixture_density, overlap_row_per_bin,
                     overlap_scale, quadrature_wavefunction,
                     row_values_per_bin, same_bits, sample_outcomes_v1,
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
    rule = build_decision_rule("two_qubit_X", 2.0)
    assert rule.quadrature == "X"
    assert rule.thresholds == (0.0,)
    lower, upper = rule.classes
    assert (lower.parity, lower.target_name) == (0, "Bell-phi+")
    assert (upper.parity, upper.target_name) == (1, "Bell-psi+")


def test_three_qubit_rule_midpoints():
    rule = build_decision_rule("three_qubit_P", 5.0)
    want = math.sqrt(6) * 5.0 / 4.0
    assert np.allclose(rule.thresholds, (-want, want))
    names = [c.target_name for c in rule.classes]
    assert names == ["Dicke(3,2)", "GHZ(3)", "W(3)"]
    assert [c.parity for c in rule.classes] == [2, 0, 1]


def test_three_qubit_rule_eta_scaled():
    eta = math.sqrt(2 / 3)
    rule = build_decision_rule("three_qubit_P", eta * 5.0)
    assert abs(rule.thresholds[1] - math.sqrt(6) * eta * 5.0 / 4.0) < 1e-12


def test_gsum_rule_midpoint():
    rule = build_decision_rule("gsum_X", 3.0)
    assert len(rule.thresholds) == 1
    assert abs(rule.thresholds[0] + math.sqrt(2) * 3.0 / 4.0) < 1e-12
    assert rule.classes[0].target_name == "GHZ(3)"
    assert rule.classes[1].target_name == "Gprime(3,1)"
    assert rule.classes[1].parity == "1|2"


def test_n_qubit_rule_five():
    rule = build_decision_rule("n_qubit_P", 6.0, n=5)
    assert len(rule.thresholds) == 4
    names = [c.target_name for c in rule.classes]
    assert names == ["Dicke(5,4)", "Dicke(5,3)", "GHZ(5)", "Dicke(5,2)", "W(5)"]


def test_n_qubit_rule_merges_balanced_dicke():
    rule = build_decision_rule("n_qubit_P", 3.0, n=4)
    merged = [c for c in rule.classes if c.needs_x_gate]
    assert len(merged) == 1
    assert merged[0].weights == (0, 2, 4)
    assert merged[0].parity == "0|2"
    assert merged[0].target_name == "GHZ(4)|Dicke(4,2)"


def test_n_qubit_rule_six_pairs_mirror_weights():
    # on P, weights k and j share a mean when k + j = n/2 or 3n/2
    rule = build_decision_rule("n_qubit_P", 3.0, n=6)
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
        rule = build_decision_rule("n_qubit_P", 0.8 * 3.0, n=n)
        covered = sorted(k for c in rule.classes for k in c.weights)
        assert covered == list(range(n + 1)), n
        assert sum(c.size for c in rule.classes) == 2**n, n
        run = run_scenario("n_qubit_P", 3.0, 2 / 3, gamma=0.2, n=n)
        total = sum(r.success_prob for r in run.results)
        assert abs(total - 1.0) < 1e-9, n
        assert all(0.0 <= r.fidelity <= 1.0 for r in run.results), n


def test_rule_degenerate_cases():
    with pytest.raises(DegenerateRuleError):
        build_decision_rule("three_qubit_P", 0.0 * 4.0)   # opaque channel
    with pytest.raises(DegenerateRuleError):
        build_decision_rule("n_qubit_P", 0.0 * 4.0, n=2)
    with pytest.raises(ValueError):
        build_decision_rule("two_qubit_X", 0.0)
    with pytest.raises(ValueError):
        build_decision_rule("n_qubit_P", 1.0)            # missing n
    with pytest.raises(ValueError):
        build_decision_rule("n_qubit_P", 1.0, n=21)
    for alpha in (math.inf, math.nan):           # not a numerical failure
        with pytest.raises(ValueError, match="finite"):
            build_decision_rule("two_qubit", alpha)
    with pytest.raises(ValueError, match="finite"):
        run_scenario("gsum", math.inf, 1.0)
    for alpha in (math.inf, math.nan):           # the state alone, likewise
        with pytest.raises(ValueError, match="finite"):
            prepare_state("gsum", alpha, 1.0)


_RULE3 = build_decision_rule("three_qubit_P", 2.0)


@pytest.mark.parametrize("call, message", [
    # a rule's and the closed form's eta come from pulse_amplitude, the
    # one home of the eta^2 check
    (lambda: build_decision_rule("two_qubit", pulse_amplitude(1.0, 1.5)),
     "eta_sq must lie in [0, 1], got 1.5"),
    (lambda: closed_form_two_qubit(pulse_amplitude(1.0, -0.1)),
     "eta_sq must lie in [0, 1], got -0.1"),
    (lambda: sector_states(0, []), "n must be at least 1, got 0"),
    (lambda: quadrature_mean(1j, "Y"),
     "quadrature must be 'X' or 'P', got 'Y'"),
    (lambda: resolve_scenario("bogus"),
     f"unknown scenario 'bogus'; choose from {tuple(SCENARIOS)}"),
    (lambda: replace(_RULE3, thresholds=_RULE3.thresholds[::-1]),
     "thresholds must be strictly increasing"),
    (lambda: replace(_RULE3, classes=_RULE3.classes[:-1]),
     "classes must be one more than thresholds"),
], ids=["eta", "closed_form_eta", "sector_n", "quadrature", "scenario",
        "decreasing_thresholds", "missing_class"])
def test_library_input_checks(call, message):
    # checks that only library callers reach: the CLI's choices and its own
    # flag checks stop these inputs before them
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# every scenario and n: the 22 rules a command line can ask for
RULE_CASES = [("two_qubit_X", None), ("three_qubit_P", None),
              ("gsum_X", None)] + [("n_qubit_P", n) for n in range(2, 21)]


def first_resolvable(scenario, n):
    """The amplitude below which a pulse resolves no bins (README):
    1e-9 / max_k |e^{i theta_k} - e^{i theta_0}|, about 5e-10 to 6e-10."""
    _, n, _ = resolve_scenario(scenario, n)
    return 1e-9 / max(abs(complex(math.cos(t), math.sin(t)) + 1.0) for t in
                      ((1.0 - 2.0 * k / n) * math.pi for k in range(n + 1)))


def resolves(build, scenario, a, n):
    try:
        build(scenario, a, n=n)
    except DegenerateRuleError:
        return False
    return True


def test_residue_rule_equals_tolerance_rule():
    # wherever the float tolerance of the earlier rule resolved the bins
    # (a above about 2.6e-8), the residue rule is == to it: thresholds,
    # zeta bits and names alike.  Below that the tolerance merged P-axis
    # bins, but both rules find no bins at the same amplitudes, down to
    # 1e-300 and on a fine grid around the cut.
    for scenario, n in RULE_CASES:
        for a in np.geomspace(3e-8, MAX_ALPHA, 150).tolist():
            assert build_decision_rule(scenario, a, n=n) == (
                build_decision_rule_tol(scenario, a, n=n)), (scenario, n, a)
        cut = first_resolvable(scenario, n)
        for a in [0.0, cut * (1 - 1e-9), cut * (1 + 1e-9),
                  *np.geomspace(1e-300, 1e-7, 120).tolist(),
                  *np.linspace(4e-10, 7e-10, 31).tolist()]:
            exact = resolves(build_decision_rule, scenario, a, n)
            assert exact == resolves(build_decision_rule_tol, scenario, a, n)
            assert exact == (a > cut), (scenario, n, a)


@pytest.mark.parametrize("scenario, n", RULE_CASES)
def test_rule_bins_do_not_depend_on_amplitude(scenario, n):
    # from the first resolvable amplitude up to MAX_ALPHA every bin is the
    # weights of one or two residues k mod n, with the weights, parity,
    # name, size, phase signs and X-gate flag of the rule at a = 1; the
    # earlier rule merged P-axis bins below a = 2.6e-8 (n_qubit_P n = 20 at
    # a = 3e-9, three_qubit_P at 7e-10)
    def bins(rule):
        return [(c.weights, c.parity, c.target_name, c.size, c.phase_signs,
                 c.needs_x_gate) for c in rule.classes]
    want = bins(build_decision_rule(scenario, 1.0, n=n))
    cut = first_resolvable(scenario, n)
    for a in [7e-10, 3e-9, 9.5e-9,
              *np.geomspace(cut * (1 + 1e-9), MAX_ALPHA, 80).tolist()]:
        rule = build_decision_rule(scenario, a, n=n)
        assert bins(rule) == want, (scenario, n, a)
        assert all(len({k % rule.n for k in c.weights}) <= 2
                   for c in rule.classes)
        assert all(lo < hi for lo, hi in zip(rule.thresholds,
                                             rule.thresholds[1:]))


@pytest.mark.parametrize("scenario, n", [
    ("two_qubit", None), ("three_qubit", None), ("gsum", None)]
    + [("n_qubit", n) for n in (5, 6, 8, 20)])
def test_rules_are_values(scenario, n):
    rule = build_decision_rule(scenario, 0.8 * 3.0, n=n)
    assert rule == build_decision_rule(scenario, 0.8 * 3.0, n=n)
    assert pickle.loads(pickle.dumps(rule)) == rule


def test_classify_examples():
    rule2 = build_decision_rule("two_qubit_X", 2.0)
    rule3 = build_decision_rule("three_qubit_P", 5.0)
    cases = [(rule2, 0.7, 1, "Bell-psi+"),
             (rule2, 0.0, 1, "Bell-psi+"),                # tie -> upper interval
             (rule2, -0.3, 0, "Bell-phi+"),
             (rule3, 0.0, 0, "GHZ(3)")]
    for rule, v, parity, name in cases:
        cls = rule.classes[rule.classify(np.array([v]))[0]]
        assert (cls.parity, target_at(rule, cls, v).name) == (parity, name)


def test_classify_merged_class_sets_flag():
    rule = build_decision_rule("n_qubit_P", 3.0, n=4)
    cls = rule.classes[rule.classify(np.array([0.0]))[0]]
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


@pytest.mark.parametrize("n", [2, 5, 8, 9, 13, 16, 17, 20, 32, 53])
def test_sampler_equals_frozen_sampler_byte_for_byte(n):
    # the package takes branch x as the stream word's top n bits,
    # w >> (64 - n), and np.bitwise_count for its weight; the frozen
    # sample_outcomes_v1 floors u 2^n of the uniform u and counts bits a
    # byte at a time.  n runs from one-byte indices to 53, the last n where
    # the shift equals the floor; distinct labels for every weight, so a
    # wrong branch or weight moves the mean; windows cut the 1001 trials
    # (not a multiple of 4) at both ends and inside a Philox counter step
    pair = ReflectionPair(np.exp(0.3j), 0.8 * np.exp(-0.9j))
    st = sector_states(n, [(2.0, pair)])[0]
    for q, seed in (("P", 7), ("X", 2**64 - 1)):
        for start, stop in ((0, None), (0, 1), (1, 6), (3, 700), (998, 1001),
                            (1000, 1001)):
            assert same_bits(sample_outcomes(st, q, 1001, seed, start, stop),
                             sample_outcomes_v1(st, q, 1001, seed, start, stop))


@pytest.mark.parametrize("n", [54, 65])
def test_sampler_refuses_more_than_53_nodes(n):
    # a uniform double carries 53 bits, so past n = 53 the word's top n
    # bits are not the documented floor(u 2^n) (at n = 54 they differed in
    # about half the trials) and at n = 65 the shift overflowed; refused
    # before any draw
    pair = ReflectionPair(np.exp(0.3j), 0.8 * np.exp(-0.9j))
    st = sector_states(n, [(2.0, pair)])[0]
    buffer = np.full(10, np.nan)
    with pytest.raises(ValueError, match=r"2\^53 branches, got n = " + str(n)):
        sample_outcomes(st, "X", 10, 1, out=buffer)
    assert np.isnan(buffer).all()


def test_sampler_refuses_a_wrong_out_before_any_draw():
    # one value short (which a slice-by-slice draw would fill and return),
    # one over, float32, 2-D and a strided view: each refused, and no
    # value of the buffer behind it is written
    st = prepare_state("two_qubit_X", 1.0, 1.0)
    room = np.full(20, np.nan)
    single = np.full(10, np.nan, np.float32)
    for out in (room[:9], room[:11], single, room[:10].reshape(2, 5),
                room[::2]):
        with pytest.raises(ValueError, match="out must be 10 contiguous"):
            sample_outcomes(st, "X", 10, 1, out=out)
        assert np.isnan(room).all() and np.isnan(single).all()


def _buffer_case(n):
    """A state of n nodes whose weights all have distinct labels, and bins
    with one weight, two labels (one pair term) and three weights (three)."""
    pair = ReflectionPair(np.exp(0.3j), 0.8 * np.exp(-0.9j))
    st = sector_states(n, [(2.0, pair)])[0]
    return st, [OutcomeClass(1, "one", (1,), n, (0,)),
                OutcomeClass("0|1", "two", (0, n), 2, (1, -1), (0.3, -0.7)),
                OutcomeClass("x", "three", (0, 1, n), n + 2, (1, -1, 1),
                             (-0.2, 0.5))]


@pytest.mark.parametrize("n", [2, 5, 20, 53])
def test_buffer_routes_equal_allocating_calls(n):
    # sample_outcomes, outcome_density and the overlap callables write into
    # a given out with the bits of their allocating calls: a run that
    # crosses the sampler's and the evaluator's slices, a short last
    # block, one buffer reused across two seeds (no stale value leaks
    # through) and an overlap written over its own outcomes, as Monte
    # Carlo does.  The allocating sampler keeps the frozen sampler's bits
    # across its slices.
    st, classes = _buffer_case(n)
    trials = 2 * homodyne.SLICE_POINTS + 1001
    buffer = np.full(trials, np.nan)
    for q, seed in (("P", 7), ("X", 8)):        # the same buffer, reused
        want = sample_outcomes(st, q, trials, seed)
        assert same_bits(want, sample_outcomes_v1(st, q, trials, seed))
        got = sample_outcomes(st, q, trials, seed, out=buffer)
        assert got is buffer and same_bits(got, want)
        last = sample_outcomes(st, q, trials, seed, trials - 5, trials,
                               out=buffer[:5])
        assert same_bits(last, want[-5:])
        routes = [lambda v, out=None: outcome_density(st, q, v, out=out)]
        routes += [class_overlap_integrand(st, q, cls) for cls in classes]
        for f in routes:
            expected = f(want)
            assert same_bits(f(want, out=buffer), expected)
            assert same_bits(f(want[-5:], out=buffer[:5]), expected[-5:])
            own = want.copy()
            assert same_bits(f(own, out=own), expected)


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
    rule = build_decision_rule("three_qubit_P", 0.8 * 4.0)
    vs = np.linspace(-8, 8, 101)
    vec = rule.classify(vs)
    for v, i in zip(vs, vec):
        assert bisect_right(rule.thresholds, float(v)) == i
    for j, t in enumerate(rule.thresholds):           # tie -> upper interval
        assert rule.classify(np.array([t]))[0] == j + 1


def test_class_indices_match_searchsorted():
    rng = np.random.default_rng(41)
    configs = [(name, None) for name, row in SCENARIOS.items()
               if row[2] == row[3]] + [("n_qubit_P", n) for n in range(2, 21)]
    for scenario, n in configs:
        rule = build_decision_rule(scenario, 0.9 * 3.0, n=n)
        t = np.asarray(rule.thresholds)    # empty for n_qubit_P at n = 2
        lo, hi = (t[0], t[-1]) if len(t) else (0.0, 0.0)
        vs = np.concatenate([rng.uniform(lo - 3.0, hi + 3.0, 1000), t,
                             np.nextafter(t, -np.inf), np.nextafter(t, np.inf)])
        got = rule.classify(vs)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.searchsorted(t, vs, side="right"))
        # NaN compares false with every threshold: the lowest class
        assert rule.classify(np.array([np.nan]))[0] == 0


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
    specs, single, grids = [], [], []
    for scenario, n in (("gsum_X", None), ("n_qubit_P", 6), ("n_qubit_P", 20)):
        st = prepare_state(scenario, 2.5, 0.8, 0.2, n)
        rule = build_decision_rule(scenario, math.sqrt(0.8) * 2.5, n=n)
        axis = rule.quadrature
        vs = np.linspace(*integration_window(st, axis), 37)
        specs.append((st, axis, [tuple(range(st.n + 1)), *rule.classes]))
        single += [lambda v, st=st, axis=axis: outcome_density(st, axis, v)]
        single += [class_overlap_integrand(st, axis, cls)
                   for cls in rule.classes]
        grids += [vs] * (1 + len(rule.classes))
    batch = integrands(specs)
    which = np.repeat(np.arange(len(grids)), [vs.size for vs in grids])
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


def test_long_input_is_evaluated_in_slices_with_the_same_bits(monkeypatch):
    # an evaluator cuts an input longer than SLICE_POINTS into slices of at
    # most that many points, for a density and a bin's overlap, and a mixed
    # batch read through `which` (Simpson's levels) into slices of at most
    # SLICE_POINTS // 8; the values keep their bits
    st = prepare_state("n_qubit_P", 2.5, 0.8, 0.2, 6)
    rule = build_decision_rule("n_qubit_P", math.sqrt(0.8) * 2.5, n=6)
    vs = np.linspace(*integration_window(st, "P"), 103)
    batch = integrands([(st, "P", [tuple(range(7)), *rule.classes])])
    which = np.arange(vs.size) % (1 + len(rule.classes))
    routes = [lambda v: outcome_density(st, "P", v),
              class_overlap_integrand(st, "P", rule.classes[1]),
              lambda v: batch(v, which[:v.size])]
    whole = [f(vs) for f in routes]
    sizes = []
    gaussian_sum = homodyne._gaussian_sum
    monkeypatch.setattr(homodyne, "_gaussian_sum",
                        lambda v, *args: sizes.append(v.size)
                        or gaussian_sum(v, *args))
    monkeypatch.setattr(homodyne, "SLICE_POINTS", 80)
    slices = ([80, 23], [80, 23], [10] * 10 + [3])
    for f, expected, want in zip(routes, whole, slices):
        sizes.clear()
        assert same_bits(f(vs), expected)
        assert sizes == want


def test_pair_terms_are_made_only_where_a_bin_has_a_pair(monkeypatch):
    # one `which` batch of density columns, single-weight bins (two_qubit_X,
    # three_qubit_P) and paired bins (a P-axis bin at n = 6 has three
    # weights and three pairs), read in slices where no point, every point
    # and some points have a pair: each value has its integrand's bits
    # alone, and the pair terms are made at the paired points only
    specs, alone, paired = [], [], []
    for scenario, n in (("two_qubit_X", None), ("three_qubit_P", None),
                        ("gsum_X", None), ("n_qubit_P", 6)):
        st = prepare_state(scenario, 2.5, 0.8, 0.2, n)
        rule = build_decision_rule(scenario, math.sqrt(0.8) * 2.5, n=n)
        q = rule.quadrature
        specs.append((st, q, [tuple(range(st.n + 1)), *rule.classes]))
        alone += [lambda v, st=st, q=q: outcome_density(st, q, v)]
        alone += [class_overlap_integrand(st, q, cls) for cls in rule.classes]
        paired += [False] + [len(cls.weights) > 1 for cls in rule.classes]
    assert max(len(cls.weights) for cls in specs[-1][2][1:]) == 3
    paired = np.array(paired)
    rng = np.random.default_rng(11)
    assert any(len(cls.weights) == 1 for _, _, parts in specs[:2]
               for cls in parts[1:])
    # slices of SLICE_POINTS // 8 = 10 points: none, every one, then some
    which = np.concatenate([rng.choice(np.flatnonzero(~paired), 10),
                            rng.choice(np.flatnonzero(paired), 10),
                            rng.choice(len(alone), 35)])
    v = rng.uniform(-5.0, 5.0, which.size)
    want = np.array([alone[c](v[j:j + 1])[0] for j, c in enumerate(which)])
    monkeypatch.setattr(homodyne, "SLICE_POINTS", 80)
    seen = []
    pair_sum = homodyne._pair_sum
    monkeypatch.setattr(homodyne, "_pair_sum", lambda v, *args:
                        seen.append(v.copy()) or pair_sum(v, *args))
    assert same_bits(integrands(specs)(v, which.copy()), want)
    hits = [v[lo:lo + 10][paired[which[lo:lo + 10]]]
            for lo in range(0, v.size, 10)]
    assert [h.size for h in hits[:2]] == [0, 10] and 0 < hits[2].size < 10
    hits = [h for h in hits if h.size]
    assert len(seen) == len(hits) and all(map(same_bits, seen, hits))


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
            rule = build_decision_rule(scenario, math.sqrt(0.8) * alpha, n=n)
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
    # different n and axes share mixed batches of one to five; each
    # integrand, a full density, a bin's overlap or a bin's own density,
    # must have at every outcome the bits of its row built alone and
    # summed in slot order.
    specs = []
    for scenario, n in [("two_qubit_X", None), ("three_qubit_P", None),
                        ("gsum_X", None)] + [("n_qubit_P", n)
                                             for n in (2, 5, 9, 13, 20)]:
        for alpha in (0.3, 3.0, 50.0, MAX_ALPHA):
            try:
                rule = build_decision_rule(scenario, 0.8 * alpha, n=n)
            except DegenerateRuleError:
                continue
            for gamma in (0.0, 0.2, 1e3):
                st = prepare_state(scenario, alpha, 0.64, gamma, n)
                q = rule.quadrature
                vs = np.linspace(*integration_window(st, q), 11)
                parts = [tuple(range(st.n + 1))]
                want = [density_row_per_bin(st, q, parts[0])]
                for cls in rule.classes:
                    parts += [cls, cls.weights]
                    want += [overlap_row_per_bin(st, q, cls),
                             density_row_per_bin(st, q, cls.weights)]
                want = [row_values_per_bin(row, vs) for row in want]
                specs.append(((st, q, parts), rule, vs, want))
    rng = np.random.default_rng(5)
    order = rng.permutation(len(specs))
    cuts = np.cumsum(rng.integers(1, 6, size=len(specs)))
    for batch in np.split(order, cuts[cuts < len(specs)]):
        f = integrands([specs[i][0] for i in batch])
        grids = [specs[i][2] for i in batch for _ in specs[i][3]]
        which = np.repeat(np.arange(len(grids)), [vs.size for vs in grids])
        want = np.concatenate([row for i in batch for row in specs[i][3]])
        assert same_bits(f(np.concatenate(grids), which), want)
    for (st, q, _), rule, vs, want in specs:    # the batch-of-one routes
        assert same_bits(outcome_density(st, q, vs), want[0])
        for cls, overlap, density in zip(rule.classes, want[1::2],
                                         want[2::2]):
            assert same_bits(class_overlap_integrand(st, q, cls)(vs), overlap)
            assert same_bits(integrands([(st, q, [cls.weights])])(vs), density)
        assert all(same_bits(got, density) for got, density in zip(
            density_components(st, rule, vs), want[2::2]))
