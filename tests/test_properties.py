"""Property tests: every legal configuration ends in a result.

Configurations are drawn over the legal range: every scenario, n over its
range, alpha log-uniform in [1e-3, MAX_ALPHA] or in [1e-8, 2.5e-8], eta^2
in [0.01, 1] and gamma either 0 or log-uniform in [1e-2, 1e3].  The second
alpha range puts a = eta alpha between 1e-9 and 2.5e-8, above the "no
resolvable bins" cut (about 5e-10) and where a float tolerance of 1e-9
on the means would merge P-axis bins.  The command-line property runs
`cli.main` up to both bounds, MAX_ALPHA and MAX_GAMMA.  Derandomized with
no example database, so the draws are the same on every run.  The whole
file stays within a 10 s budget.
"""

import contextlib
import io
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpsim import cli
from hpsim.cavity import MAX_GAMMA
from hpsim.homodyne import SCENARIOS, build_decision_rule
from hpsim.hybrid_state import MAX_ALPHA
from hpsim.metrics import monte_carlo_estimate, prepare_state, run_scenario
from oracles import interval_probability

MC_TRIALS = 20_000
ALPHAS = st.one_of(st.floats(-3.0, math.log10(MAX_ALPHA)),
                   st.floats(-8.0, math.log10(2.5e-8))).map(lambda e: 10.0 ** e)


@st.composite
def configurations(draw):
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    _, _, n_min, n_max = SCENARIOS[scenario]
    n = draw(st.integers(n_min, n_max))
    alpha = draw(ALPHAS)
    eta_sq = draw(st.floats(0.01, 1.0))
    gamma = draw(st.one_of(st.just(0.0),
                           st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e)))
    return scenario, n, alpha, eta_sq, gamma


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(configurations())
def test_every_configuration_gives_a_result(config):
    scenario, n, alpha, eta_sq, gamma = config
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = run_scenario(scenario, alpha, eta_sq, gamma=gamma, n=n)
    # a bin is the weights of one or two residues k mod n, at every a
    assert all(len({k % run.rule.n for k in cls.weights}) <= 2
               for cls in run.rule.classes)
    for res in run.results:
        if res.success_prob < 1e-12:
            assert math.isnan(res.fidelity), (res.target_name, res.success_prob)
        else:
            assert -1e-9 <= res.fidelity <= 1.0 + 1e-9, (res.target_name,
                                                          res.fidelity)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(configurations(), st.integers(0, 2**64 - 1))
def test_monte_carlo_hits_agree_with_closed_form(config, seed):
    # normal bound where the binomial variance N p (1 - p) is at least 25
    scenario, n, alpha, eta_sq, gamma = config
    rule = build_decision_rule(scenario, math.sqrt(eta_sq) * alpha, n=n)
    state = prepare_state(scenario, alpha, eta_sq, gamma, n)
    mc = monte_carlo_estimate(state, rule, MC_TRIALS, seed)
    edges = (-math.inf, *rule.thresholds, math.inf)
    for lo, hi, res in zip(edges, edges[1:], mc):
        p = interval_probability(state, rule.quadrature, lo, hi)
        var = MC_TRIALS * p * (1.0 - p)
        if var >= 25.0:
            hits = res.success_prob * MC_TRIALS
            assert abs(hits - MC_TRIALS * p) <= 5.0 * math.sqrt(var), (
                res.target_name, hits, MC_TRIALS * p)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(configurations(), st.integers(0, 2**64 - 1))
def test_monte_carlo_fidelity_within_its_standard_error(config, seed):
    # The MC fidelity is the mean of ratios r in [0, 1] over a bin's hits h.
    # A normal bound holds where h >= 100 and, as for the hit counts, the
    # Bernoulli variance h F (1 - F) is at least 25: where 1 - F comes from
    # outcomes that h draws rarely reach (a neighbour's far tail), the
    # sample misses them and its standard error cannot see them.
    scenario, n, alpha, eta_sq, gamma = config
    run = run_scenario(scenario, alpha, eta_sq, gamma=gamma, n=n,
                       trials=MC_TRIALS, seed=seed)
    for quad, mc in zip(run.results, run.mc_results):
        hits = mc.success_prob * MC_TRIALS
        if hits >= 100 and hits * quad.fidelity * (1.0 - quad.fidelity) >= 25:
            assert abs(mc.fidelity - quad.fidelity) <= (
                5.0 * mc.fidelity_stderr + 1e-8), (
                mc.target_name, mc.fidelity, quad.fidelity, mc.fidelity_stderr)


@st.composite
def command_lines(draw):
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    _, _, n_min, n_max = SCENARIOS[scenario]
    n = draw(st.integers(n_min, n_max))
    alpha = draw(ALPHAS)
    eta_sq = draw(st.floats(0.0, 1.0, exclude_min=True))
    gamma = draw(st.one_of(st.just(0.0), st.floats(
        -2.0, math.log10(MAX_GAMMA)).map(lambda e: 10.0 ** e)))
    command = draw(st.sampled_from([("simulate", "--trials", "0"),
                                    ("simulate", "--trials", "3000"),
                                    ("density", "--points", "51")]))
    return (*command, "--scenario", scenario, "--n", str(n), "--alpha",
            repr(alpha), "--eta-sq", repr(eta_sq), "--gamma", repr(gamma))


def _at_bounds(command, scenario, n):
    return (*command, "--scenario", scenario, "--n", str(n), "--alpha",
            repr(MAX_ALPHA), "--eta-sq", "1.0", "--gamma", repr(MAX_GAMMA))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(command_lines())
@example(_at_bounds(("simulate", "--trials", "3000"), "gsum_X", 3))
@example(_at_bounds(("simulate", "--trials", "3000"), "n_qubit_P", 20))
@example(_at_bounds(("density", "--points", "51"), "three_qubit_P", 3))
@example(_at_bounds(("density", "--points", "51"), "two_qubit_X", 2))
def test_every_command_line_exits_0_or_2(argv):
    # no legal command line reaches exit 3 or a numpy warning; an error is
    # exactly one line
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(list(argv))
    err = err.getvalue()
    assert code in (0, 2), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert err.startswith("hpsim: error: "), (argv, err)
        assert err.count("\n") == 1, (argv, err)
