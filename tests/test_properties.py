"""Property tests: every legal configuration ends in a result.

Configurations are drawn over the whole legal range: every scenario, n over
its range, alpha log-uniform in [1e-3, 1e3], eta^2 in [0.01, 1] and gamma
either 0 or log-uniform in [1e-2, 1e3].  Derandomized with no example
database, so the draws are the same on every run.
"""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from hpsim.homodyne import SCENARIOS
from hpsim.metrics import run_scenario


@st.composite
def configurations(draw):
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    _, _, n_min, n_max = SCENARIOS[scenario]
    n = draw(st.integers(n_min, n_max))
    alpha = 10.0 ** draw(st.floats(-3.0, 3.0))
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
    for res in run.results:
        if res.success_prob < 1e-12:
            assert math.isnan(res.fidelity), (res.target_name, res.success_prob)
        else:
            assert -1e-9 <= res.fidelity <= 1.0 + 1e-9, (res.target_name,
                                                          res.fidelity)
