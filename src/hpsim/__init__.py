"""Entanglement distribution through atom-cavity parity gates.

A coherent pulse bounces off a chain of single-atom cavities, picking up an
atom-conditioned phase at each node; homodyne detection of the final pulse
projects the atoms into GHZ / W / Dicke / summed-Dicke states.  The package
tracks the exact branch form of the joint state, evaluates bin probabilities
and fidelities in closed form and by adaptive quadrature, and cross-checks
them by seeded Monte Carlo sampling.
"""

__version__ = "0.1.0"

from .cavity import (CavityParams, ReflectionPair, coupling_at_position,
                     reflection_coefficient, reflection_pair,
                     solve_params_for_phase, steady_state_oracle)
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
from .numerics import adaptive_simpson, erfc

__all__ = [name for name in dir() if not name.startswith("_")]
