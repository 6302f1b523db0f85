"""Entanglement distribution through atom-cavity parity gates.

A coherent pulse bounces off a chain of single-atom cavities, picking up an
atom-conditioned phase at each node; homodyne detection of the final pulse
projects the atoms into GHZ / W / Dicke / summed-Dicke states.  Every branch
of Hamming weight k carries the same pulse label, so the package holds the
joint state per weight sector (hybrid_state.SectorState: n + 1 labels and an
(n+1) x (n+1) environment coherence matrix, built by a dynamic program over
the nodes), evaluates bin probabilities and fidelities in closed form and by
adaptive quadrature, and cross-checks them by seeded Monte Carlo sampling.

Quadrature is adaptive Simpson over a batch of integrals, one integrand
call per level (numerics.integrate_piecewise, homodyne.integrands); a sweep
builds the states and integrand rows of a block of points in one array pass
each.  Closed forms wait on re-made references (notes/decisions.md).
Cross-check routes, the dense 2^n state among them, are in tests/oracles.py.

A result that does not exist has one rule per layer: a pulse that
resolves no bins raises DegenerateRuleError (a ValueError, exit 2 at the
CLI), and a bin whose success probability vanishes reports fidelity NaN.
"""

__version__ = "0.1.0"

from .cavity import (CavityParams, ReflectionPair, reflection_coefficient,
                     reflection_pair, solve_params_for_phase)
from .errors import (DegenerateRuleError, SimulationError,
                     SingularParametersError)
from .homodyne import (SCENARIOS, DecisionRule, OutcomeClass,
                       build_decision_rule, integrand_rows, outcome_density,
                       resolve_scenario, sample_outcomes)
from .hybrid_state import SectorState, sector_state, sector_states
from .metrics import (ClassResult, ScenarioRun, SweepPoint,
                      closed_form_two_qubit, monte_carlo_estimate,
                      run_scenario, sweep)
from .numerics import erfc

__all__ = [name for name in dir() if not name.startswith("_")]
