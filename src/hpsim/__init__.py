"""Entanglement distribution through atom-cavity parity gates.

A coherent pulse bounces off a chain of single-atom cavities, picking up an
atom-conditioned phase at each node; homodyne detection of the final pulse
projects the atoms into GHZ / W / Dicke / summed-Dicke states.  Every branch
of Hamming weight k carries the same pulse label, so the package holds the
joint state per weight sector (hybrid_state.SectorState: n + 1 labels and an
(n+1) x (n+1) environment coherence matrix, built by a dynamic program over
the nodes), evaluates bin probabilities and fidelities in closed form and by
adaptive quadrature, and cross-checks them by seeded Monte Carlo sampling.

Quadrature is adaptive Simpson refining a batch of integrals level by
level (numerics.integrate_piecewise, called once per state by
metrics.evaluate_classes: every bin's probability and every bin's fidelity
numerator), one array call per integrand per level.  It
is not yet replaced by closed forms (erfc for the bin probabilities, the
Faddeeva function w(z) from the same Weideman formula for the fidelity
numerators) because the benchmark's stored reference outputs carry
Simpson's own error, up to 1.4e-9, beyond their 1e-9 gate
(notes/decisions.md).  Independent cross-check routes, the dense 2^n
branch state among them, live in tests/oracles.py.

A result that does not exist is decided once per level: a pulse that
resolves no bins raises DegenerateRuleError (a ValueError, exit 2 at the
CLI), and a bin whose success probability vanishes reports fidelity NaN.
"""

__version__ = "0.1.0"

from .cavity import (CavityParams, ReflectionPair, reflection_coefficient,
                     reflection_pair, solve_params_for_phase)
from .errors import (DegenerateRuleError, SimulationError,
                     SingularParametersError)
from .homodyne import (SCENARIOS, DecisionRule, OutcomeClass,
                       build_decision_rule, outcome_density, resolve_scenario,
                       sample_outcomes)
from .hybrid_state import SectorState, sector_state
from .metrics import (ClassResult, ScenarioRun, SweepPoint,
                      closed_form_two_qubit, monte_carlo_estimate,
                      run_scenario, sweep)
from .numerics import erfc

__all__ = [name for name in dir() if not name.startswith("_")]
