"""Entanglement distribution through atom-cavity parity gates.

A coherent pulse bounces off a chain of single-atom cavities, picking up an
atom-conditioned phase at each node; homodyne detection of the final pulse
projects the atoms into GHZ / W / Dicke / summed-Dicke states.  Every branch
of Hamming weight k carries the same pulse label, so the package holds the
joint state per weight sector (hybrid_state.SectorState: n + 1 labels and an
(n+1) x (n+1) environment coherence matrix, built by a dynamic program over
the nodes), evaluates bin probabilities and fidelities in closed form and by
adaptive quadrature, and cross-checks them by seeded Monte Carlo sampling.

Quadrature is adaptive Simpson over a batch of integrals, refined level by
level, one integrand call a level (numerics.integrate_piecewise); one
homodyne.integrands call builds a batch's integrands, and a sweep builds a
block's states in one array pass.  Closed forms wait on re-made references
(notes/decisions.md).  Cross-check routes, the dense 2^n state among them, are
in tests/oracles.py.  Names load on first use: `import hpsim` loads no numpy.

A result that does not exist has one rule per layer: a pulse that
resolves no bins raises DegenerateRuleError (a ValueError, exit 2 at the
CLI), and a bin whose success probability vanishes reports fidelity NaN.
"""

__version__ = "0.1.0"

from importlib import import_module

# Public names by home module, each loaded on first access (PEP 562)
_EXPORTS = {
    "cavity": ("CavityParams", "ReflectionPair", "reflection_coefficient",
               "reflection_pair", "solve_params_for_phase"),
    "errors": ("DegenerateRuleError", "SimulationError",
               "SingularParametersError"),
    "homodyne": ("DecisionRule", "OutcomeClass", "build_decision_rule",
                 "integrands", "outcome_density", "sample_outcomes"),
    "hybrid_state": ("SectorState", "sector_states"),
    "metrics": ("ClassResult", "ScenarioRun", "SweepPoint",
                "closed_form_two_qubit", "monte_carlo_estimate",
                "run_scenario", "sweep"),
    "numerics": ("erfc",),
    "scenarios": ("SCENARIOS", "resolve_scenario"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
# the names and every home module but scenarios, which is not exported
__all__ = sorted({*_HOME, *_EXPORTS} - {"scenarios"})


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_HOME.get(name, name)}", __name__)
    return module if name in _EXPORTS else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
