"""Exception types shared across the simulator.

Everything derived from SimulationError is a *numerical* failure (the inputs
were legal but the computation could not produce a value); the CLI maps these
to exit code 3.  The package raises it for a singular cavity denominator
(SingularParametersError) and for a non-finite sector state or integrand.
None of them is reachable from the CLI: its cavities come from the phase
solver (delta > 0, so no denominator vanishes), and alpha and gamma are
bounded (hybrid_state.MAX_ALPHA, cavity.MAX_GAMMA) where nothing overflows.
They guard library callers who pass their own n, cavity or integrand.
ValueError, DegenerateRuleError included, is a contract violation on the
inputs themselves (exit code 2 at the CLI).  A bin whose success probability
vanishes is not an error: its fidelity is NaN.
"""


class SimulationError(Exception):
    """Base class for numerical failures."""


class SingularParametersError(SimulationError):
    """Cavity parameters drive the reflection denominator (numerically) to zero."""


class DegenerateRuleError(ValueError):
    """The pulse resolves no bins: every branch label coincides."""
