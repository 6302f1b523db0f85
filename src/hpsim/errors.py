"""Exception types shared across the simulator.

Everything derived from SimulationError is a *numerical* failure (the inputs
were legal but the computation could not produce a value); the CLI maps these
to exit code 3.  Plain ValueError is reserved for contract violations on the
inputs themselves (exit code 2 at the CLI).
"""


class SimulationError(Exception):
    """Base class for numerical failures."""


class SingularParametersError(SimulationError):
    """Cavity parameters drive the reflection denominator (numerically) to zero."""


class OracleFailureError(SimulationError):
    """A self-check or reference solver could not produce a consistent value."""


class DegenerateRuleError(SimulationError):
    """The requested decision rule would contain a zero-width class."""


class UndefinedFidelityError(SimulationError):
    """Fidelity requested for a class whose success probability vanishes."""
