"""Single-sided atom-cavity node: conditional reflection and phase solving.

A three-level atom sits in a one-sided cavity.  The qubit states are two
ground levels; only |1> couples to the cavity mode (rate g), while |0> is
decoupled by hyperfine splitting.  A weak probe pulse reflects off the
cavity and picks up an atom-conditioned phase.

In the weak-excitation limit the intracavity field a and the atomic
coherence s obey a pair of linear equations (rates in units of the cavity
decay kappa, detunings delta1 = atom - probe, delta2 = cavity - probe):

    da/dt = -(i delta2 + kappa/2) a - i g s - sqrt(kappa) a_in
    ds/dt = -(i delta1 + gamma/2) s - i g P1 a

with P1 the population of |1> (0 or 1) and gamma the spontaneous-emission
rate.  Eliminating the steady state and using a_out = a_in + sqrt(kappa) a
gives the reflection coefficient

    r(P1) = [(i delta1 + gamma/2)(i delta2 - kappa/2) + P1 g^2]
            / [(i delta1 + gamma/2)(i delta2 + kappa/2) + P1 g^2].

For gamma = 0 this is a pure phase for both atomic states; for gamma > 0
the coupled (P1 = 1) reflection contracts, |r1| < 1, and the missing
amplitude is scattered out of the mode.

All rates are expressed in units of kappa, and the code sets kappa = 1:
(delta1, delta2, g, kappa, gamma) gives the same r as
(delta1/kappa, delta2/kappa, g/kappa, 1, gamma/kappa), so kappa only fixes
the unit.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import SingularParametersError

# |denominator| below this times kappa^2 counts as singular (double headroom)
SINGULAR_TOL = 1e-12

# Largest n of the phase solver: up to 2^53 n is a double, so pi / n is n's
# own phase and g^2 ~ 2 n^2 / pi^2 < 2e31 (g^2 overflows near n = 3e154).
MAX_PHASE_N = 2**53

# Largest gamma/kappa.  From 1e16 on r1 equals its gamma -> inf limit r0 to
# rounding, so a larger gamma gives no new result (notes/decisions.md,
# "Bounded inputs"); near 5e307 the numerator of reflection_coefficient
# overflows.
MAX_GAMMA = 1e16


def check_gamma(gamma):
    """The one check of a gamma/kappa: 0 <= gamma <= MAX_GAMMA."""
    if not 0 <= gamma <= MAX_GAMMA:
        raise ValueError(f"gamma must be finite and non-negative, "
                         f"at most {MAX_GAMMA:g}, got {gamma}")


@dataclass(frozen=True)
class CavityParams:
    """One atom-cavity node.  delta1/delta2/g/gamma are in units of kappa."""

    delta1: float
    delta2: float
    g: float
    gamma: float = 0.0

    def __post_init__(self):
        if not 0 <= self.g < math.inf:
            raise ValueError(
                f"coupling g must be finite and non-negative, got {self.g}")
        check_gamma(self.gamma)
        if not (math.isfinite(self.delta1) and math.isfinite(self.delta2)):
            raise ValueError(f"detunings must be finite, got delta1="
                             f"{self.delta1}, delta2={self.delta2}")


@dataclass(frozen=True)
class ReflectionPair:
    """Reflection coefficients for the two qubit states of one node."""

    r0: complex
    r1: complex

    @property
    def phi0(self) -> float:
        """arg(r0), in (-pi, pi]."""
        return cmath.phase(self.r0)

    @property
    def phi1(self) -> float:
        """arg(r1), in (-pi, pi]."""
        return cmath.phase(self.r1)


def reflection_coefficient(params: CavityParams, p1: int) -> complex:
    """Reflection coefficient of the node for atomic population p1 in {0, 1}.

    With gamma = 0 the modulus is exactly 1 (passive phase shift); with
    gamma > 0 and p1 = 1 the modulus drops below 1.  The |0> state never
    couples to the atom, so r0 is gamma-independent.
    """
    if p1 not in (0, 1):
        raise ValueError(f"p1 must be 0 or 1, got {p1}")
    d1 = 1j * params.delta1 + 0.5 * params.gamma
    num = d1 * (1j * params.delta2 - 0.5) + p1 * params.g**2
    den = d1 * (1j * params.delta2 + 0.5) + p1 * params.g**2
    if abs(den) < SINGULAR_TOL:
        raise SingularParametersError(
            f"reflection denominator {den!r} is singular for {params}")
    return num / den


def reflection_pair(params: CavityParams) -> ReflectionPair:
    return ReflectionPair(reflection_coefficient(params, 0),
                          reflection_coefficient(params, 1))


def solve_params_for_phase(n: int) -> CavityParams:
    """Parameters giving conditional phases +pi/n (atom in |0>) and -pi/n (|1>).

    Solved for gamma = 0 under the symmetric-detuning constraint
    delta1 = delta2 = delta.  arg r0 = pi - 2*atan(2*delta) fixes
    delta = cot(pi/(2n)) / 2; requiring arg r1 = -pi/n then gives
    g^2 = 2*delta^2.
    """
    if not 2 <= n <= MAX_PHASE_N:
        raise ValueError(f"phase solver needs n in 2..2^53, got {n}")
    cot = 1.0 / math.tan(math.pi / (2 * n))
    delta = 0.5 * cot
    g = cot / math.sqrt(2.0)
    return CavityParams(delta1=delta, delta2=delta, g=g)
