"""Independent reference implementations used only by the test suite.

These deliberately share no code with the package: erfc comes from a
Maclaurin series for small arguments and a Lentz-evaluated continued
fraction for large ones, and Gaussian bin masses are assembled from that
oracle.  The cavity reflection is re-derived by a direct 2x2 steady-state
solve and by RK4 relaxation of the equations of motion; quadrature is the
classic recursive, one-point-at-a-time adaptive Simpson that the package's
level-by-level integrator must reproduce.  Agreement between package and
oracle is therefore a dual-route check, not a tautology.  Named target
states are built by enumerating qubit subsets, not from the package's
decision-rule supports.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from hpsim.cavity import CavityParams
from hpsim.errors import OracleFailureError


def erfc_series(x: float) -> float:
    """erfc via the alternating Maclaurin series of erf (|x| <= ~2)."""
    term = x
    total = x
    k = 0
    while True:
        k += 1
        term *= -x * x / k
        inc = term / (2 * k + 1)
        total += inc
        if abs(inc) < 1e-20 * abs(total) + 1e-300:
            break
        if k > 200:
            raise RuntimeError(f"series did not converge at x={x}")
    return 1.0 - 2.0 / math.sqrt(math.pi) * total


def erfc_lentz(x: float) -> float:
    """erfc via the standard continued fraction, modified Lentz evaluation.

    erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x+ (1/2)/(x+ (2/2)/(x+ (3/2)/(x+ ...))))
    valid for x > 0, efficient for x >~ 2.
    """
    tiny = 1e-300
    f = tiny
    c = tiny
    d = 0.0
    j = 0
    while True:
        j += 1
        a = 1.0 if j == 1 else (j - 1) / 2.0
        d = x + a * d
        d = tiny if d == 0.0 else d
        c = x + a / c
        c = tiny if c == 0.0 else c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return math.exp(-x * x) / math.sqrt(math.pi) * f
        if j > 500:
            raise RuntimeError(f"continued fraction did not converge at x={x}")


def erfc_oracle(x: float) -> float:
    if x > 2.0:
        return erfc_lentz(x)
    if x < -2.0:
        return 2.0 - erfc_lentz(-x)
    return erfc_series(x)


def gauss_bin_mass(mean: float, lo: float, hi: float) -> float:
    """Mass of the variance-1/2 outcome Gaussian pi^-1/2 exp(-(v-m)^2) on [lo, hi]."""
    upper = 1.0 if lo == -math.inf else 0.5 * erfc_oracle(lo - mean)
    tail = 0.0 if hi == math.inf else 0.5 * erfc_oracle(hi - mean)
    return upper - tail


def mixture_bin_mass(weights, means, lo, hi) -> float:
    return float(sum(w * gauss_bin_mass(m, lo, hi)
                     for w, m in zip(weights, means)))


def brute_force_sequential_state(n: int, alpha: float, r0: complex, r1: complex):
    """Branch fields after n conditional reflections, by direct enumeration."""
    fields = np.empty(2**n, dtype=complex)
    for x in range(2**n):
        f = complex(alpha)
        for i in range(n):
            bit = (x >> (n - 1 - i)) & 1
            f *= r1 if bit else r0
        fields[x] = f
    return fields


# --- recursive adaptive Simpson -------------------------------------------------

def _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        # Richardson extrapolation of the two half-interval estimates
        return left + right + delta / 15.0
    half = 0.5 * tol
    return (_simpson_recurse(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _simpson_recurse(f, m, b, fm, frm, fb, right, half, depth - 1))


def adaptive_simpson(f, a, b, tol=1e-9, max_depth=48):
    """Integrate scalar f over [a, b] to absolute tolerance tol, depth first."""
    if a == b:
        return 0.0
    fa = f(a)
    fm = f(0.5 * (a + b))
    fb = f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, max_depth)


def integrate_piecewise_recursive(f, breakpoints, tol=1e-9):
    """adaptive_simpson on consecutive [b_i, b_i+1] segments, sharing tol."""
    pts = sorted(breakpoints)
    seg_tol = tol / max(1, len(pts) - 1)
    return sum(adaptive_simpson(f, lo, hi, seg_tol)
               for lo, hi in zip(pts[:-1], pts[1:]))


# --- cavity steady state ----------------------------------------------------------

def steady_state_oracle(params: CavityParams, p1: int) -> complex:
    """Independent check of the reflection: solve the driven linear system.

    Sets a constant unit drive a_in = 1, writes the two linearized equations
    as A s = -b for s = (a, sigma), solves the 2x2 system numerically and
    returns a_out = 1 + sqrt(kappa) * a.  No algebraic reduction is shared
    with reflection_coefficient.
    """
    if p1 not in (0, 1):
        raise ValueError(f"p1 must be 0 or 1, got {p1}")
    k = params.kappa
    ca = -(1j * params.delta2 + 0.5 * k)       # a <- a
    cs = -(1j * params.delta1 + 0.5 * params.gamma)  # sigma <- sigma
    drive = -math.sqrt(k)

    if p1 == 0 or params.g == 0.0:
        # atom decoupled from the drive; sigma relaxes to zero
        if ca == 0:
            raise OracleFailureError(f"undamped cavity equation for {params}")
        a = -drive / ca
        return 1.0 + math.sqrt(k) * a

    # coupled 2x2 solve:  ca*a - i g sigma = -drive ;  -i g a + cs*sigma = 0
    det = ca * cs - (-1j * params.g) * (-1j * params.g * p1)
    if abs(det) < 1e-300:
        raise OracleFailureError(f"singular steady-state system for {params}")
    # Cramer's rule on [ [ca, -i g], [-i g p1, cs] ] (a, sigma) = (-drive, 0)
    a = (-drive) * cs / det
    return 1.0 + math.sqrt(k) * a


def rk4_relaxation(params: CavityParams, p1: int, dt: float = 0.01,
                   horizon: float = 4000.0, tol: float = 1e-11) -> complex:
    """Dynamical route to the same steady state, by fixed-step RK4.

    Slow next to the implicit solve, but shares no linear algebra with it;
    used in tests to triangulate both closed form and oracle.  Raises
    OracleFailureError if the state has not settled within the horizon.
    """
    k = params.kappa
    ca = -(1j * params.delta2 + 0.5 * k)
    cs = -(1j * params.delta1 + 0.5 * params.gamma)
    g = params.g

    def deriv(a, s):
        return ca * a - 1j * g * s - math.sqrt(k), cs * s - 1j * g * p1 * a

    a = 0j
    s = 0j
    steps = int(horizon / dt)
    check_every = 200
    prev = (a, s)
    for i in range(1, steps + 1):
        k1a, k1s = deriv(a, s)
        k2a, k2s = deriv(a + 0.5 * dt * k1a, s + 0.5 * dt * k1s)
        k3a, k3s = deriv(a + 0.5 * dt * k2a, s + 0.5 * dt * k2s)
        k4a, k4s = deriv(a + dt * k3a, s + dt * k3s)
        a = a + dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
        s = s + dt / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s)
        if i % check_every == 0:
            if abs(a - prev[0]) < tol and abs(s - prev[1]) < tol:
                return 1.0 + math.sqrt(k) * a
            prev = (a, s)
    raise OracleFailureError(
        f"RK4 relaxation did not converge within t={horizon} for {params}")


# --- named target states ------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """A named pure atomic state; character i of a bitstring is qubit i."""

    name: str
    n: int
    amps: np.ndarray

    def amp_map(self) -> dict:
        """bitstring -> amplitude map over the support."""
        return {format(x, f"0{self.n}b"): complex(a)
                for x, a in enumerate(self.amps) if a != 0}


def _dicke_vector(n: int, k: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    idx = [sum(1 << (n - 1 - q) for q in ones)
           for ones in combinations(range(n), k)]
    v[idx] = 1.0 / math.sqrt(len(idx))
    return v


def make_target(name: str, n: int = None, k: int = None,
                phase: float = 0.0) -> Target:
    """Build a named target state.

    Supported names: "GHZ", "W" (= Dicke k=1), "Dicke", "Gsum", "Gprime",
    "Bell-phi+", "Bell-psi+".  Gsum(n,k) is (D_{n,k} + D_{n,n-k})/sqrt(2)
    for n != 2k and plain D_{2k,k} otherwise; Gprime(n,k,zeta) carries the
    measured-outcome phase, (e^{i zeta} D_{n,k} + e^{-i zeta} D_{n,n-k})/sqrt(2).
    """
    if name == "Bell-phi+":
        v = np.zeros(4, dtype=complex)
        v[[0, 3]] = 1.0 / math.sqrt(2.0)
        return Target("Bell-phi+", 2, v)
    if name == "Bell-psi+":
        v = np.zeros(4, dtype=complex)
        v[[1, 2]] = 1.0 / math.sqrt(2.0)
        return Target("Bell-psi+", 2, v)

    if n is None or n < 1:
        raise ValueError(f"target {name!r} needs a qubit count n >= 1")
    if name == "GHZ":
        v = np.zeros(2**n, dtype=complex)
        v[[0, 2**n - 1]] = 1.0 / math.sqrt(2.0)
        return Target(f"GHZ({n})", n, v)
    if name == "W":
        return Target(f"W({n})", n, _dicke_vector(n, 1))
    if name == "Dicke":
        if k is None or not 0 <= k <= n:
            raise ValueError(f"Dicke state needs 0 <= k <= n, got k={k}")
        return Target(f"Dicke({n},{k})", n, _dicke_vector(n, k))
    if name == "Gsum":
        if k is None or not 0 <= k <= n:
            raise ValueError(f"Gsum state needs 0 <= k <= n, got k={k}")
        if n == 2 * k:
            return Target(f"Gsum({n},{k})", n, _dicke_vector(n, k))
        v = (_dicke_vector(n, k) + _dicke_vector(n, n - k)) / math.sqrt(2.0)
        return Target(f"Gsum({n},{k})", n, v)
    if name == "Gprime":
        if k is None or not 0 < k < n or n == 2 * k:
            raise ValueError(f"Gprime needs 0 < k < n with n != 2k, got k={k}")
        v = (np.exp(1j * phase) * _dicke_vector(n, k)
             + np.exp(-1j * phase) * _dicke_vector(n, n - k)) / math.sqrt(2.0)
        return Target(f"Gprime({n},{k})", n, v)
    raise ValueError(f"unknown target state {name!r}")
