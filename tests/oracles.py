"""Independent reference implementations used only by the test suite.

These deliberately share no code with the package: erfc comes from a
Maclaurin series for small arguments and a Lentz-evaluated continued
fraction for large ones, and Gaussian bin masses are assembled from that
oracle; the coefficients of the package's Weideman erfc are regenerated
here from Weideman's FFT construction.  density_cdf and
interval_probability are the one bin-mass route that uses the package's
erfc: it is the closed form the quadrature bin probabilities are held to.
The cavity reflection is re-derived by a direct 2x2 steady-state solve and by RK4
relaxation of the equations of motion; quadrature is the classic
recursive, one-point-at-a-time adaptive Simpson that the package's
level-by-level integrator must reproduce.  Agreement between package and oracle is therefore a
dual-route check, not a tautology.  Named target states are built by
enumerating qubit subsets, not from the package's decision-rule supports.

The dense 2^n branch state (one amplitude, pulse label and row of
environment labels per bitstring, with the per-branch Gram matrix of the
environment overlaps) is the reference for the package's weight-sector
state.  It shares only the cavity reflection, the quadrature mean, and the
decision rule's per-weight target phase signs with the package.  Its zeta
phase is the quoted polar form in a = |f| and theta = arg f (zeta_polar),
not the package's (slope, offset) pair.

The Monte Carlo scoring forms the package replaced are kept near the end:
the bin overlap as the complex quadratic form w G w^dag, the outcome
density as one broadcast expression, and the scoring loop with one boolean
mask per bin and a searchsorted lookup.  They share the sampler, the
sector state and the per-label zeta coefficients with the package.  Last
come the per-point forms of the state's dynamic program and of each bin's
integrand row, which the package now builds for a whole batch at once and
must reproduce bit for bit, and the Monte Carlo path as it stood before it
worked in place: the sampler, the Box-Muller normals and the block loop,
which the package must reproduce byte for byte.  The level-by-level
Simpson as it stood with one 8-row frontier array and one integrand call
per level: the sliced integrator must give its totals bit for bit, from
the same points in the same order.  The decision rule as it stood when it
grouped weights by float means within a tolerance closes the file:
wherever that tolerance resolved the bins, the residue rule must equal it.
"""

import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import combinations

import numpy as np

from hpsim.cavity import CavityParams, reflection_pair, solve_params_for_phase
from hpsim.errors import DegenerateRuleError, SimulationError
from hpsim.homodyne import (DecisionRule, OutcomeClass, _zeta_coefficients,
                            quadrature_mean, resolve_scenario, sample_outcomes)
from hpsim.hybrid_state import check_alpha
from hpsim.metrics import ClassResult
from hpsim.numerics import erfc, philox_stream


class OracleFailureError(SimulationError):
    """A reference solver could not produce a consistent value."""


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


def weideman_coefficients(n: int):
    """Coefficients of Weideman's erfc polynomial p, highest power first.

    The FFT of f(t) = exp(-t^2) (L^2 + t^2) sampled at t = L tan(theta/2),
    theta = k pi / M for k = -M+1 .. M-1 (with f = 0 at k = -M), M = 2n and
    L = sqrt(n / sqrt(2)) (J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497
    (1994)).
    """
    m = 2 * n
    big_l = math.sqrt(n / math.sqrt(2.0))
    t = big_l * np.tan(np.arange(-m + 1, m) * np.pi / m / 2.0)
    f = np.concatenate([[0.0], np.exp(-t * t) * (big_l**2 + t * t)])
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    return a[n:0:-1]


def gauss_bin_mass(mean: float, lo: float, hi: float) -> float:
    """Mass of the variance-1/2 outcome Gaussian pi^-1/2 exp(-(v-m)^2) on [lo, hi]."""
    upper = 1.0 if lo == -math.inf else 0.5 * erfc_oracle(lo - mean)
    tail = 0.0 if hi == math.inf else 0.5 * erfc_oracle(hi - mean)
    return upper - tail


def mixture_bin_mass(weights, means, lo, hi) -> float:
    return float(sum(w * gauss_bin_mass(m, lo, hi)
                     for w, m in zip(weights, means)))


def density_cdf(state, quadrature, v):
    """P(outcome <= v), closed form through the package's erfc."""
    means = quadrature_mean(state.fields, quadrature)
    return 0.5 * (state.probs
                  @ erfc(np.subtract.outer(means, np.asarray(v, dtype=float))))


def interval_probability(state, quadrature, lo, hi) -> float:
    """Bin mass from the closed-form density_cdf (the erfc route to a bin's
    probability, against the package's quadrature)."""
    hi_cdf = 1.0 if hi == math.inf else density_cdf(state, quadrature, hi)
    lo_cdf = 0.0 if lo == -math.inf else density_cdf(state, quadrature, lo)
    return float(hi_cdf - lo_cdf)


def w_state_success(n: int) -> float:
    """Probability of projecting onto a W-class state: n / 2^(n-1).

    Counts both single-excitation bins (k = 1 and k = n-1, related by a
    global bit flip).  For n = 2 those bins coincide, so the realized
    single-bin probability is 1/2 while the formula returns 1; n = 2 is
    kept only for the algebraic limit.
    """
    if n < 2:
        raise ValueError(f"w_state_success needs n >= 2, got {n}")
    return n / 2.0 ** (n - 1)


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
    k = 1.0                                    # kappa, the unit of every rate
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
    k = 1.0  # kappa
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


# --- dense 2^n branch state ------------------------------------------------------
#
# |Psi> = sum_x c_x |x> |f_x> |e_x1> |e_x2> ...  with one environment label
# per loss event.  A CPS gate on qubit i multiplies f_x by r0 or r1 according
# to bit i and, when the reflection is sub-unit, records sqrt(1-|r|^2) f_x in
# a fresh environment mode; a transmission-eta channel records
# sqrt(1-eta^2) f_x.  Tracing the environments out multiplies atomic
# coherences by Gamma_xy = prod_j <e_yj|e_xj>.

MAX_QUBITS = 20
NORM_TOL = 1e-12
_UNIT_TOL = 1e-13        # |r|^2 within this of 1 counts as lossless
_MAX_DENSE_N = 10        # 2^n x 2^n density matrix cap


class DegenerateOutcomeError(SimulationError):
    """Conditional state requested at an outcome of numerically zero density."""


def hamming_weights(n: int) -> np.ndarray:
    """Weight of every n-bit branch index, as an int array of length 2^n."""
    w = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        w = np.concatenate([w, w + 1])
    return w


@dataclass(frozen=True)
class HybridState:
    n: int
    alpha0: float
    amps: np.ndarray      # (2^n,) complex atomic amplitudes
    fields: np.ndarray    # (2^n,) complex coherent labels of the pulse
    env: np.ndarray       # (2^n, n_events) complex environment labels

    def __post_init__(self):
        size = 2**self.n
        if self.amps.shape != (size,) or self.fields.shape != (size,):
            raise ValueError("branch arrays must have one entry per bitstring")
        if self.env.ndim != 2 or self.env.shape[0] != size:
            raise ValueError("env must be (2^n, n_events)")
        norm = float(np.sum(np.abs(self.amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"branch amplitudes not normalized: sum={norm!r}")
        if np.any(np.abs(self.fields) > self.alpha0 + 1e-12):
            raise ValueError("field label exceeds the initial amplitude; "
                             "only passive operations are modeled")
        for a in (self.amps, self.fields, self.env):
            a.flags.writeable = False

    @property
    def n_branches(self) -> int:
        return 2**self.n

    @property
    def n_loss_events(self) -> int:
        return self.env.shape[1]


def init_plus_state(n: int, alpha: float) -> HybridState:
    """All qubits in (|0>+|1>)/sqrt(2), pulse in the coherent state |alpha>."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_QUBITS}, got {n}")
    if isinstance(alpha, complex) or alpha < 0:
        raise ValueError(f"alpha must be real and non-negative, got {alpha!r}")
    size = 2**n
    amps = np.full(size, 2.0 ** (-n / 2), dtype=complex)
    fields = np.full(size, complex(alpha), dtype=complex)
    env = np.zeros((size, 0), dtype=complex)
    return HybridState(n=n, alpha0=float(alpha), amps=amps, fields=fields, env=env)


def apply_cps(state: HybridState, qubit_index: int, pair) -> HybridState:
    """Reflect the pulse off node `qubit_index` with reflection pair (r0, r1).

    If either reflection is sub-unit, one loss event is appended globally:
    every branch records sqrt(1 - |r_bit|^2) times its incident field.
    """
    if not 0 <= qubit_index < state.n:
        raise ValueError(f"qubit index {qubit_index} out of range for n={state.n}")
    shift = state.n - 1 - qubit_index
    bit = (np.arange(state.n_branches) >> shift) & 1
    r = np.where(bit == 1, complex(pair.r1), complex(pair.r0))
    loss0 = max(0.0, 1.0 - abs(pair.r0) ** 2)
    loss1 = max(0.0, 1.0 - abs(pair.r1) ** 2)
    if max(loss0, loss1) > _UNIT_TOL:
        loss_amp = np.where(bit == 1, math.sqrt(loss1), math.sqrt(loss0))
        env = np.concatenate([state.env, (loss_amp * state.fields)[:, None]],
                             axis=1)
    else:
        env = state.env.copy()
    return HybridState(n=state.n, alpha0=state.alpha0, amps=state.amps.copy(),
                       fields=r * state.fields, env=env)


def apply_channel_loss(state: HybridState, eta: float) -> HybridState:
    """One lumped beam splitter of amplitude transmission eta on the pulse."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    refl = math.sqrt(max(0.0, 1.0 - eta * eta))
    env = np.concatenate([state.env, (refl * state.fields)[:, None]], axis=1)
    return HybridState(n=state.n, alpha0=state.alpha0, amps=state.amps.copy(),
                       fields=eta * state.fields, env=env)


def env_gram(env_rows: np.ndarray) -> np.ndarray:
    """Pairwise Gamma factors for the given environment rows (a PSD Gram matrix)."""
    norms = np.sum(np.abs(env_rows) ** 2, axis=1)
    cross = env_rows @ env_rows.conj().T
    return np.exp(cross - 0.5 * (norms[:, None] + norms[None, :]))


def env_overlap_matrix(state: HybridState) -> np.ndarray:
    """All pairwise Gamma_xy of a state at once."""
    return env_gram(state.env)


def dense_state(scenario: str, alpha: float, eta_sq: float,
                gamma: float = 0.0, n=None, pair=None) -> HybridState:
    """The package's pipeline on the dense state: channel, then every gate.

    `pair` replaces the scenario's reflection pair when given.
    """
    _, nq, _ = resolve_scenario(scenario, n)
    if pair is None:
        params = replace(solve_params_for_phase(nq), gamma=gamma)
        pair = reflection_pair(params)
    state = apply_channel_loss(init_plus_state(nq, alpha), math.sqrt(eta_sq))
    for i in range(nq):
        state = apply_cps(state, i, pair)
    return state


def closed_form_final_state(n: int, alpha: float) -> HybridState:
    """State after n ideal CPS gates at phases +/- pi/n, written directly.

    A branch of Hamming weight k carries amplitude 2^(-n/2) and field
    alpha * exp(i (n - 2k) pi / n); weights 0 and n share the label -alpha,
    which is what makes the GHZ component inseparable on the pulse alone.
    """
    if n < 2:
        raise ValueError(f"closed form needs n >= 2, got {n}")
    if isinstance(alpha, complex) or alpha < 0:
        raise ValueError(f"alpha must be real and non-negative, got {alpha!r}")
    size = 2**n
    k = hamming_weights(n)
    amps = np.full(size, 2.0 ** (-n / 2), dtype=complex)
    fields = alpha * np.exp(1j * math.pi * (n - 2 * k) / n)
    env = np.zeros((size, 0), dtype=complex)
    return HybridState(n=n, alpha0=float(alpha), amps=amps, fields=fields, env=env)


def zeta_polar(label, quadrature, v):
    """The homodyne phase zeta(v) of label f = a e^{i theta}, quoted form.

    X axis: a sin(theta) (v - 2 a cos(theta)); P axis:
    -2 a cos(theta) (sqrt(2) v - a sin(theta)).
    """
    a = np.abs(np.asarray(label, dtype=complex))
    theta = np.angle(np.asarray(label, dtype=complex))
    if quadrature == "X":
        return a * np.sin(theta) * (v - 2.0 * a * np.cos(theta))
    return -2.0 * a * np.cos(theta) * (math.sqrt(2.0) * v - a * np.sin(theta))


def quadrature_wavefunction(label, quadrature, v, include_phase=True):
    """<v | coherent label> on the chosen quadrature axis.

    (1/pi)^{1/4} exp(-(v - mean)^2 / 2 + i zeta); with include_phase=False
    only the real Gaussian envelope is returned (for phase-convention
    checks -- the envelope fixes every probability).
    """
    mean = quadrature_mean(label, quadrature)
    env = math.pi ** -0.25 * np.exp(-0.5 * (np.asarray(v, dtype=float) - mean) ** 2)
    if not include_phase:
        return env + 0j
    return env * np.exp(1j * zeta_polar(label, quadrature, v))


def conditional_atomic_state(state: HybridState, quadrature, v,
                             include_phase=True) -> np.ndarray:
    """Atomic density matrix given outcome v, in the bitstring basis.

    rho_xy proportional to c_x conj(c_y) psi_x(v) conj(psi_y(v)) Gamma_xy
    with Gamma the environment overlap factors; normalized to unit trace.
    Raises DegenerateOutcomeError if the density underflows at v.
    """
    if state.n > _MAX_DENSE_N:
        raise ValueError(
            f"dense conditional state limited to n <= {_MAX_DENSE_N}")
    psi = quadrature_wavefunction(state.fields, quadrature, float(v),
                                  include_phase=include_phase)
    u = state.amps * psi
    trace = float(np.sum(np.abs(u) ** 2))
    if not trace > 1e-300:
        raise DegenerateOutcomeError(
            f"outcome v={v} has vanishing density; conditional state undefined")
    rho = (u[:, None] * np.conj(u)[None, :]) * env_overlap_matrix(state)
    return rho / trace


@dataclass(frozen=True)
class TargetState:
    """A named pure atomic state as a normalized amplitude vector."""

    name: str
    n: int
    amps: np.ndarray
    needs_x_gate: bool = False

    def __post_init__(self):
        if self.amps.shape != (2**self.n,):
            raise ValueError("target amplitude vector has wrong length")
        norm = float(np.sum(np.abs(self.amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"target not normalized: sum={norm!r}")
        self.amps.flags.writeable = False


def target_at(rule, cls, v) -> TargetState:
    """A decision-rule bin's target at outcome v as a dense 2^n vector.

    Uniform over the strings of the bin's weights; weight k carries
    e^{i s_k zeta(v)} with s_k its phase sign.  zeta is the polar form of
    the bin's first label a e^{i (1 - 2k/n) pi}, k first in (k mod n, k)
    order, rebuilt from the rule's amplitude a; a bin whose signs are all 0
    has no phase.
    """
    n = rule.n
    weights = hamming_weights(n)
    amps = np.zeros(2**n, dtype=complex)
    zeta = 0.0
    if any(cls.phase_signs):
        k = min(cls.weights, key=lambda k: (k % n, k))
        t = (1.0 - 2.0 * k / n) * math.pi
        label = rule.amplitude * complex(math.cos(t), math.sin(t))
        zeta = float(zeta_polar(label, rule.quadrature, v))
    for k, sign in zip(cls.weights, cls.phase_signs):
        amps[weights == k] = np.exp(1j * sign * zeta)
    amps /= math.sqrt(np.count_nonzero(amps))
    return TargetState(cls.target_name, n, amps,
                       needs_x_gate=cls.needs_x_gate)


# --- replaced Monte Carlo scoring forms ---------------------------------------

def complex_overlap_integrand(state, quadrature, cls):
    """v -> <T(v)| rho~(v) |T(v)> of one bin as sum_kk' W_k G_kk' conj(W_k').

    W_k(v) = pi^{-1/4} e^{-(v - m_k)^2 / 2} e^{i phi_k(v)} is built as a
    complex array per outcome, with phi_k = zeta_k - s_k zeta_bin linear in
    v.
    """
    ks = list(cls.weights)
    fields = state.fields[ks]
    coherence = state.coherence[np.ix_(ks, ks)] / cls.size
    means = quadrature_mean(fields, quadrature)
    slope, offset = (np.array(_zeta_coefficients(fields, quadrature))
                     - np.outer(cls.zeta_coefficients, cls.phase_signs))

    def overlap(v):
        varr = np.asarray(v, dtype=float)[:, None]
        envl = math.pi ** -0.25 * np.exp(-0.5 * (varr - means[None, :]) ** 2)
        w = envl * np.exp(1j * (slope * varr + offset))
        return ((w @ coherence) * w.conj()).real.sum(1)

    return overlap


def overlap_scale(state, quadrature, cls, v):
    """sum_kk' |G_kk'| e_k(v) e_k'(v) / size, the size of the overlap's terms."""
    ks = list(cls.weights)
    means = quadrature_mean(state.fields[ks], quadrature)
    envl = math.pi ** -0.25 * np.exp(
        -0.5 * (np.asarray(v, dtype=float)[:, None] - means[None, :]) ** 2)
    mags = np.abs(state.coherence[np.ix_(ks, ks)]) / cls.size
    return np.einsum("bk,kl,bl->b", envl, mags, envl)


def mixture_density(state, quadrature, v):
    """sum_k p_k e^{-(v - m_k)^2} / sqrt(pi) as one broadcast expression,
    summed over k in order (a row sum, not BLAS)."""
    means = quadrature_mean(state.fields, quadrature)
    varr = np.asarray(v, dtype=float)
    gauss = np.exp(-(varr[None, :] - means[:, None]) ** 2)
    return (state.probs[:, None] * gauss).sum(axis=0) / math.sqrt(math.pi)


def monte_carlo_masks(state, rule, trials, seed):
    """[(hits, mean, standard error of the mean)] of the overlap/density
    ratios per bin, one boolean mask each.

    All trials are drawn at once and classified with searchsorted (ties to
    the upper bin); each bin's ratios are gathered through its mask, and
    the standard error is numpy's two-pass standard deviation over them.
    The mean is NaN for an empty bin, the standard error below two hits.
    """
    samples = sample_outcomes(state, rule.quadrature, trials, seed)
    idx = np.searchsorted(np.asarray(rule.thresholds), samples, side="right")
    dens = mixture_density(state, rule.quadrature, samples)
    out = []
    for i, cls in enumerate(rule.classes):
        mask = idx == i
        hits = int(np.count_nonzero(mask))
        ratio = (complex_overlap_integrand(state, rule.quadrature, cls)(
            samples[mask]) / dens[mask])
        out.append((hits, float(np.sum(ratio)) / hits if hits else math.nan,
                    float(np.std(ratio, ddof=1)) / math.sqrt(hits)
                    if hits >= 2 else math.nan))
    return out


# --- per-point routes the batched ones reproduce bit for bit ----------------

def same_bits(got, want):
    """Equal shapes, np.array_equal and equal bytes (so 0.0 for -0.0 fails)."""
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.ascontiguousarray(got).tobytes() == want.tobytes())


def sector_state_per_point(n, alpha, eta, pair):
    """The weight-sector state of one point, as one dynamic program of its
    own: the form hybrid_state.sector_states had before it took a batch."""
    loss = [max(0.0, 1.0 - abs(r) ** 2) for r in (pair.r0, pair.r1)]
    s = np.sqrt(loss) if max(loss) > 1e-13 else np.zeros(2)
    f = np.array([eta * alpha], dtype=complex)
    d = np.ones((1, 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            e = np.outer(s, f)                      # e[bit, a]
            half = 0.5 * np.abs(e) ** 2
            step = d * np.exp(e[:, None, :, None] * e.conj()[None, :, None, :]
                              - half[:, None, :, None] - half[None, :, None, :])
            d = np.zeros((m + 1, m + 1), dtype=complex)
            for bx in (0, 1):
                for by in (0, 1):
                    d[bx:bx + m, by:by + m] += step[bx, by]
            f = np.append(f * pair.r0, f[-1] * pair.r1)
    return f, d / 2.0**n


def density_row_per_bin(state, quadrature, weights):
    """The density's integrands row over `weights`, from its own arrays."""
    ks = list(weights)
    return (np.array([quadrature_mean(state.fields, quadrature)[ks],
                      state.probs[ks]]), np.zeros((5, 0)))


def overlap_row_per_bin(state, quadrature, cls):
    """One bin's overlap integrands row from its own small arrays: the form
    homodyne.overlap_integrand had before rows were built in batches."""
    ks = list(cls.weights)
    fields = state.fields[ks]
    coherence = state.coherence[ks][:, ks] / cls.size
    i, j = np.nonzero(~np.tri(len(ks), dtype=bool))     # the pairs k < k'
    pair = coherence[i, j] + coherence[j, i].conj()
    slope, offset = (np.array(_zeta_coefficients(fields, quadrature))
                     - np.outer(cls.zeta_coefficients, cls.phase_signs))
    means = quadrature_mean(fields, quadrature)
    return (np.array([means, coherence.diagonal().real]),
            np.array([means[i], means[j], np.abs(pair), slope[i] - slope[j],
                      offset[i] - offset[j] + np.angle(pair)]))


def row_values_per_bin(row, v):
    """An integrand row's value at each v of a 1-D array, from the row
    alone: its weight terms, then its pair terms, each summed slot after
    slot, the order homodyne.integrands sums its zero-padded tables in."""
    (means, coefs), pairs = row
    total = reduce(np.add, [c * np.exp(-((v - m) * (v - m)))
                            for m, c in zip(means, coefs)])
    if pairs.shape[1]:
        total = total + reduce(np.add, [
            a * (np.exp(-0.5 * ((v - mi) ** 2 + (v - mj) ** 2))
                 * np.cos(v * s + o)) for mi, mj, a, s, o in pairs.T])
    return total / math.sqrt(math.pi)


# --- the Monte Carlo path before it worked in place -------------------------

def standard_normals_v1(rng, size, rng_u2):
    """Box-Muller (cosine branch) normals, one temporary per step: u1 from
    rng mapped to (0, 1], then u2 from rng_u2."""
    u1 = 1.0 - rng.random(size)
    u2 = rng_u2.random(size)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def sample_outcomes_v1(state, quadrature, trials, seed, start=0, stop=None):
    """Trials start..stop-1 of the documented stream: branch x =
    floor(u 2^n) from words start.., its weight by a byte popcount table
    built per call, then mean_|x| + N(0, 1/2) from words trials + start..
    and 2 trials + start.."""
    stop = trials if stop is None else stop
    size = stop - start
    uniforms = philox_stream(seed, start).random(size)
    branch = (uniforms * 2.0**state.n).astype(np.int64)
    ones = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], 1).sum(1, np.uint8)
    weight = sum(ones[(branch >> shift) & 255] for shift in range(0, state.n, 8))
    means = quadrature_mean(state.fields, quadrature)[weight]
    normals = standard_normals_v1(philox_stream(seed, trials + start), size,
                                  philox_stream(seed, 2 * trials + start))
    return means + (1.0 / math.sqrt(2.0)) * normals


def monte_carlo_blocks(state, rule, trials, seed, block):
    """Monte Carlo ClassResults from blocks of `block` trials: per block,
    the density at every sample, one stable sort by outcome, gathers of
    samples and density, bin ends from searchsorted classification,
    bincount and cumsum, and Chan et al.'s update of each bin's squared
    deviations, so a bin's ratios are summed in ascending outcome order
    within a block.  The density and overlaps are the per-bin rows above,
    which the package's integrands reproduce bit for bit."""
    q = rule.quadrature
    density = density_row_per_bin(state, q, range(state.n + 1))
    overlaps = [overlap_row_per_bin(state, q, cls) for cls in rule.classes]
    hits = [0] * len(rule.classes)
    sums = [0.0] * len(rule.classes)
    squares = [0.0] * len(rule.classes)
    for start in range(0, trials, block):
        samples = sample_outcomes_v1(state, q, trials, seed, start,
                                     min(start + block, trials))
        dens = row_values_per_bin(density, samples)
        idx = np.searchsorted(np.asarray(rule.thresholds), samples, side="right")
        order = np.argsort(samples, kind="stable")
        samples, dens = samples[order], dens[order]
        lo = 0
        for i, hi in enumerate(np.cumsum(np.bincount(
                idx, minlength=len(rule.classes))).tolist()):
            if hi > lo:
                ratio = row_values_per_bin(overlaps[i], samples[lo:hi]) / dens[lo:hi]
                n0, n1, total = hits[i], hi - lo, float(np.sum(ratio))
                dev = ratio - total / n1
                shift = total / n1 - sums[i] / n0 if n0 else 0.0
                squares[i] += float(dev @ dev) + shift**2 * n0 * n1 / (n0 + n1)
                hits[i], sums[i] = n0 + n1, sums[i] + total
            lo = hi
    out = []
    for cls, hit, total, square in zip(rule.classes, hits, sums, squares):
        phat = hit / trials
        out.append(ClassResult(
            parity=cls.parity, target_name=cls.target_name, success_prob=phat,
            fidelity=total / hit if hit else math.nan, method="monte_carlo",
            mc_stderr=(math.sqrt(phat * (1.0 - phat) / trials) if trials >= 2
                       else math.nan),
            fidelity_stderr=(math.sqrt(square / (hit - 1) / hit) if hit >= 2
                             else math.nan)))
    return out


# --- level-by-level Simpson before its levels were sliced ---------------------

def integrate_piecewise_v1(f, breakpoints, tol=1e-9, max_depth=48):
    """numerics.integrate_piecewise as it stood with the frontier as one
    8-row array (a, b, fa, fm, fb, whole, tol, owner as an exact float),
    one call of f per level on every pending point, left halves before
    right halves, and each level's accepted panels added with one
    bincount."""
    panels = []
    for i, pts in enumerate(breakpoints):
        pts = sorted(pts)
        panels += [(lo, hi, tol / max(1, len(pts) - 1), i)
                   for lo, hi in zip(pts[:-1], pts[1:]) if lo != hi]
    if not panels:
        return [0.0] * len(breakpoints)

    def evaluate(owner, *xs):
        which = np.tile(owner.astype(np.intp), len(xs))
        with np.errstate(over="ignore", invalid="ignore"):
            out = f(np.concatenate(xs), which).reshape(len(xs), -1)
        bad = ~np.isfinite(out)
        if bad.any():
            raise SimulationError(
                f"non-finite integrand value at v={float(np.array(xs)[bad][0])!r}")
        return out

    a, b, tol, owner = np.array(panels, dtype=float).T
    fa, fm, fb = evaluate(owner, a, 0.5 * (a + b), b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    frontier = np.array([a, b, fa, fm, fb, whole, tol, owner])
    totals = np.zeros(len(breakpoints))
    for depth in range(max_depth, -1, -1):
        a, b, fa, fm, fb, whole, tol, owner = frontier
        m = 0.5 * (a + b)
        flm, frm = evaluate(owner, 0.5 * (a + m), 0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        done = (np.abs(delta) <= 15.0 * tol) | (depth == 0)
        totals += np.bincount(owner[done].astype(np.intp),
                              (left + right + delta / 15.0)[done],
                              len(breakpoints))
        go = ~done
        if not go.any():
            break
        tol = 0.5 * tol
        frontier = np.concatenate(
            [np.array([a, m, fa, flm, fm, left, tol, owner])[:, go],
             np.array([m, b, fm, frm, fb, right, tol, owner])[:, go]], axis=1)
    return totals.tolist()


# --- the decision rule before its bins came from residues ---------------------

def build_decision_rule_tol(scenario, a, n=None) -> DecisionRule:
    """homodyne.build_decision_rule as it stood when it sorted the weights
    by float mean and grouped means within 1e-9 max(1, sqrt(2) a) of the
    group's first: below a of about 2.6e-8 that tolerance merges bins on
    the P axis that the phases keep apart."""
    scenario, n, axis = resolve_scenario(scenario, n)
    check_alpha(a)

    thetas = [(1.0 - 2.0 * k / n) * math.pi for k in range(n + 1)]
    labels = [a * complex(math.cos(t), math.sin(t)) for t in thetas]
    trig = math.cos if axis == "X" else math.sin
    means = [math.sqrt(2.0) * a * trig(t) for t in thetas]

    tol = 1e-9 * max(1.0, math.sqrt(2.0) * a)
    if all(abs(lab - labels[0]) <= tol for lab in labels):
        raise DegenerateRuleError(
            f"scenario {scenario} with amplitude a={a} has no resolvable bins")

    groups = []   # list of (center, [weights])
    for k in sorted(range(n + 1), key=lambda k: means[k]):
        if groups and abs(means[k] - groups[-1][0]) <= tol:
            groups[-1][1].append(k)
        else:
            groups.append((means[k], [k]))

    centers = [g[0] for g in groups]
    thresholds = tuple(0.5 * (c1 + c2) for c1, c2 in zip(centers, centers[1:]))
    classes = tuple(_outcome_class_tol(n, axis, ws, labels, tol)
                    for _, ws in groups)
    return DecisionRule(scenario=scenario, n=n, amplitude=float(a),
                        quadrature=axis, thresholds=thresholds, classes=classes)


def _outcome_class_tol(n, axis, ws, labels, tol) -> OutcomeClass:
    order = sorted(ws, key=lambda k: (k % n, k))
    first = labels[order[0]]
    sign = {k: 1 if abs(labels[k] - first) <= tol else -1 for k in order}
    two_labels = -1 in sign.values()
    weights = tuple(sorted(ws))
    residues = list(dict.fromkeys(k % n for k in order))
    parity = residues[0] if len(residues) == 1 else "|".join(map(str, residues))
    needs_x = any(math.sqrt(2.0) * abs(labels[k].real - first.real) > tol
                  for k in order)
    zeta = _zeta_coefficients(first, axis) if two_labels else (0.0, 0.0)
    return OutcomeClass(
        parity=parity, target_name=_target_name_tol(n, axis, order, sign),
        weights=weights, size=sum(math.comb(n, k) for k in weights),
        phase_signs=tuple(sign[k] if two_labels else 0 for k in weights),
        zeta_coefficients=zeta, needs_x_gate=needs_x)


def _target_name_tol(n, axis, order, sign):
    comps = [tuple(k for k in order if sign[k] == s) for s in (1, -1)]
    comps = [c for c in comps if c]
    if len(comps) == 2 and axis == "X":
        return f"Gprime({n},{comps[0][0]})"
    if len(comps) == 1 and n == 2:
        return "Bell-phi+" if comps[0] == (0, 2) else "Bell-psi+"
    return "|".join(_label_state_name_tol(n, c) for c in comps)


def _label_state_name_tol(n, ks):
    if len(ks) == 2:                # weights 0 and n share one label
        return f"GHZ({n})"
    k = ks[0]
    return f"W({n})" if k == 1 and n > 2 else f"Dicke({n},{k})"
