"""Homodyne detection of the pulse: densities, decision rules, sampling.

Measuring the position quadrature X = (a + a^dag)/sqrt(2) of a coherent
state |a e^{i theta}> (a real >= 0) yields a Gaussian of variance 1/2
centered at sqrt(2) a cos(theta); the momentum quadrature
P = (a - a^dag)/(sqrt(2) i) centers at sqrt(2) a sin(theta).  The outcome
wavefunctions carry an outcome-dependent phase

    X axis:  zeta(v, theta) = a sin(theta) (v - 2 a cos(theta))
    P axis:  zeta(v, theta) = -2 a cos(theta) (sqrt(2) v - a sin(theta))

which matters whenever one detection bin holds branches with different
pulse labels (the summed-Dicke classes).  zeta is kept unreduced
internally; reduce mod 2 pi only for display.

A DecisionRule partitions the outcome axis at midpoints between the
distinct branch means and assigns each bin a parity label and target
state.  Ties at a threshold go to the upper interval.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateOutcomeError, DegenerateRuleError
from .hybrid_state import (HybridState, TargetState, env_gram,
                           env_overlap_matrix, hamming_weights)
from .numerics import erfc, philox_stream, standard_normals

_QUART_PI = math.pi ** (-0.25)
_SIGMA = 1.0 / math.sqrt(2.0)      # quadrature standard deviation
WINDOW_SIGMAS = 8.0                # integration window half-width, in sigmas

SCENARIOS = ("two_qubit_X", "three_qubit_P", "gsum_X", "n_qubit_P")
_SCENARIO_ALIASES = {"two_qubit": "two_qubit_X", "three_qubit": "three_qubit_P",
                     "gsum": "gsum_X", "n_qubit": "n_qubit_P"}


def _check_quadrature(quadrature):
    if quadrature not in ("X", "P"):
        raise ValueError(f"quadrature must be 'X' or 'P', got {quadrature!r}")


def quadrature_mean(label, quadrature):
    """Center of the outcome Gaussian: sqrt(2) Re (X) or sqrt(2) Im (P)."""
    _check_quadrature(quadrature)
    lab = np.asarray(label, dtype=complex)
    part = lab.real if quadrature == "X" else lab.imag
    return math.sqrt(2.0) * part


def _zeta(label, quadrature, v):
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
    _check_quadrature(quadrature)
    mean = quadrature_mean(label, quadrature)
    env = _QUART_PI * np.exp(-0.5 * (np.asarray(v, dtype=float) - mean) ** 2)
    if not include_phase:
        return env + 0j
    return env * np.exp(1j * _zeta(label, quadrature, v))


def outcome_density(state: HybridState, quadrature, v):
    """Probability density of the homodyne outcome.

    Atomic orthogonality kills every cross term, so the density is the
    plain mixture sum_x |c_x|^2 |<v|f_x>|^2; environment labels drop out.
    """
    _check_quadrature(quadrature)
    means = quadrature_mean(state.fields, quadrature)
    w = np.abs(state.amps) ** 2
    varr = np.atleast_1d(np.asarray(v, dtype=float))
    dens = np.einsum("b,bn->n", w,
                     np.exp(-(varr[None, :] - means[:, None]) ** 2))
    dens /= math.sqrt(math.pi)
    return float(dens[0]) if np.ndim(v) == 0 else dens


def density_cdf(state: HybridState, quadrature, v):
    """P(outcome <= v), closed form through erfc."""
    means = quadrature_mean(state.fields, quadrature)
    w = np.abs(state.amps) ** 2
    varr = np.asarray(v, dtype=float)
    if varr.ndim:
        cdf = 0.5 * np.einsum("b,bn->n", w, erfc(means[:, None] - varr[None, :]))
        return cdf
    return float(0.5 * np.sum(w * erfc(means - varr)))


def integration_window(state: HybridState, quadrature):
    """[min mean - 8 sigma, max mean + 8 sigma]; truncated tails < 1e-14."""
    means = quadrature_mean(state.fields, quadrature)
    pad = WINDOW_SIGMAS * _SIGMA
    return float(np.min(means) - pad), float(np.max(means) + pad)


# --- decision rules ----------------------------------------------------------

@dataclass(frozen=True)
class OutcomeClass:
    """One detection bin: interval, parity label, and its target state.

    `weights` lists the Hamming weights whose branches feed this bin.
    The target may depend on the measured value through the zeta phase;
    `phase_signs` gives each support string its e^{+-i zeta(v)} factor
    (0 for outcome-independent targets).
    """

    lo: float
    hi: float
    parity: object              # int for a pure-parity bin, "a|b" if merged
    target_name: str
    n: int
    weights: tuple
    support: tuple              # branch indices carrying the target
    base_amps: np.ndarray       # (S,) target magnitudes on the support
    phase_signs: np.ndarray     # (S,) in {-1, 0, +1}
    zeta_at: object = field(repr=False, default=None)   # callable v -> zeta
    needs_x_gate: bool = False

    def target_amps(self, v):
        """Support amplitudes of the target at outcome v (vectorized in v)."""
        if self.zeta_at is None:
            return self.base_amps
        z = self.zeta_at(np.asarray(v, dtype=float))
        if np.ndim(v) == 0:
            return self.base_amps * np.exp(1j * self.phase_signs * z)
        return self.base_amps[None, :] * np.exp(
            1j * self.phase_signs[None, :] * np.asarray(z)[:, None])

    def target_at(self, v) -> TargetState:
        """Materialize the full target state at outcome v."""
        amps = np.zeros(2**self.n, dtype=complex)
        amps[list(self.support)] = self.target_amps(float(v))
        return TargetState(self.target_name, self.n, amps,
                           needs_x_gate=self.needs_x_gate)


@dataclass(frozen=True)
class DecisionRule:
    scenario: str
    n: int
    alpha: float
    eta: float
    quadrature: str
    thresholds: tuple
    classes: tuple

    def __post_init__(self):
        if len(self.classes) != len(self.thresholds) + 1:
            raise ValueError("classes must be one more than thresholds")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    def class_index(self, v) -> int:
        return bisect_right(self.thresholds, v)

    def class_at(self, v) -> OutcomeClass:
        return self.classes[self.class_index(v)]

    def class_indices(self, v: np.ndarray) -> np.ndarray:
        """Vectorized class lookup; ties go to the upper interval."""
        return np.searchsorted(np.asarray(self.thresholds), v, side="right")


def _scenario_geometry(scenario, n):
    scenario = _SCENARIO_ALIASES.get(scenario, scenario)
    if scenario == "two_qubit_X":
        return scenario, 2, "X"
    if scenario == "three_qubit_P":
        return scenario, 3, "P"
    if scenario == "gsum_X":
        return scenario, 3, "X"
    if scenario == "n_qubit_P":
        if n is None or n < 2:
            raise ValueError("n_qubit_P needs an explicit n >= 2")
        return scenario, n, "P"
    raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")


def _class_target_name(n, ws):
    if ws == (0, n):
        return "Bell-phi+" if n == 2 else f"GHZ({n})"
    if len(ws) == 1:
        k = ws[0]
        if n == 2 and k == 1:
            return "Bell-psi+"
        return f"W({n})" if k == 1 else f"Dicke({n},{k})"
    if len(ws) == 2:
        return f"Gprime({n},{ws[0]})"
    return f"GHZ({n})|Dicke({n},{n//2})"


def build_decision_rule(scenario, alpha, eta=1.0, n=None) -> DecisionRule:
    """Thresholds and class map for one measurement scenario.

    Bin centers are the eta-scaled branch means sqrt(2) eta alpha cos/sin
    of the class phases (the detector is assumed to know the channel
    transmission); thresholds sit at midpoints of adjacent centers.
    Weight groups whose means coincide are merged: {0, n} always share the
    -alpha label (the GHZ bin), and on the P axis with n = 2k the central
    Dicke weight joins it -- that bin is flagged needs_x_gate.
    """
    scenario, n, axis = _scenario_geometry(scenario, n)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")

    a = eta * alpha
    thetas = {k: (1.0 - 2.0 * k / n) * math.pi for k in range(n + 1)}
    trig = math.cos if axis == "X" else math.sin
    means = {k: math.sqrt(2.0) * a * trig(thetas[k]) for k in range(n + 1)}

    # group weights by (eta-scaled) mean
    tol = 1e-9 * max(1.0, math.sqrt(2.0) * a)
    groups = []   # list of (center, [weights])
    for k in sorted(means, key=lambda k: means[k]):
        if groups and abs(means[k] - groups[-1][0]) <= tol:
            groups[-1][1].append(k)
        else:
            groups.append((means[k], [k]))

    if len(groups) < 2 and not (len(groups) == 1
                                and sorted(groups[0][1]) == [0, n // 2, n]):
        raise DegenerateRuleError(
            f"scenario {scenario} with alpha={alpha}, eta={eta} has no "
            "resolvable bins")

    centers = [g[0] for g in groups]
    thresholds = tuple(0.5 * (c1 + c2) for c1, c2 in zip(centers, centers[1:]))
    bounds = (-math.inf,) + thresholds + (math.inf,)

    classes = []
    for (center, ws), lo, hi in zip(groups, bounds[:-1], bounds[1:]):
        ws = tuple(sorted(ws))
        name = _class_target_name(n, ws)
        needs_x = False
        zeta_at = None

        if ws == (0, n):
            parity = 0
            support, base, signs = _ghz_support(n)
        elif len(ws) == 1:
            k = ws[0]
            parity = k % n
            support = _weight_support(n, k)
            base = np.full(len(support), 1.0 / math.sqrt(len(support)))
            signs = np.zeros(len(support), dtype=int)
        elif len(ws) == 2 and ws[1] == n - ws[0] and axis == "X":
            k = ws[0]
            parity = f"{k}|{n - k}"
            sup_k = _weight_support(n, k)
            sup_nk = _weight_support(n, n - k)
            support = sup_k + sup_nk
            base = np.full(len(support), 1.0 / math.sqrt(len(support)))
            signs = np.concatenate([np.ones(len(sup_k), dtype=int),
                                    -np.ones(len(sup_nk), dtype=int)])
            zeta_at = _make_zeta(a, thetas[k], axis)
        elif sorted(ws) == [0, n // 2, n] and axis == "P" and n % 2 == 0:
            parity = f"0|{n // 2}"
            needs_x = True
            sup_g, _, _ = _ghz_support(n)
            sup_d = _weight_support(n, n // 2)
            support = sup_g + sup_d
            base = np.full(len(support), 1.0 / math.sqrt(len(support)))
            signs = np.concatenate([np.ones(2, dtype=int),
                                    -np.ones(len(sup_d), dtype=int)])
            zeta_at = _make_zeta(a, math.pi, axis)
        else:
            raise DegenerateRuleError(
                f"unresolvable coincidence of weight groups {ws} in {scenario}")

        classes.append(OutcomeClass(
            lo=lo, hi=hi, parity=parity, target_name=name, n=n, weights=ws,
            support=tuple(support), base_amps=base, phase_signs=signs,
            zeta_at=zeta_at, needs_x_gate=needs_x))

    return DecisionRule(scenario=scenario, n=n, alpha=float(alpha),
                        eta=float(eta), quadrature=axis,
                        thresholds=thresholds, classes=tuple(classes))


def _make_zeta(a, theta, axis):
    label = a * complex(math.cos(theta), math.sin(theta))
    return lambda v: _zeta(label, axis, v)


def _weight_support(n, k):
    w = hamming_weights(n)
    return tuple(int(i) for i in np.nonzero(w == k)[0])


def _ghz_support(n):
    support = (0, 2**n - 1)
    base = np.full(2, 1.0 / math.sqrt(2.0))
    return support, base, np.zeros(2, dtype=int)


def classify(v, rule: DecisionRule):
    """Map one outcome to (parity label, target state at that outcome)."""
    cls = rule.class_at(v)
    return cls.parity, cls.target_at(v)


# --- sampling ----------------------------------------------------------------

def sample_outcomes(state: HybridState, quadrature, trials: int, seed) -> np.ndarray:
    """Draw homodyne outcomes: branch by |c_x|^2, then N(mean_x, 1/2).

    Stream layout (fixed for reproducibility): `trials` uniforms pick the
    branches, then 2*`trials` uniforms feed Box-Muller for the normals.
    """
    _check_quadrature(quadrature)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = philox_stream(seed)
    probs = np.abs(state.amps) ** 2
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    branch = np.searchsorted(cum, rng.random(trials), side="right")
    means = quadrature_mean(state.fields, quadrature)[branch]
    return means + _SIGMA * standard_normals(rng, trials)


def sample_outcome(state: HybridState, quadrature, seed) -> float:
    return float(sample_outcomes(state, quadrature, 1, seed)[0])


# --- conditional atomic state --------------------------------------------------

_MAX_DENSE_N = 10      # 2^n x 2^n density matrix cap


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
    gamma = env_overlap_matrix(state)
    rho = (u[:, None] * np.conj(u)[None, :]) * gamma
    return rho / trace


def class_overlap_integrand(state: HybridState, quadrature, cls: OutcomeClass):
    """Precompiled v -> <T(v)| rho~(v) |T(v)> for one bin.

    rho~ is the *unnormalized* conditional state (trace = outcome density);
    integrating this over the bin and dividing by the bin probability gives
    the class fidelity.  The support restriction and environment Gram
    factors are computed once, so the returned callable is cheap inside
    quadrature loops and vectorizes over outcome arrays.
    """
    sup = list(cls.support)
    fields = state.fields[sup]
    amps = state.amps[sup]
    gamma = env_gram(state.env[sup])
    means = quadrature_mean(fields, quadrature)

    def overlap(v):
        tamps = cls.target_amps(v)
        if np.ndim(v) == 0:
            psi = quadrature_wavefunction(fields, quadrature, float(v))
            w = np.conj(tamps) * amps * psi
            return float(np.real(w @ gamma @ np.conj(w)))
        varr = np.asarray(v, dtype=float)
        envl = _QUART_PI * np.exp(-0.5 * (varr[:, None] - means[None, :]) ** 2)
        psi = envl * np.exp(1j * _zeta(fields[None, :], quadrature, varr[:, None]))
        w = np.conj(tamps) * amps[None, :] * psi
        return np.real(np.einsum("ns,st,nt->n", w, gamma, np.conj(w)))

    return overlap


def target_overlap_density(state: HybridState, quadrature, v, cls: OutcomeClass):
    """One-shot <T(v)| rho~(v) |T(v)>; see class_overlap_integrand."""
    return class_overlap_integrand(state, quadrature, cls)(v)


def density_components(state: HybridState, rule: DecisionRule, v: np.ndarray):
    """Per-class component densities over a grid (for curve export).

    Component c sums the branch Gaussians whose Hamming weights feed class
    c; the total density is the sum of all components.
    """
    weights = hamming_weights(state.n)
    means = quadrature_mean(state.fields, rule.quadrature)
    w2 = np.abs(state.amps) ** 2
    out = []
    for cls in rule.classes:
        mask = np.isin(weights, cls.weights)
        comp = np.einsum("b,bn->n", w2[mask],
                         np.exp(-(v[None, :] - means[mask][:, None]) ** 2))
        out.append(comp / math.sqrt(math.pi))
    return out
