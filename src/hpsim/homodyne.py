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

# Scenario table: name -> (quadrature axis, short alias, smallest n,
# largest n).  A scenario whose range holds a single n fixes its qubit count.
# n_qubit_P stops at 15 because the central bin's environment Gram matrix
# takes C(n, n//2)^2 * 16 B: 6435^2 * 16 B = 0.66 GB at n = 15, but
# 12870^2 * 16 B = 2.65 GB at n = 16, and the overlap holds several such
# arrays at once.
SCENARIOS = {
    "two_qubit_X": ("X", "two_qubit", 2, 2),
    "three_qubit_P": ("P", "three_qubit", 3, 3),
    "gsum_X": ("X", "gsum", 3, 3),
    "n_qubit_P": ("P", "n_qubit", 2, 15),
}


def resolve_scenario(scenario, n=None):
    """(canonical name, qubit count, quadrature axis) of a scenario or alias.

    Raises ValueError for an unknown name, a missing n where the scenario
    leaves it open, or an n outside the scenario's range.
    """
    for name, (axis, alias, n_min, n_max) in SCENARIOS.items():
        if scenario in (name, alias):
            break
    else:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {tuple(SCENARIOS)}")
    if n is None:
        if n_min != n_max:
            raise ValueError(f"scenario {name} needs an explicit n in "
                             f"{n_min}..{n_max}")
        return name, n_min, axis
    if not n_min <= n <= n_max:
        if n_min == n_max:
            raise ValueError(f"scenario {name} fixes n={n_min}, got n={n}")
        raise ValueError(f"scenario {name} takes n in {n_min}..{n_max}, "
                         f"got n={n}")
    return name, n, axis


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
    return 0.5 * (w @ erfc(np.subtract.outer(means, np.asarray(v, dtype=float))))


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
        """Support amplitudes of the target at the outcomes in the 1-D array v.

        Shape (len(v), S); just base_amps, shape (S,), when the target does
        not depend on the outcome.
        """
        if self.zeta_at is None:
            return self.base_amps
        z = self.zeta_at(np.asarray(v, dtype=float))
        return self.base_amps * np.exp(1j * self.phase_signs * z[:, None])

    def target_at(self, v) -> TargetState:
        """Materialize the full target state at outcome v."""
        amps = np.zeros(2**self.n, dtype=complex)
        amps[list(self.support)] = np.reshape(self.target_amps([float(v)]), -1)
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


def build_decision_rule(scenario, alpha, eta=1.0, n=None) -> DecisionRule:
    """Thresholds and class map for one measurement scenario.

    Bin centers are the eta-scaled branch means sqrt(2) eta alpha cos/sin
    of the weight-k pulse labels eta alpha e^{i(1 - 2k/n) pi} (the detector
    is assumed to know the channel transmission); thresholds sit at
    midpoints of adjacent centers.  Every group of weights whose means
    coincide becomes one bin (see _outcome_class).
    """
    scenario, n, axis = resolve_scenario(scenario, n)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")

    a = eta * alpha
    thetas = [(1.0 - 2.0 * k / n) * math.pi for k in range(n + 1)]
    labels = [a * complex(math.cos(t), math.sin(t)) for t in thetas]
    trig = math.cos if axis == "X" else math.sin
    means = [math.sqrt(2.0) * a * trig(t) for t in thetas]

    tol = 1e-9 * max(1.0, math.sqrt(2.0) * a)
    if all(abs(lab - labels[0]) <= tol for lab in labels):
        raise DegenerateRuleError(
            f"scenario {scenario} with alpha={alpha}, eta={eta} has no "
            "resolvable bins")

    # group weights by (eta-scaled) mean
    groups = []   # list of (center, [weights])
    for k in sorted(range(n + 1), key=lambda k: means[k]):
        if groups and abs(means[k] - groups[-1][0]) <= tol:
            groups[-1][1].append(k)
        else:
            groups.append((means[k], [k]))

    centers = [g[0] for g in groups]
    thresholds = tuple(0.5 * (c1 + c2) for c1, c2 in zip(centers, centers[1:]))
    bounds = (-math.inf,) + thresholds + (math.inf,)
    weights = hamming_weights(n)
    classes = tuple(
        _outcome_class(lo, hi, n, axis, ws, labels, weights, tol)
        for (_, ws), lo, hi in zip(groups, bounds[:-1], bounds[1:]))
    return DecisionRule(scenario=scenario, n=n, alpha=float(alpha),
                        eta=float(eta), quadrature=axis,
                        thresholds=thresholds, classes=classes)


def _outcome_class(lo, hi, n, axis, ws, labels, weights, tol) -> OutcomeClass:
    """The bin of the weights `ws`, which share one quadrature mean.

    Its target is uniform over the union of the weights' supports, taken in
    (k mod n, k) order.  A bin holds at most two distinct pulse labels --
    conjugates on the X axis, mirror images on the P axis -- whose zeta
    phases are exact negatives, so each support string carries e^{+i zeta}
    if its label is the first weight's and e^{-i zeta} otherwise.  The bin
    needs an X gate when its two labels differ in X mean.
    """
    order = sorted(ws, key=lambda k: (k % n, k))
    first = labels[order[0]]
    sign = {k: 1 if abs(labels[k] - first) <= tol else -1 for k in order}
    two_labels = -1 in sign.values()
    parts = [np.flatnonzero(weights == k) for k in order]
    support = tuple(int(i) for part in parts for i in part)
    signs = np.concatenate([np.full(len(part), sign[k] if two_labels else 0)
                            for k, part in zip(order, parts)])
    residues = list(dict.fromkeys(k % n for k in order))
    parity = residues[0] if len(residues) == 1 else "|".join(map(str, residues))
    needs_x = any(math.sqrt(2.0) * abs(labels[k].real - first.real) > tol
                  for k in order)
    zeta_at = (lambda v: _zeta(first, axis, v)) if two_labels else None
    return OutcomeClass(
        lo=lo, hi=hi, parity=parity,
        target_name=_target_name(n, axis, order, sign), n=n,
        weights=tuple(sorted(ws)), support=support,
        base_amps=np.full(len(support), 1.0 / math.sqrt(len(support))),
        phase_signs=signs, zeta_at=zeta_at, needs_x_gate=needs_x)


def _target_name(n, axis, order, sign):
    """GHZ/W/Dicke per pulse label, joined with '|' when a bin holds two.

    Two-node bins with one label are the Bell pairs; a conjugate pair on
    the X axis is the summed-Dicke state Gprime(n, k).
    """
    comps = [tuple(k for k in order if sign[k] == s) for s in (1, -1)]
    comps = [c for c in comps if c]
    if len(comps) == 2 and axis == "X":
        return f"Gprime({n},{comps[0][0]})"
    if len(comps) == 1 and n == 2:
        return "Bell-phi+" if comps[0] == (0, 2) else "Bell-psi+"
    return "|".join(_label_state_name(n, c) for c in comps)


def _label_state_name(n, ks):
    if len(ks) == 2:                # weights 0 and n share one label
        return f"GHZ({n})"
    k = ks[0]
    return f"W({n})" if k == 1 and n > 2 else f"Dicke({n},{k})"


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
    quadrature loops.  It takes a 1-D array of outcomes.
    """
    sup = list(cls.support)
    fields = state.fields[sup]
    amps = state.amps[sup]
    gamma = env_gram(state.env[sup])
    means = quadrature_mean(fields, quadrature)

    def overlap(v):
        varr = np.asarray(v, dtype=float)
        envl = _QUART_PI * np.exp(-0.5 * (varr[:, None] - means[None, :]) ** 2)
        psi = envl * np.exp(1j * _zeta(fields[None, :], quadrature, varr[:, None]))
        w = np.conj(cls.target_amps(varr)) * amps[None, :] * psi
        # w Gamma w^dag row by row, on BLAS, reusing w for its conjugate
        wg = w @ gamma
        np.conj(w, out=w)
        wg *= w
        return wg.real.sum(1)

    return overlap


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
