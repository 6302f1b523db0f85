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
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import DegenerateRuleError
from .hybrid_state import SectorState, check_alpha, check_eta
from .numerics import philox_stream, standard_normals

_SIGMA = 1.0 / math.sqrt(2.0)      # quadrature standard deviation
WINDOW_SIGMAS = 8.0                # integration window half-width, in sigmas

# Scenario table: name -> (quadrature axis, short alias, smallest n,
# largest n).  A scenario whose range holds a single n fixes its qubit count.
SCENARIOS = {
    "two_qubit_X": ("X", "two_qubit", 2, 2),
    "three_qubit_P": ("P", "three_qubit", 3, 3),
    "gsum_X": ("X", "gsum", 3, 3),
    "n_qubit_P": ("P", "n_qubit", 2, 20),
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


def _zeta_coefficients(label, quadrature):
    """(slope, offset) of the linear zeta(v) = slope v + offset of label f:
    X axis (Im f, -2 Re f Im f), P axis (-2 sqrt2 Re f, 2 Re f Im f)."""
    if quadrature == "X":
        return label.imag, -2.0 * label.real * label.imag
    return -2.0 * math.sqrt(2.0) * label.real, 2.0 * label.real * label.imag


def outcome_density(state: SectorState, quadrature, v):
    """Probability density of the homodyne outcome at each v of an array.
    Atomic orthogonality kills every cross term, so it is the plain mixture
    sum_k p_k |<v|f_k>|^2 over the weights; environment labels drop out."""
    return integrands([density_integrand(state, quadrature)])(v)


def integration_window(state: SectorState, quadrature):
    """[min mean - 8 sigma, max mean + 8 sigma]; truncated tails < 1e-14."""
    means = quadrature_mean(state.fields, quadrature)
    pad = WINDOW_SIGMAS * _SIGMA
    return float(np.min(means) - pad), float(np.max(means) + pad)


# --- decision rules ----------------------------------------------------------

@dataclass(frozen=True)
class OutcomeClass:
    """One detection bin: parity label and target state.

    Bin c of a rule spans [thresholds[c-1], thresholds[c]), with -inf and
    +inf at the two ends.  `weights` lists the Hamming weights whose
    branches feed this bin; the target is uniform over their `size`
    strings.  It may depend on the measured value through the zeta phase:
    `phase_signs` gives each weight its e^{+-i zeta(v)} factor (0 for
    outcome-independent targets).
    """

    parity: object              # int for a pure-parity bin, "a|b" if merged
    target_name: str
    weights: tuple
    size: int                   # sum of C(n, k) over the weights
    phase_signs: tuple          # per weight, in {-1, 0, +1}
    zeta_coefficients: tuple = (0.0, 0.0)   # first label's (slope, offset)
    needs_x_gate: bool = False


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

    def class_indices(self, v: np.ndarray) -> np.ndarray:
        """Vectorized class lookup: how many thresholds v reaches (v >= t, so
        ties go up, as searchsorted side="right"); NaN reaches none: class 0."""
        v = np.asarray(v)
        idx = np.zeros(v.shape, np.min_scalar_type(len(self.thresholds)))
        for t in self.thresholds:
            idx += v >= t
        return idx


def build_decision_rule(scenario, alpha, eta=1.0, n=None) -> DecisionRule:
    """Thresholds and class map for one measurement scenario.

    Bin centers are the eta-scaled branch means sqrt(2) eta alpha cos/sin
    of the weight-k pulse labels eta alpha e^{i(1 - 2k/n) pi} (the detector
    is assumed to know the channel transmission); thresholds sit at
    midpoints of adjacent centers.  Every group of weights whose means
    coincide becomes one bin (see _outcome_class).  A pulse whose labels
    all coincide within the grouping tolerance (eta alpha = 0 among them)
    resolves no bins and raises DegenerateRuleError, a ValueError.
    """
    scenario, n, axis = resolve_scenario(scenario, n)
    check_alpha(alpha)
    check_eta(eta)

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
    classes = tuple(_outcome_class(n, axis, ws, labels, tol)
                    for _, ws in groups)
    return DecisionRule(scenario=scenario, n=n, alpha=float(alpha),
                        eta=float(eta), quadrature=axis,
                        thresholds=thresholds, classes=classes)


def _outcome_class(n, axis, ws, labels, tol) -> OutcomeClass:
    """The bin of the weights `ws`, which share one quadrature mean.

    Its target is uniform over the union of the weights' supports.  A bin
    holds at most two distinct pulse labels -- conjugates on the X axis,
    mirror images on the P axis -- whose zeta phases are exact negatives,
    so each weight carries e^{+i zeta} if its label is that of the first
    weight in (k mod n, k) order and e^{-i zeta} otherwise.  The bin needs
    an X gate when its two labels differ in X mean.
    """
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
        parity=parity, target_name=_target_name(n, axis, order, sign),
        weights=weights, size=sum(math.comb(n, k) for k in weights),
        phase_signs=tuple(sign[k] if two_labels else 0 for k in weights),
        zeta_coefficients=zeta, needs_x_gate=needs_x)


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

def sample_outcomes(state: SectorState, quadrature, trials: int, seed,
                    start: int = 0, stop: int = None) -> np.ndarray:
    """Draw homodyne outcomes: a branch x uniformly, then N(mean_|x|, 1/2).

    Stream layout (fixed for reproducibility): `trials` uniforms pick the
    branches, then `trials` uniforms u1 and `trials` uniforms u2 feed
    Box-Muller for the normals.  Trial t thus reads stream words t,
    trials + t and 2 trials + t.  Only trials start..stop-1 (default: all)
    are drawn, from three generators positioned at those words, so the
    result equals the [start:stop] slice of the full draw and a caller can
    stream a long run in blocks of bounded memory.  The 2^n branches are
    equally likely, so the inverse-CDF pick of the uniform u is
    x = floor(u 2^n), exact for 53-bit uniforms; its weight is the
    popcount of x, read byte by byte from a 256-entry table.
    """
    _check_quadrature(quadrature)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    stop = trials if stop is None else stop
    if not 0 <= start < stop <= trials:
        raise ValueError(f"trial range [{start}, {stop}) is not a non-empty "
                         f"part of [0, {trials})")
    size = stop - start
    uniforms = philox_stream(seed, start).random(size)
    branch = (uniforms * 2.0**state.n).astype(np.int64)
    ones = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], 1).sum(1, np.uint8)
    weight = sum(ones[(branch >> shift) & 255] for shift in range(0, state.n, 8))
    means = quadrature_mean(state.fields, quadrature)[weight]
    normals = standard_normals(philox_stream(seed, trials + start), size,
                               philox_stream(seed, 2 * trials + start))
    return means + _SIGMA * normals


# --- integrands ---------------------------------------------------------------

def integrands(rows):
    """f(v, which=None): integrand which[j] of `rows` at outcome v[j] (1-D
    arrays), or, with which None, the one row's integrand at every v.

    A row holds two parts: 2 x K weight means m_k and coefficients c_k (a
    density's mixture, an overlap's diagonal) and 5 x P pair means m_ip and
    m_jp, amplitudes A_p, slopes s_p and offsets o_p (an overlap's):

        [sum_k c_k e^{-(v - m_k)^2} + sum_p A_p cos(s_p v + o_p)
            e^{-((v - m_ip)^2 + (v - m_jp)^2) / 2}] / sqrt(pi).

    Rows are zero-padded into one table per part, summed slot after slot
    (not pairwise), so a point's value has the same bits in any v."""
    weights, pairs = tables = [
        np.zeros((size, max((row[t].shape[1] for row in rows), default=0),
                  len(rows))) for t, size in enumerate((2, 5))]
    for i, row in enumerate(rows):
        for table, part in zip(tables, row):
            table[:, :part.shape[1], i] = part

    def values(v, which=None):
        def columns(table):     # gathered one table at a time, for memory
            return table if which is None else np.take(table, which, 2)
        v = np.asarray(v, dtype=float)
        total = _gaussian_sum(v, *columns(weights))
        if pairs.shape[1]:
            mi, mj, amps, slopes, offsets = columns(pairs)
            terms = np.exp(-0.5 * ((v - mi) ** 2 + (v - mj) ** 2))
            terms *= np.cos(v * slopes + offsets)
            terms *= amps
            total += reduce(np.add, terms)
        return total / math.sqrt(math.pi)

    return values


def _gaussian_sum(v, means, coefs):
    """sum_k c_k e^{-(v - m_k)^2}, in place, slot after slot."""
    terms = v - means
    terms *= terms
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    terms *= coefs
    return reduce(np.add, terms)


def density_integrand(state: SectorState, quadrature, weights=None):
    """integrands row of the density's mixture over a tuple of weights."""
    parts = [weights or tuple(range(state.n + 1))]
    return integrand_rows([(state, quadrature, parts)])[0]


def overlap_integrand(state: SectorState, quadrature, cls: OutcomeClass):
    """integrands row of v -> <T(v)| rho~(v) |T(v)> for one bin."""
    return integrand_rows([(state, quadrature, [cls])])[0]


def integrand_rows(specs):
    """integrands rows of (state, quadrature, parts) specs, one per part in
    order: overlap_integrand's for an OutcomeClass, else density_integrand's
    over a tuple of weights.  Target and state are uniform within a weight,
    so a bin's <T(v)| rho~(v) |T(v)> is sum_kk' W_k G_kk' conj(W_k'), W_k(v)
    = conj(T_k(v)) <v|f_k> = e_k(v) e^{i phi_k(v)} (phi_k linear in v): with
    H_kk' = G_kk' + conj(G_k'k), weight terms sum_k G_kk e_k^2 and pair terms
    sum_{k<k'} e_k e_k' |H_kk'| cos(phi_k - phi_k' + arg H_kk').  Slots are
    gathered from the states laid end to end, so the numpy calls do not
    grow with the rows, and meet their row's own elementwise operations, so
    the bits do not depend on the batch."""
    if not specs:
        return []
    arrays, slots, pairs, spans, lo, g0 = [], [], [], [], 0, 0
    for state, quadrature, parts in specs:
        _check_quadrature(quadrature)
        arrays.append((state.fields, state.probs, state.coherence.ravel()))
        for part in parts:
            overlap = isinstance(part, OutcomeClass)
            cls = part if overlap else OutcomeClass(None, "", part, 1,
                                                    (0,) * len(part))
            (z0, z1), w0, p0 = cls.zeta_coefficients, len(slots), len(pairs)
            slots += [(lo + k, g0 + k * (state.n + 2), cls.size, z0 * sign,
                       z1 * sign, quadrature == "X", overlap)
                      for k, sign in zip(cls.weights, cls.phase_signs)]
            pairs += [(w0 + a, w0 + b, g0 + ka * (state.n + 1) + kb,
                       g0 + kb * (state.n + 1) + ka) for (a, ka), (b, kb) in
                      combinations(enumerate(cls.weights) if overlap else (), 2)]
            spans.append((w0, len(slots), p0, len(pairs)))
        lo, g0 = lo + state.n + 1, g0 + (state.n + 1) ** 2
    labels, probs, coherence = map(np.concatenate, zip(*arrays))
    at, diag, size, s0, s1, x, overlap = np.array(slots, dtype=float).T
    at, diag = at.astype(int), diag.astype(int)
    a, b, gij, gji = np.array(pairs, dtype=int).reshape(-1, 4).T
    f = labels[at]
    means = np.where(x, quadrature_mean(f, "X"), quadrature_mean(f, "P"))
    # each weight's phase is its own zeta minus s_k times the bin's
    slope, offset = (np.where(x, _zeta_coefficients(f, "X"),
                              _zeta_coefficients(f, "P")) - np.array([s0, s1]))
    pair = coherence[gij] / size[a] + (coherence[gji] / size[a]).conj()
    weight_table = np.array([means, np.where(
        overlap, (coherence[diag] / size).real, probs[at])])
    pair_table = np.array([means[a], means[b], np.abs(pair), slope[a] - slope[b],
                           offset[a] - offset[b] + np.angle(pair)])
    return [(weight_table[:, w0:w1], pair_table[:, p0:p1])
            for w0, w1, p0, p1 in spans]


def class_overlap_integrand(state: SectorState, quadrature, cls: OutcomeClass):
    """The bin's overlap_integrand as a callable on 1-D arrays of outcomes."""
    return integrands([overlap_integrand(state, quadrature, cls)])


def density_components(state: SectorState, rule: DecisionRule, v: np.ndarray):
    """Per-class component densities over a grid (for curve export): the
    density's mixture over the weights that feed each class."""
    return [integrands([density_integrand(state, rule.quadrature,
                                          cls.weights)])(v)
            for cls in rule.classes]
