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
import numbers
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DegenerateRuleError
from .hybrid_state import SectorState, check_alpha
from .numerics import check_trials, philox_stream, standard_normals
from .scenarios import SCENARIOS, resolve_scenario  # noqa: F401 (re-exported)

_SIGMA = 1.0 / math.sqrt(2.0)      # quadrature standard deviation
WINDOW_SIGMAS = 8.0                # integration window half-width, in sigmas
# Most points an integrands evaluator takes at once, and most term values
# it holds: the one layer that slices an integrand's input.  A slice's
# terms are made for as many slots at a time as fill SLICE_POINTS values,
# so its temporaries grow with neither the input nor n.  Simpson's whole
# levels (calls with `which`, whose slices gather their tables' columns
# per point) go in slices of SLICE_POINTS // 8, whose slots mostly fit in
# one group; Monte Carlo blocks and density grids in slices of this size,
# one slot at a time, as does the sampler's draw of a block
# (notes/decisions.md, "Monte Carlo block path", "Monte Carlo without
# fresh pages" and "One layer slices the integrand").
SLICE_POINTS = 1 << 14


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


def outcome_density(state: SectorState, quadrature, v, out=None):
    """Probability density of the homodyne outcome at each v of an array.
    Atomic orthogonality kills every cross term, so it is the plain mixture
    sum_k p_k |<v|f_k>|^2 over the weights (environment labels drop out):
    the integrands density part over every weight, so it has the bits of
    the density Simpson integrates.  out, v's length, takes the values
    (see integrands)."""
    return integrands([(state, quadrature, [tuple(range(state.n + 1))])])(
        v, out=out)


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
    amplitude: float            # a = eta alpha, the pulse at the first node
    quadrature: str
    thresholds: tuple
    classes: tuple

    def __post_init__(self):
        if len(self.classes) != len(self.thresholds) + 1:
            raise ValueError("classes must be one more than thresholds")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    def classify(self, v: np.ndarray):
        """(each v's class index, the number of v in each class), both from
        one comparison per threshold.  The index counts the thresholds v
        reaches (v >= t, so ties go up, as searchsorted side="right"; NaN
        reaches none: class 0), and a class holds the v that reach its
        lower threshold less those that reach its upper one."""
        v = np.asarray(v)
        idx = np.zeros(v.shape, np.min_scalar_type(len(self.thresholds)))
        reach = [v.size]
        for t in self.thresholds:
            above = v >= t
            idx += above
            reach.append(int(np.count_nonzero(above)))
        return idx, [a - b for a, b in zip(reach, reach[1:] + [0])]


def build_decision_rule(scenario, a, n=None) -> DecisionRule:
    """Thresholds and class map for one measurement scenario and pulse
    amplitude a (eta alpha: the detector is assumed to know the channel).

    The weight-k pulse label is a e^{i(1 - 2k/n) pi}, and its branch mean
    sqrt(2) a cos (X) or sin (P) of that phase.  Which weights share a bin
    is exact arithmetic on the phases, not a float comparison: weights j
    and k share a label only when j = k (mod n) (weights 0 and n), and
    share a mean when they share a label or when 2j + 2k = 0 (X axis) or
    n (P axis) (mod 2n).  So every bin is the weights of one or two
    residues r = k mod n (see _outcome_class).  A bin's center is the
    lowest float mean among its weights, and thresholds sit at midpoints
    of adjacent centers.  A pulse whose labels all lie within
    1e-9 max(1, sqrt(2) a) of the first (a = 0 among them) resolves no
    bins and raises DegenerateRuleError, a ValueError.
    """
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

    # residue r shares its mean with residue -r (X) or n/2 - r (P, even n)
    mirror = 0 if axis == "X" else n // 2 if n % 2 == 0 else None
    groups = {}
    for k in range(n + 1):
        r = k % n
        pair = r if mirror is None else (mirror - r) % n
        groups.setdefault(min(r, pair), []).append(k)
    groups = sorted((min(means[k] for k in ws), ws) for ws in groups.values())
    thresholds = tuple(0.5 * (c1 + c2)
                       for (c1, _), (c2, _) in zip(groups, groups[1:]))
    classes = tuple(_outcome_class(n, axis, ws, labels) for _, ws in groups)
    return DecisionRule(scenario=scenario, n=n, amplitude=float(a),
                        quadrature=axis, thresholds=thresholds, classes=classes)


def _outcome_class(n, axis, weights, labels) -> OutcomeClass:
    """The bin of the increasing `weights`, which share one quadrature mean.

    Its target is uniform over the union of the weights' supports.  The
    weights hold one or two residues k mod n, one pulse label each --
    conjugates on the X axis, mirror images on the P axis -- whose zeta
    phases are exact negatives.  So with two, each weight carries
    e^{+i zeta} if it has the lower residue r and e^{-i zeta} otherwise,
    with zeta from weight r's label.  A two-label bin on P needs an X
    gate: its labels differ in X mean, and X-axis conjugates do not.
    """
    residues = sorted({k % n for k in weights})
    two = len(residues) == 2
    return OutcomeClass(
        parity="|".join(map(str, residues)) if two else residues[0],
        target_name=_target_name(n, axis, residues), weights=tuple(weights),
        size=sum(math.comb(n, k) for k in weights),
        phase_signs=tuple((1 if k % n == residues[0] else -1) if two else 0
                          for k in weights),
        zeta_coefficients=(_zeta_coefficients(labels[residues[0]], axis)
                           if two else (0.0, 0.0)),
        needs_x_gate=two and axis == "P")


def _target_name(n, axis, residues):
    """GHZ(n) for residue 0 (weights 0 and n), W(n) for 1 (n > 2) and
    Dicke(n, r) otherwise, joined with '|' when a bin holds two residues.

    Two-node bins with one label are the Bell pairs; a conjugate pair on
    the X axis is the summed-Dicke state Gprime(n, r).
    """
    if len(residues) == 2 and axis == "X":
        return f"Gprime({n},{residues[0]})"
    if len(residues) == 1 and n == 2:
        return "Bell-phi+" if residues == [0] else "Bell-psi+"
    return "|".join(f"GHZ({n})" if r == 0 else f"W({n})" if r == 1 and n > 2
                    else f"Dicke({n},{r})" for r in residues)


# --- sampling ----------------------------------------------------------------

def sample_outcomes(state: SectorState, quadrature, trials: int, seed,
                    start: int = 0, stop: int = None, out=None) -> np.ndarray:
    """Draw homodyne outcomes: a branch x uniformly, then N(mean_|x|, 1/2).

    Stream layout (fixed for reproducibility): `trials` uniforms pick the
    branches, then `trials` uniforms u1 and `trials` uniforms u2 feed
    Box-Muller for the normals.  Trial t thus reads stream words t,
    trials + t and 2 trials + t.  Only trials start..stop-1 (default: all)
    are drawn, from three generators positioned at those words, so the
    result equals the [start:stop] slice of the full draw and a caller can
    stream a long run in blocks of bounded memory.  The 2^n branches are
    equally likely, so the inverse-CDF pick of the uniform u is
    x = floor(u 2^n).  The uniform of stream word w is u = (w >> 11) 2^-53,
    so u 2^n = (w >> 11) 2^(n - 53): for n <= 53 x is the word's top n
    bits, w >> (64 - n), and x's weight is numpy's popcount of x; for
    n > 53 x's low n - 53 bits would always be 0, so such a state is
    refused.  out (a contiguous float64 array of stop - start values; a new
    one by default) is checked before any draw.  Each slice of SLICE_POINTS
    trials draws u1 into its part of out and u2 into one row, makes the
    normals over u1 and adds the means, gathered into the row: a call holds
    no array of its own length but out.
    """
    _check_quadrature(quadrature)
    trials = check_trials(trials, minimum=1)
    stop = trials if stop is None else stop
    integral = all(isinstance(end, numbers.Integral)
                   and not isinstance(end, bool) for end in (start, stop))
    if not (integral and 0 <= start < stop <= trials):
        raise ValueError(f"trial range [{start}, {stop}) is not a non-empty "
                         f"part of [0, {trials})")
    if state.n > 53:
        raise ValueError(f"a uniform double picks among at most 2^53 "
                         f"branches, got n = {state.n}")
    start, stop = operator.index(start), operator.index(stop)
    size = stop - start
    out = np.empty(size) if out is None else out
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == (size,) and out.flags.c_contiguous):
        raise ValueError(f"out must be {size} contiguous float64 values")
    means = quadrature_mean(state.fields, quadrature)
    words = philox_stream(seed, start).bit_generator
    u1s, u2s = (philox_stream(seed, k * trials + start) for k in (1, 2))
    row = np.empty(min(size, SLICE_POINTS))
    weight = np.empty(row.size, np.uint8)
    for lo in range(0, size, SLICE_POINTS):
        part = u1s.random(out=out[lo:lo + SLICE_POINTS])
        standard_normals(part, u2s.random(out=row[:part.size]))
        branch = words.random_raw(part.size)
        branch >>= np.uint64(64 - state.n)
        np.bitwise_count(branch, out=weight[:part.size])
        part *= _SIGMA
        part += np.take(means, weight[:part.size], out=row[:part.size],
                        mode="clip")
    return out


# --- integrands ---------------------------------------------------------------

def integrands(specs):
    """f(v, which=None, out=None): integrand which[j] of the (state,
    quadrature, parts) specs at outcome v[j] (1-D arrays), or, with which
    None, the one integrand at every v, written into out (a float64 array
    of v's length; a new one by default; v itself may be out, as each
    slice is read whole before its values are written).  One integrand per
    part, in order: a bin's
    <T(v)| rho~(v) |T(v)> for an OutcomeClass, else the density's mixture
    over a tuple of weights.  Target and state are uniform within a weight,
    so with W_k(v) = conj(T_k(v)) <v|f_k> = e_k(v) e^{i phi_k(v)} (phi_k
    linear in v) and H_kk' = G_kk' + conj(G_k'k) each is

        [sum_k c_k e^{-(v - m_k)^2} + sum_{k<k'} A_kk' cos(s_kk' v + o_kk')
            e^{-((v - m_k)^2 + (v - m_k')^2) / 2}] / sqrt(pi),

    c_k = G_kk / size (p_k for a density, which has no pairs), A_kk' =
    |H_kk'| / size and s v + o = phi_k - phi_k' + arg H_kk'.  Each term is
    scattered straight into a zero-padded table, at its integrand's column
    and its slot.  Terms are gathered from the states laid end to end, so
    the numpy calls do not grow with the batch, and summed slot after slot
    (not pairwise), so a point's value has the same bits in any v or batch.
    Input is evaluated in slices of SLICE_POINTS points (SLICE_POINTS // 8
    with which) and a slice's terms a group of slots at a time, with the
    same bits: the integrands are elementwise and the sum's order is kept.
    With which, pair terms are made only at the points whose integrand has
    a pair (a density or a one-weight bin has none)."""
    arrays, slots, pairs, count, lo, g0 = [], [], [], 0, 0, 0
    for state, quadrature, parts in specs:
        _check_quadrature(quadrature)
        arrays.append((state.fields, state.probs, state.coherence.ravel()))
        n1 = state.n + 1
        for row, part in enumerate(parts, count):
            overlap = isinstance(part, OutcomeClass)
            cls = part if overlap else OutcomeClass(None, "", part, 1,
                                                    (0,) * len(part))
            (z0, z1), w0 = cls.zeta_coefficients, len(slots)
            slots += [(row, slot, lo + k, g0 + k * (n1 + 1), cls.size,
                       z0 * sign, z1 * sign, quadrature == "X", overlap)
                      for slot, (k, sign) in
                      enumerate(zip(cls.weights, cls.phase_signs))]
            pairs += [(row, slot, w0 + a, w0 + b, g0 + ka * n1 + kb,
                       g0 + kb * n1 + ka) for slot, ((a, ka), (b, kb)) in
                      enumerate(combinations(enumerate(cls.weights), 2)
                                if overlap else ())]
        lo, g0, count = lo + n1, g0 + n1 * n1, count + len(parts)
    labels, probs, coherence = map(np.concatenate, zip(*arrays))
    row, slot, at, diag, size, s0, s1, x, overlap = np.array(slots, float).T
    row, slot, at, diag = (c.astype(int) for c in (row, slot, at, diag))
    prow, pslot, a, b, gij, gji = np.array(pairs, dtype=int).reshape(-1, 6).T
    f = labels[at]
    means = np.where(x, quadrature_mean(f, "X"), quadrature_mean(f, "P"))
    # each weight's phase is its own zeta minus s_k times the bin's
    slope, offset = (np.where(x, _zeta_coefficients(f, "X"),
                              _zeta_coefficients(f, "P")) - np.array([s0, s1]))
    pair = coherence[gij] / size[a] + (coherence[gji] / size[a]).conj()
    weights = np.zeros((2, slot.max() + 1, count))
    weights[:, slot, row] = [means, np.where(
        overlap, (coherence[diag] / size).real, probs[at])]
    pairs = np.zeros((5, pslot.max(initial=-1) + 1, count))
    pairs[:, pslot, prow] = [means[a], means[b], np.abs(pair), slope[a] - slope[b],
                             offset[a] - offset[b] + np.angle(pair)]
    paired = np.zeros(count, bool)      # the integrands with a pair term
    paired[prow] = True

    def values(v, which=None, out=None):
        v = np.asarray(v, dtype=float)
        if out is None:
            out = np.empty(v.shape)
        size = SLICE_POINTS if which is None else SLICE_POINTS // 8
        for lo in range(0, v.size, size):
            hi = lo + size
            part = v[lo:hi]
            group = SLICE_POINTS // part.size   # slots whose terms are held
            if which is None:
                total = _gaussian_sum(part, *weights, group)
                if pairs.shape[1]:
                    total += _pair_sum(part, *pairs, group)
            else:
                cols = which[lo:hi]
                total = _gaussian_sum(part, *np.take(weights, cols, 2), group)
                # pair terms only at the points whose integrand has one
                # (elsewhere they are +0.0): their columns, their values
                hit = np.flatnonzero(paired[cols])
                if hit.size:
                    total[hit] += _pair_sum(
                        part[hit], *np.take(pairs, cols[hit], 2),
                        SLICE_POINTS // hit.size)
            np.divide(total, math.sqrt(math.pi), out=out[lo:hi])
        return out

    return values


def _gaussian_sum(v, means, coefs, group):
    """sum_k c_k e^{-(v - m_k)^2}, slot after slot: the terms of `group`
    slots at a time are made in place, then added row after row."""
    total = None
    for a in range(0, len(means), group):
        terms = v - means[a:a + group]
        terms *= terms
        np.negative(terms, out=terms)
        np.exp(terms, out=terms)
        terms *= coefs[a:a + group]
        total = _sum_rows(terms, total)
    return total


def _pair_sum(v, mi, mj, amps, slopes, offsets, group):
    """sum of A cos(s v + o) e^{-((v - m_i)^2 + (v - m_j)^2) / 2} over the
    pair slots, `group` slots at a time as _gaussian_sum."""
    total = None
    for a in range(0, len(mi), group):
        b = a + group
        terms, other = v - mi[a:b], v - mj[a:b]     # in place from here on
        terms *= terms
        other *= other
        terms += other
        terms *= -0.5
        np.exp(terms, out=terms)
        np.multiply(v, slopes[a:b], out=other)
        other += offsets[a:b]
        np.cos(other, out=other)
        terms *= other
        terms *= amps[a:b]
        total = _sum_rows(terms, total)
    return total


def _sum_rows(terms, total=None):
    """total + terms[0] + terms[1] + ..., added row after row into total
    (not pairwise, and without a temporary per row); with total None, into
    a copy of terms[0]."""
    for row in terms:
        if total is None:
            total = row.copy()
        else:
            total += row
    return total


def class_overlap_integrand(state: SectorState, quadrature, cls: OutcomeClass):
    """The bin's overlap integrand as a callable on 1-D arrays of outcomes."""
    return integrands([(state, quadrature, [cls])])


def density_components(state: SectorState, rule: DecisionRule, v: np.ndarray):
    """Per-class component densities over a grid (for curve export): the
    integrands density part over the weights that feed each class."""
    return [integrands([(state, rule.quadrature, [cls.weights])])(v)
            for cls in rule.classes]
