"""Success probabilities and fidelities, by quadrature, closed form, and MC.

The probability of landing in a detection bin is the outcome density
integrated over the bin; the bin fidelity is

    F = (1/P) * integral over bin of <T(v)| rho~(v) |T(v)> dv

with rho~ the density-weighted (unnormalized) conditional atomic state and
T the bin's target, evaluated at the outcome when the target carries a
zeta phase.  For the symmetric two-node case both reduce to closed erfc
forms, which the adaptive quadrature is held to within 1e-8.

Spontaneous emission enters through the gamma-extended reflection: the
coupled-state reflection contracts and deposits which-path labels in the
environment, so fidelities degrade both through reduced bin separation and
through the Gamma_xy coherence factors.  This reconstruction is flagged in
every report; it is a model choice, not a calibrated device curve.

The module only computes: its results are dataclasses of Python floats,
and cli.py writes every report and CSV from them.
"""

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .cavity import check_gamma, reflection_pair, solve_params_for_phase
from .errors import DegenerateRuleError
from .homodyne import (DecisionRule, build_decision_rule,
                       class_overlap_integrand, integrands, integration_window,
                       outcome_density, quadrature_mean, resolve_scenario,
                       sample_outcomes)
from .hybrid_state import (SectorState, alpha_for_nbar, check_alpha,
                           sector_states)
from .numerics import check_seed, check_trials, erfc, integrate_piecewise

QUAD_TOL = 1e-9
EMPTY_BIN_P = 1e-12      # a bin below this probability has no fidelity


@dataclass(frozen=True)
class ClassResult:
    parity: object
    target_name: str
    success_prob: float
    fidelity: float
    method: str                     # quadrature | monte_carlo
    mc_stderr: float = None         # binomial stderr of success_prob (MC)
    fidelity_stderr: float = None   # standard error of the MC fidelity mean


@dataclass(frozen=True)
class SweepPoint:
    scenario: str
    mean_photon_number: float
    alpha: float
    gamma_over_kappa: float
    eta_sq: float
    results: tuple


def _bin_breakpoints(state: SectorState, rule: DecisionRule) -> list:
    """Per bin c: [thresholds[c-1], thresholds[c]) cut to the integration
    window and split at the branch means inside it; [] outside the window."""
    wlo, whi = integration_window(state, rule.quadrature)
    means = sorted(set(quadrature_mean(state.fields, rule.quadrature).tolist()))
    edges = (-math.inf, *rule.thresholds, math.inf)
    cuts = [(max(lo, wlo), min(hi, whi)) for lo, hi in zip(edges, edges[1:])]
    return [[lo, *(m for m in means if lo < m < hi), hi] if lo < hi else []
            for lo, hi in cuts]


def evaluate_classes(pairs) -> list:
    """Quadrature ClassResults for every bin of each (state, rule) pair, one
    list per pair, from one integration of one integrands batch: each bin's
    probability (its state's one density) and fidelity numerator (its
    overlap) over the bin's breakpoints.  Integrands are elementwise and a
    panel's decision reads only its own points, so a pair's results do not
    depend on the batch.  A bin with P < EMPTY_BIN_P reports fidelity NaN."""
    for state, rule in pairs:
        _check_same_n(state, rule)
    if not pairs:
        return []
    f = integrands([(state, rule.quadrature,
                     [tuple(range(state.n + 1)), *rule.classes])
                    for state, rule in pairs])
    index, breakpoints, density = [], [], 0
    for state, rule in pairs:
        for c, pts in enumerate(_bin_breakpoints(state, rule), density + 1):
            index += [density, c]
            breakpoints += [pts, pts]
        density += 1 + len(rule.classes)
    index = np.array(index)
    # which becomes integrand columns in place ("raise" would buffer out)
    values = iter(integrate_piecewise(
        lambda v, which: f(v, np.take(index, which, out=which, mode="clip")),
        breakpoints, QUAD_TOL))
    return [[ClassResult(parity=cls.parity, target_name=cls.target_name,
                         success_prob=ps, method="quadrature",
                         fidelity=num / ps if ps >= EMPTY_BIN_P else math.nan)
             for cls, ps, num in zip(rule.classes, values, values)]
            for _, rule in pairs]


def _check_same_n(state: SectorState, rule: DecisionRule) -> None:
    if state.n != rule.n:
        raise ValueError(f"state has n={state.n} but rule has n={rule.n}")


# --- closed forms --------------------------------------------------------------

def closed_form_two_qubit(a: float):
    """(P_s, F) of the odd-parity Bell bin for the two-node scheme at pulse
    amplitude a (eta alpha, see pulse_amplitude).

    P_s = [erfc(sqrt2 a) + erfc(-sqrt2 a)] / 4  (= 1/2 by the erfc
    reflection identity), and F = erfc(-sqrt2 a) / [erfc(sqrt2 a) + erfc(-sqrt2 a)].
    Exact in numerics.erfc: erfc(-x) = fl(2 - erfc(x)), erfc(x) in [0, 1],
    sums with erfc(x) to exactly 2.0, so one erfc call gives both numbers.
    """
    check_alpha(a)
    return 0.5, erfc(-math.sqrt(2.0) * a) / 2.0


# --- Monte Carlo ----------------------------------------------------------------

# Trials per Monte Carlo block.  A run makes its block arrays once, sized
# min(trials, MC_BLOCK_TRIALS), and every block writes into them: the
# drawn outcomes, sorted in place (over which each bin's overlaps are
# written), and their densities (over which each bin's ratios and
# deviations are written).  So a run holds 1 MiB of them at this size, and
# no block makes an array of its own length: freed per block, such arrays
# went back to the kernel and the next block faulted them in again
# (notes/decisions.md, "Monte Carlo without fresh pages").  The sampler
# draws a block and the integrands take it in slices of
# homodyne.SLICE_POINTS, into rows of that length: the sampler peaks at
# 0.39 MiB, a density at 0.5 MiB and a bin's overlap at 0.5-0.75 MiB.  A
# run then peaks at 1.58 MB at n = 5 and 1.63 MB at n = 20 (tracemalloc,
# 200,000 trials, after a first run).  The block partition sets the bits
# of the fidelity sums, so the size is fixed.
MC_BLOCK_TRIALS = 1 << 16

def monte_carlo_estimate(state: SectorState, rule: DecisionRule,
                         trials: int, seed) -> list:
    """Sample outcomes, bin them, and estimate per-bin probability and fidelity.

    Probabilities carry binomial standard errors (NaN with trials < 2).
    Bin fidelity averages <T(v)|rho(v)|T(v)> / density over the bin's
    samples (NaN if empty); fidelity_stderr is the mean's standard error
    (NaN below two hits).  Trials come in blocks of MC_BLOCK_TRIALS stream
    positions (see sample_outcomes); each adds to the per-bin hits, sums and
    squared deviations, so the hits do not depend on the block size.  A
    block's samples are sorted by value, so a bin's ratios are summed in
    ascending outcome order within a block.
    """
    trials = check_trials(trials, minimum=1)
    check_seed(seed)
    _check_same_n(state, rule)
    overlaps = [class_overlap_integrand(state, rule.quadrature, cls)
                for cls in rule.classes]
    hits = [0] * len(rule.classes)
    sums = [0.0] * len(rule.classes)
    squares = [0.0] * len(rule.classes)    # summed squared deviations
    # the run's block arrays: every block writes into them
    size = min(trials, MC_BLOCK_TRIALS)
    drawn, densities = np.empty(size), np.empty(size)
    for start in range(0, trials, MC_BLOCK_TRIALS):
        stop = min(start + MC_BLOCK_TRIALS, trials)
        samples = sample_outcomes(state, rule.quadrature, trials, seed, start,
                                  stop, out=drawn[:stop - start])
        # sorted by value, each bin's samples are a slice (v >= t lies
        # above t, so ties go up; samples are never NaN)
        samples.sort()
        ends = [*np.searchsorted(samples, rule.thresholds).tolist(),
                samples.size]
        dens = outcome_density(state, rule.quadrature, samples,
                               out=densities[:samples.size])
        lo = 0
        for i, hi in enumerate(ends):
            if hi > lo:
                n1 = hi - lo
                # the bin's overlaps in place of its samples, its ratios,
                # then their deviations, in place of its densities
                dev = np.divide(overlaps[i](samples[lo:hi],
                                            out=samples[lo:hi]),
                                dens[lo:hi], out=dens[lo:hi])
                n0, total = hits[i], float(np.sum(dev))
                dev -= total / n1
                # Chan et al.'s pairwise update of the squared deviations
                shift = total / n1 - sums[i] / n0 if n0 else 0.0
                squares[i] += float(dev @ dev) + shift**2 * n0 * n1 / (n0 + n1)
                hits[i], sums[i] = n0 + n1, sums[i] + total
            lo = hi
    out = []
    for cls, hit, total, square in zip(rule.classes, hits, sums, squares):
        phat = hit / trials
        stderr = (math.sqrt(phat * (1.0 - phat) / trials) if trials >= 2
                  else math.nan)
        fbar = total / hit if hit else math.nan
        fse = math.sqrt(square / (hit - 1) / hit) if hit >= 2 else math.nan
        out.append(ClassResult(parity=cls.parity, target_name=cls.target_name,
                               success_prob=phat, fidelity=fbar,
                               method="monte_carlo", mc_stderr=stderr,
                               fidelity_stderr=fse))
    return out


# --- full pipeline ---------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioRun:
    alpha: float
    eta_sq: float
    gamma_over_kappa: float
    state: SectorState
    rule: DecisionRule              # holds the scenario, n and a = eta alpha
    results: tuple                  # quadrature ClassResults
    mc_results: tuple = ()          # present when trials > 0


def check_eta_sq(eta_sq: float) -> None:
    """ValueError unless the channel transmission eta^2 lies in [0, 1]."""
    if not 0.0 <= eta_sq <= 1.0:
        raise ValueError(f"eta_sq must lie in [0, 1], got {eta_sq}")


def pulse_amplitude(alpha: float, eta_sq: float) -> float:
    """a = eta alpha, the pulse at the first node, after the eta^2 and alpha
    checks: the lumped input loss only rescales the pulse, and this is the
    one place eta is formed (notes/decisions.md, "One pulse amplitude")."""
    check_eta_sq(eta_sq)
    check_alpha(alpha)
    return math.sqrt(eta_sq) * alpha


def state_route(n: int):
    """The one route to the state at n nodes: pulse a = eta alpha at the
    first node (pulse_amplitude), then one CPS gate per node.  It solves
    the phases once and returns states(points): the SectorStates of (a,
    gamma) points from one sector_states call, each gamma's reflection pair
    (whose CavityParams checks gamma) made once, when states first sees it.
    The transmission-eta^2 channel is lumped at the pulse input, before any
    node: a single lumped loss must not imprint gate phases on the
    environment, or it would carry which-path information the lumped model
    is not supposed to have.  Node absorption under gamma > 0 is recorded
    per gate, where it physically occurs (see sector_states).
    """
    params = solve_params_for_phase(n)
    pairs = {}

    def states(points) -> list:
        for gamma in dict.fromkeys(g for _, g in points if g not in pairs):
            pairs[gamma] = reflection_pair(replace(params, gamma=gamma))
        return sector_states(n, [(a, pairs[gamma]) for a, gamma in points])
    return states


def prepare_state(scenario: str, alpha: float, eta_sq: float,
                  gamma: float = 0.0, n=None) -> SectorState:
    """One point of state_route.  Scenario, n, eta^2 and alpha are checked
    before the phase solve, gamma after it."""
    _, n, _ = resolve_scenario(scenario, n)
    return state_route(n)([(pulse_amplitude(alpha, eta_sq), gamma)])[0]


def run_scenario(scenario: str, alpha: float, eta_sq: float,
                 gamma: float = 0.0, n=None, trials: int = 0,
                 seed=0) -> ScenarioRun:
    trials = check_trials(trials)
    check_seed(seed)
    check_eta_sq(eta_sq)
    scenario, n, _ = resolve_scenario(scenario, n)
    a = pulse_amplitude(alpha, eta_sq)
    rule = build_decision_rule(scenario, a, n=n)
    state, = state_route(n)([(a, gamma)])
    results, = evaluate_classes([(state, rule)])
    mc = (tuple(monte_carlo_estimate(state, rule, trials, seed))
          if trials > 0 else ())
    return ScenarioRun(alpha=float(alpha), eta_sq=float(eta_sq),
                       gamma_over_kappa=float(gamma), state=state, rule=rule,
                       results=tuple(results), mc_results=mc)


# --- parameter sweeps --------------------------------------------------------------

# Grid points per sweep block: one sector_states and one evaluate_classes
# batch each.  Larger blocks cut the per-level overhead of the integration
# but grow its frontier and G (points x (n+1)^2) in memory; the integrand's
# own working set is bounded by its evaluator's slices, whatever the block
# (notes/decisions.md, "Sliced Simpson levels and 32-point sweep blocks").
SWEEP_BLOCK_POINTS = 32


def sweep(scenario: str, mean_photon_numbers, gammas, eta_sq: float, n=None):
    """Quadrature results over a (mean photon number) x (gamma) grid: an
    iterator of SweepPoints, each made when it is read.

    Every mean photon number (alpha_for_nbar), gamma (check_gamma) and
    eta_sq (pulse_amplitude) is checked when sweep is called, before any
    work.  Points come in order, gamma fastest, and carry the canonical
    scenario name.  One state_route serves the sweep, so the phases are
    solved once and each gamma's reflection pair made once.  The grid runs
    in blocks of SWEEP_BLOCK_POINTS points, and only the current block is
    held: its rules (one per a), its states in one states call, then one
    evaluate_classes call, so each point's results equal run_scenario's bit
    for bit.  A point whose pulse resolves no bins has none.
    """
    nbars = [float(nbar) for nbar in mean_photon_numbers]
    gammas = [float(gamma) for gamma in gammas]
    if not nbars:
        raise ValueError("mean photon number range is empty")
    alphas = [alpha_for_nbar(nbar) for nbar in nbars]
    if not gammas:
        raise ValueError("gamma range is empty")
    for gamma in gammas:
        check_gamma(gamma)
    scenario, n, _ = resolve_scenario(scenario, n)
    amplitudes = [pulse_amplitude(alpha, eta_sq) for alpha in alphas]
    eta_sq = float(eta_sq)

    def points():
        states = state_route(n)
        grid = ((nbar, alpha, a, gamma) for nbar, alpha, a
                in zip(nbars, alphas, amplitudes) for gamma in gammas)
        while block := list(islice(grid, SWEEP_BLOCK_POINTS)):
            rules = {}          # per a: the rule does not depend on gamma
            for _, _, a, _ in block:
                if a not in rules:
                    try:
                        rules[a] = build_decision_rule(scenario, a, n=n)
                    except DegenerateRuleError:
                        rules[a] = None         # no bins: no results
            live = [(a, gamma) for _, _, a, gamma in block if rules[a]]
            results = iter(evaluate_classes(list(zip(
                states(live), [rules[a] for a, _ in live]))))
            for nbar, alpha, a, gamma in block:
                found = tuple(next(results)) if rules[a] else ()
                yield SweepPoint(scenario=scenario, mean_photon_number=nbar,
                                 alpha=alpha, gamma_over_kappa=gamma,
                                 eta_sq=eta_sq, results=found)
    return points()
