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

import numpy as np

from .cavity import check_gamma, reflection_pair, solve_params_for_phase
from .errors import DegenerateRuleError
from .homodyne import (DecisionRule, build_decision_rule,
                       class_overlap_integrand, integrand_rows, integrands,
                       integration_window, outcome_density, quadrature_mean,
                       resolve_scenario, sample_outcomes)
from .hybrid_state import (SectorState, alpha_for_nbar, check_alpha,
                           check_eta, sector_state, sector_states)
from .numerics import check_seed, erfc, integrate_piecewise

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
    list per pair, from one integration of one integrand_rows batch: each
    bin's probability (its state's density) and fidelity numerator (its
    overlap) over the bin's breakpoints.  Rows are elementwise and a panel's
    decision reads only its own points, so a pair's results do not depend
    on the batch.  A bin with P < EMPTY_BIN_P reports fidelity NaN."""
    built = iter(integrand_rows(
        [(state, rule.quadrature, [tuple(range(state.n + 1)), *rule.classes])
         for state, rule in pairs]))
    rows, breakpoints = [], []
    for state, rule in pairs:
        density = next(built)
        for pts in _bin_breakpoints(state, rule):
            rows += [density, next(built)]
            breakpoints += [pts, pts]
    values = iter(integrate_piecewise(integrands(rows), breakpoints, QUAD_TOL))
    return [[ClassResult(parity=cls.parity, target_name=cls.target_name,
                         success_prob=ps, method="quadrature",
                         fidelity=num / ps if ps >= EMPTY_BIN_P else math.nan)
             for cls, ps, num in zip(rule.classes, values, values)]
            for _, rule in pairs]


# --- closed forms --------------------------------------------------------------

def closed_form_two_qubit(alpha: float, eta: float):
    """(P_s, F) of the odd-parity Bell bin for the two-node scheme.

    P_s = [erfc(sqrt2 eta alpha) + erfc(-sqrt2 eta alpha)] / 4  (= 1/2 by the
    erfc reflection identity), and
    F = erfc(-sqrt2 eta alpha) / [erfc(sqrt2 eta alpha) + erfc(-sqrt2 eta alpha)].
    """
    check_alpha(alpha)
    check_eta(eta)
    s = math.sqrt(2.0) * eta * alpha
    hi = erfc(-s)
    lo = erfc(s)
    return (hi + lo) / 4.0, hi / (hi + lo)


# --- Monte Carlo ----------------------------------------------------------------

# Trials per Monte Carlo block.  A block's arrays (outcomes, the (n+1)
# Gaussians of the density, each bin's overlap terms) are freed before the
# next one is drawn, so memory does not grow with the trial count.
MC_BLOCK_TRIALS = 1 << 16

# Most Monte Carlo trials one run takes: a block costs 11-26 ms on a 2-core
# machine, so 10^9 trials take 3-7 minutes.
MAX_TRIALS = 10**9


def monte_carlo_estimate(state: SectorState, rule: DecisionRule,
                         trials: int, seed) -> list:
    """Sample outcomes, classify, and estimate per-bin probability and fidelity.

    Probabilities carry binomial standard errors (NaN with trials < 2).
    Bin fidelity averages <T(v)|rho(v)|T(v)> / density over the bin's
    samples (NaN if empty); fidelity_stderr is the mean's standard error
    (NaN below two hits).  Trials come in blocks of MC_BLOCK_TRIALS stream
    positions (see sample_outcomes); each adds to the per-bin hits, sums and
    squared deviations, so the hits do not depend on the block size.
    """
    check_seed(seed)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    overlaps = [class_overlap_integrand(state, rule.quadrature, cls)
                for cls in rule.classes]
    hits = [0] * len(rule.classes)
    sums = [0.0] * len(rule.classes)
    squares = [0.0] * len(rule.classes)    # summed squared deviations
    for start in range(0, trials, MC_BLOCK_TRIALS):
        samples = sample_outcomes(state, rule.quadrature, trials, seed, start,
                                  min(start + MC_BLOCK_TRIALS, trials))
        dens = outcome_density(state, rule.quadrature, samples)
        # one stable sort: each bin's samples become a slice, in draw order
        idx = rule.class_indices(samples)
        order = np.argsort(idx, kind="stable")
        samples, dens = samples[order], dens[order]
        lo = 0
        for i, hi in enumerate(np.cumsum(np.bincount(
                idx, minlength=len(rule.classes))).tolist()):
            if hi > lo:
                ratio = overlaps[i](samples[lo:hi]) / dens[lo:hi]
                n0, n1, total = hits[i], hi - lo, float(np.sum(ratio))
                dev = ratio - total / n1
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
    eta_sq: float
    gamma_over_kappa: float
    state: SectorState
    rule: DecisionRule              # holds the scenario, n and alpha
    results: tuple                  # quadrature ClassResults
    mc_results: tuple = ()          # present when trials > 0


def check_eta_sq(eta_sq: float) -> None:
    """ValueError unless the channel transmission eta^2 lies in [0, 1]."""
    if not 0.0 <= eta_sq <= 1.0:
        raise ValueError(f"eta_sq must lie in [0, 1], got {eta_sq}")


def prepare_state(scenario: str, alpha: float, eta_sq: float,
                  gamma: float = 0.0, n=None) -> SectorState:
    """Initial product state -> lumped channel -> one CPS gate per node.

    The transmission-eta^2 channel is lumped at the pulse input, before any
    node: a single lumped loss must not imprint gate phases on the
    environment, or it would carry which-path information the lumped model
    is not supposed to have.  Node absorption under gamma > 0 is recorded
    per gate, where it physically occurs (see sector_state).
    """
    _, nq, _ = resolve_scenario(scenario, n)
    check_eta_sq(eta_sq)
    params = replace(solve_params_for_phase(nq), gamma=gamma)
    return sector_state(nq, alpha, math.sqrt(eta_sq), reflection_pair(params))


def run_scenario(scenario: str, alpha: float, eta_sq: float,
                 gamma: float = 0.0, n=None, trials: int = 0,
                 seed=0) -> ScenarioRun:
    check_seed(seed)
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    check_eta_sq(eta_sq)
    rule = build_decision_rule(scenario, alpha, math.sqrt(eta_sq), n=n)
    state = prepare_state(rule.scenario, alpha, eta_sq, gamma, rule.n)
    results, = evaluate_classes([(state, rule)])
    mc = (tuple(monte_carlo_estimate(state, rule, trials, seed))
          if trials > 0 else ())
    return ScenarioRun(eta_sq=float(eta_sq), gamma_over_kappa=float(gamma),
                       state=state, rule=rule, results=tuple(results),
                       mc_results=mc)


# --- parameter sweeps --------------------------------------------------------------

# Grid points per sweep block: one sector_states and one evaluate_classes
# batch each.  Larger blocks cut per-call overhead but grow the integration
# frontier and G (points x n^2) in memory (notes/decisions.md).
SWEEP_BLOCK_POINTS = 8


def sweep(scenario: str, mean_photon_numbers, gammas, eta_sq: float,
          n=None) -> list:
    """Quadrature results over a (mean photon number) x (gamma) grid.

    Points come in order, gamma fastest, and carry the canonical scenario
    name.  Every mean photon number (alpha_for_nbar), gamma (check_gamma)
    and eta_sq (check_eta_sq) is checked before any work.  The phases are
    solved once, each gamma's reflection pair made once.  The grid runs in
    blocks of SWEEP_BLOCK_POINTS points: a block's rules (one per alpha),
    then its states in one sector_states call, then one evaluate_classes
    call, so each point's results equal run_scenario's bit for bit.  A
    point whose pulse resolves no bins (DegenerateRuleError) has none.
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
    check_eta_sq(eta_sq)
    eta_sq = float(eta_sq)
    eta = math.sqrt(eta_sq)
    params = solve_params_for_phase(n)
    reflections = {gamma: reflection_pair(replace(params, gamma=gamma))
                   for gamma in dict.fromkeys(gammas)}
    grid = [(nbar, alpha, gamma)
            for nbar, alpha in zip(nbars, alphas) for gamma in gammas]
    points = []
    for start in range(0, len(grid), SWEEP_BLOCK_POINTS):
        block = grid[start:start + SWEEP_BLOCK_POINTS]
        rules = {}              # per alpha: the rule does not depend on gamma
        for _, alpha, _ in block:
            if alpha not in rules:
                try:
                    rules[alpha] = build_decision_rule(scenario, alpha, eta, n=n)
                except DegenerateRuleError:
                    rules[alpha] = None         # no bins: no results
        live = [(alpha, gamma) for _, alpha, gamma in block if rules[alpha]]
        states = sector_states(n, [(a, eta, reflections[g]) for a, g in live])
        results = iter(evaluate_classes(
            [(state, rules[a]) for state, (a, _) in zip(states, live)]))
        points += [SweepPoint(scenario=scenario, mean_photon_number=nbar,
                              alpha=alpha, gamma_over_kappa=gamma, eta_sq=eta_sq,
                              results=tuple(next(results)) if rules[alpha] else ())
                   for nbar, alpha, gamma in block]
    return points
