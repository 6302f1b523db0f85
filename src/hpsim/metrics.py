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
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cavity import reflection_pair, solve_params_for_phase
from .errors import DegenerateRuleError
from .homodyne import (DecisionRule, build_decision_rule,
                       class_overlap_integrand, density_cdf, integration_window,
                       outcome_density, quadrature_mean, resolve_scenario,
                       sample_outcomes)
from .hybrid_state import SectorState, sector_state
from .numerics import erfc, integrate_piecewise

QUAD_TOL = 1e-9

GAMMA_MODEL_NOTE = (
    "gamma > 0 curves use a reconstructed steady-state reflection model with "
    "beam-splitter loss bookkeeping (which-path environment labels); they are "
    "model-dependent, not device-calibrated.")


@dataclass(frozen=True)
class ClassResult:
    parity: object
    target_name: str
    success_prob: float
    fidelity: float
    method: str                     # closed_form | quadrature | monte_carlo
    mc_stderr: float = None


@dataclass(frozen=True)
class SweepPoint:
    scenario: str
    mean_photon_number: float
    alpha: float
    gamma_over_kappa: float
    eta_sq: float
    results: tuple


def _clip_to_window(state, rule, lo, hi):
    wlo, whi = integration_window(state, rule.quadrature)
    return max(lo, wlo), min(hi, whi)


def _segment_points(state, rule, lo, hi):
    means = quadrature_mean(state.fields, rule.quadrature)
    inner = sorted({float(m) for m in means if lo < m < hi})
    return [lo] + inner + [hi]


def success_probability(state: SectorState, rule: DecisionRule,
                        index: int) -> float:
    """Outcome density integrated over one bin (adaptive Simpson, tol 1e-9)."""
    cls = rule.classes[index]
    lo, hi = _clip_to_window(state, rule, cls.lo, cls.hi)
    if hi <= lo:
        return 0.0
    pts = _segment_points(state, rule, lo, hi)
    return integrate_piecewise(
        lambda v: outcome_density(state, rule.quadrature, v), pts, QUAD_TOL)


def interval_probability(state: SectorState, quadrature, lo, hi) -> float:
    """Closed-form bin mass through erfc (dual route to success_probability)."""
    hi_cdf = 1.0 if hi == math.inf else density_cdf(state, quadrature, hi)
    lo_cdf = 0.0 if lo == -math.inf else density_cdf(state, quadrature, lo)
    return hi_cdf - lo_cdf


def fidelity(state: SectorState, rule: DecisionRule, index: int,
             success_prob: float = None) -> float:
    """Average fidelity of the bin's conditional state with its target.

    NaN when the bin's success probability is below 1e-12: an empty bin
    has no conditional state (Monte Carlo reports an empty bin the same way).
    """
    cls = rule.classes[index]
    ps = (success_probability(state, rule, index)
          if success_prob is None else success_prob)
    if ps < 1e-12:
        return math.nan
    lo, hi = _clip_to_window(state, rule, cls.lo, cls.hi)
    pts = _segment_points(state, rule, lo, hi)
    num = integrate_piecewise(class_overlap_integrand(state, rule.quadrature, cls),
                              pts, QUAD_TOL)
    return num / ps


def evaluate_classes(state: SectorState, rule: DecisionRule) -> list:
    """Quadrature ClassResult for every bin of the rule."""
    out = []
    for i, cls in enumerate(rule.classes):
        ps = success_probability(state, rule, i)
        f = fidelity(state, rule, i, success_prob=ps)
        out.append(ClassResult(parity=cls.parity, target_name=cls.target_name,
                               success_prob=ps, fidelity=f, method="quadrature"))
    return out


# --- closed forms --------------------------------------------------------------

def closed_form_two_qubit(alpha: float, eta: float):
    """(P_s, F) of the odd-parity Bell bin for the two-node scheme.

    P_s = [erfc(sqrt2 eta alpha) + erfc(-sqrt2 eta alpha)] / 4  (= 1/2 by the
    erfc reflection identity), and
    F = erfc(-sqrt2 eta alpha) / [erfc(sqrt2 eta alpha) + erfc(-sqrt2 eta alpha)].
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    s = math.sqrt(2.0) * eta * alpha
    hi = erfc(-s)
    lo = erfc(s)
    return (hi + lo) / 4.0, hi / (hi + lo)


# --- Monte Carlo ----------------------------------------------------------------

# Trials per Monte Carlo block.  A block's arrays (outcomes, the (n+1)
# Gaussians of the density, each bin's overlap terms) are freed before the
# next one is drawn, so memory does not grow with the trial count.
MC_BLOCK_TRIALS = 1 << 16


def monte_carlo_estimate(state: SectorState, rule: DecisionRule,
                         trials: int, seed) -> list:
    """Sample outcomes, classify, and estimate per-bin probability and fidelity.

    Probabilities carry binomial standard errors; with trials < 2 the
    stderr is NaN (flagged unreliable).  Bin fidelity averages
    <T(v)|rho(v)|T(v)> over the accepted samples and is NaN for empty bins.
    The trials are drawn in blocks of MC_BLOCK_TRIALS consecutive stream
    positions (see sample_outcomes); each block adds to the per-bin hit
    counts and overlap sums, so the hits do not depend on the block size.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    overlaps = [class_overlap_integrand(state, rule.quadrature, cls)
                for cls in rule.classes]
    hits = [0] * len(rule.classes)
    sums = [0.0] * len(rule.classes)
    for start in range(0, trials, MC_BLOCK_TRIALS):
        samples = sample_outcomes(state, rule.quadrature, trials, seed, start,
                                  min(start + MC_BLOCK_TRIALS, trials))
        idx = rule.class_indices(samples)
        dens = outcome_density(state, rule.quadrature, samples)
        for i, overlap in enumerate(overlaps):
            mask = idx == i
            count = int(np.count_nonzero(mask))
            if count:
                hits[i] += count
                sums[i] += float(np.sum(overlap(samples[mask]) / dens[mask]))
    out = []
    for cls, hit, total in zip(rule.classes, hits, sums):
        phat = hit / trials
        if trials >= 2:
            stderr = math.sqrt(phat * (1.0 - phat) / trials)
        else:
            stderr = math.nan
        fbar = total / hit if hit else math.nan
        out.append(ClassResult(parity=cls.parity, target_name=cls.target_name,
                               success_prob=phat, fidelity=fbar,
                               method="monte_carlo", mc_stderr=stderr))
    return out


# --- full pipeline ---------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioRun:
    scenario: str
    n: int
    alpha: float
    eta_sq: float
    gamma_over_kappa: float
    state: SectorState
    rule: DecisionRule
    results: tuple                  # quadrature ClassResults
    mc_results: tuple = ()          # present when trials > 0


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
    if not 0.0 <= eta_sq <= 1.0:
        raise ValueError(f"eta_sq must lie in [0, 1], got {eta_sq}")
    params = solve_params_for_phase(nq).with_gamma(gamma)
    return sector_state(nq, alpha, math.sqrt(eta_sq), reflection_pair(params))


def run_scenario(scenario: str, alpha: float, eta_sq: float,
                 gamma: float = 0.0, n=None, trials: int = 0,
                 seed=0) -> ScenarioRun:
    _, nq, _ = resolve_scenario(scenario, n)
    rule = build_decision_rule(scenario, alpha, math.sqrt(eta_sq), n=nq)
    state = prepare_state(scenario, alpha, eta_sq, gamma, n)
    results = tuple(evaluate_classes(state, rule))
    mc = (tuple(monte_carlo_estimate(state, rule, trials, seed))
          if trials > 0 else ())
    return ScenarioRun(scenario=scenario, n=nq, alpha=float(alpha),
                       eta_sq=float(eta_sq), gamma_over_kappa=float(gamma),
                       state=state, rule=rule, results=results, mc_results=mc)


# --- parameter sweeps --------------------------------------------------------------

def _sweep_point(args) -> SweepPoint:
    scenario, nbar, gamma, eta_sq, n = args
    alpha = math.sqrt(nbar)
    try:
        results = run_scenario(scenario, alpha, eta_sq, gamma=gamma, n=n).results
    except DegenerateRuleError:
        results = ()            # the pulse resolves no bins: the point has no rows
    return SweepPoint(scenario=scenario, mean_photon_number=nbar, alpha=alpha,
                      gamma_over_kappa=gamma, eta_sq=eta_sq, results=results)


def sweep(scenario: str, mean_photon_numbers, gammas, eta_sq: float,
          n=None, jobs: int = 1) -> list:
    """Quadrature results over a (mean photon number) x (gamma) grid.

    Points are independent work items; with jobs > 1 they are evaluated in
    a process pool of at most min(jobs, points, CPUs) workers and merged by
    index, so the output order (and content) does not depend on the job
    count.
    """
    nbars = list(mean_photon_numbers)
    if not nbars:
        raise ValueError("mean photon number range is empty")
    configs = [(scenario, float(nbar), float(g), float(eta_sq), n)
               for nbar in nbars for g in gammas]
    workers = min(jobs, len(configs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, configs))
    return [_sweep_point(c) for c in configs]


SWEEP_CSV_COLUMNS = ("scenario", "mean_photon_number", "alpha",
                     "gamma_over_kappa", "eta_sq", "class_parity",
                     "target_name", "success_prob", "fidelity", "method",
                     "mc_stderr")


def sweep_rows(points) -> list:
    """Flatten SweepPoints to CSV rows (strings), one row per class result."""
    rows = []
    for pt in points:
        for res in pt.results:
            rows.append([
                pt.scenario, repr(pt.mean_photon_number), repr(pt.alpha),
                repr(pt.gamma_over_kappa), repr(pt.eta_sq), str(res.parity),
                res.target_name, repr(res.success_prob), repr(res.fidelity),
                res.method,
                "" if res.mc_stderr is None else repr(res.mc_stderr),
            ])
    return rows


def write_sweep_csv(points, fileobj):
    """UTF-8 CSV with LF line endings and the mandatory header row."""
    import csv
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    writer.writerows(sweep_rows(points))
