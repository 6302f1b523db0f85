"""Command-line front end: solve-params, simulate, sweep, density.

Reports are JSON, curves are CSV; plotting is left to external tools.
Exit codes: 0 ok, 2 usage/config error, 3 numerical failure.  Outputs are
byte-identical across runs with the same flags and seed: the sampler is a
documented counter-based recipe (see numerics.RNG_ALGORITHM), JSON keys are
sorted, floats are written with shortest round-trip repr, and no timestamps
are embedded.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .cavity import reflection_pair, solve_params_for_phase
from .errors import SimulationError
from .homodyne import SCENARIOS, density_components, resolve_scenario
from .metrics import (GAMMA_MODEL_NOTE, closed_form_two_qubit, run_scenario,
                      sweep, write_sweep_csv)
from .numerics import RNG_ALGORITHM

MODEL_VERSION = (f"hpsim {__version__}; reflection=steady-state-v1; "
                 f"rng={RNG_ALGORITHM}")

# canonical scenario names, then their short aliases
SCENARIO_CHOICES = tuple(SCENARIOS) + tuple(row[1] for row in SCENARIOS.values())

MAX_RANGE_POINTS = 10**6    # start:stop:step ranges; the figures use 41

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    else:
        raw = os.environ.get("HPSIM_DEFAULT_SEED")
        if raw is None:
            return 0
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"HPSIM_DEFAULT_SEED is not an integer: {raw!r}")
    if not 0 <= seed < 2**64:
        raise UsageError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _resolve_alpha(args):
    """--alpha and --nbar are exclusive routes to the pulse amplitude."""
    if args.alpha is not None and args.nbar is not None:
        raise UsageError("give either --alpha or --nbar, not both")
    if args.alpha is not None:
        if not (math.isfinite(args.alpha) and args.alpha >= 0):
            raise UsageError("--alpha must be finite and non-negative")
        return float(args.alpha)
    if args.nbar is not None:
        if not (math.isfinite(args.nbar) and args.nbar >= 0):
            raise UsageError("--nbar must be finite and non-negative")
        return math.sqrt(args.nbar)
    raise UsageError("one of --alpha or --nbar is required")


def _parse_float_list(text):
    """Comma list '0,0.2,0.5' or inclusive range 'start:stop:step'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise UsageError(f"non-numeric range {text!r}")
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"non-finite range {text!r}")
        if step <= 0 or stop < start:
            raise UsageError(f"empty or descending range {text!r}")
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_RANGE_POINTS:
            raise UsageError(f"range {text!r} has more than "
                             f"{MAX_RANGE_POINTS} points")
        return [start + i * step for i in range(int(math.floor(steps)) + 1)]
    try:
        values = [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise UsageError(f"non-numeric list {text!r}")
    if not values:
        raise UsageError(f"empty list {text!r}")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"non-finite value in list {text!r}")
    return values


def _open_out(args):
    if args.out is None or args.out == "-":
        return sys.stdout, False
    return open(args.out, "w", encoding="utf-8", newline=""), True


def _write_text(args, text):
    fh, close = _open_out(args)
    try:
        fh.write(text)
    finally:
        if close:
            fh.close()


def _validate_common(args):
    """Check the shared flags; (canonical scenario, qubit count, axis)."""
    if not 0.0 <= args.eta_sq <= 1.0:
        raise UsageError("--eta-sq must lie in [0, 1]")
    gamma = getattr(args, "gamma", 0.0)
    if isinstance(gamma, float) and not (math.isfinite(gamma) and gamma >= 0):
        raise UsageError("--gamma must be finite and non-negative")
    return resolve_scenario(args.scenario, args.n)


def _num_or_null(x):
    """NaN (single-trial stderr, empty-bin fidelity) becomes JSON null."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return x


def _class_dict(res):
    return {
        "parity": str(res.parity),
        "target": res.target_name,
        "success_prob": res.success_prob,
        "fidelity": _num_or_null(res.fidelity),
        "method": res.method,
        "mc_stderr": _num_or_null(res.mc_stderr),
    }


def cmd_solve_params(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    params = solve_params_for_phase(args.n)
    pair = reflection_pair(params)
    lines = [
        f"n = {args.n}",
        f"delta1 = delta2 = {params.delta1!r} kappa",
        f"g = {params.g!r} kappa  (g^2 = {params.g**2!r} kappa^2)",
        f"phi0 = {math.degrees(pair.phi0):+.6f} deg  (target +180/{args.n})",
        f"phi1 = {math.degrees(pair.phi1):+.6f} deg  (target -180/{args.n})",
    ]
    _write_text(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario, n, _ = _validate_common(args)
    alpha = _resolve_alpha(args)
    if alpha <= 0:
        raise UsageError("simulate needs a positive pulse amplitude")
    seed = _resolve_seed(args)
    if args.trials < 0:
        raise UsageError("--trials must be non-negative")

    run = run_scenario(scenario, alpha, args.eta_sq, gamma=args.gamma,
                       n=n, trials=args.trials, seed=seed)
    report = {
        "model_version": MODEL_VERSION,
        "gamma_model_note": GAMMA_MODEL_NOTE,
        "config": {
            "scenario": scenario,
            "n": run.n,
            "alpha": run.alpha,
            "mean_photon_number": run.alpha**2,
            "eta_sq": run.eta_sq,
            "gamma_over_kappa": run.gamma_over_kappa,
            "quadrature": run.rule.quadrature,
            "trials": args.trials,
            "seed": seed,
        },
        "thresholds": list(run.rule.thresholds),
        "classes": [_class_dict(r) for r in run.results],
    }
    if args.trials > 0:
        report["monte_carlo"] = [_class_dict(r) for r in run.mc_results]
    if scenario == "two_qubit_X":
        ps, f = closed_form_two_qubit(alpha, math.sqrt(args.eta_sq))
        report["closed_form_two_qubit"] = {"success_prob": ps, "fidelity": f}
    _write_text(args, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario, n, _ = _validate_common(args)
    nbars = _parse_float_list(args.nbar)
    gammas = _parse_float_list(args.gamma)
    if any(g < 0 for g in gammas):
        raise UsageError("--gamma values must be non-negative")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    points = sweep(scenario, nbars, gammas, args.eta_sq, n=n, jobs=args.jobs)
    import io
    buf = io.StringIO()
    write_sweep_csv(points, buf)
    _write_text(args, buf.getvalue())
    return EXIT_OK


def cmd_density(args) -> int:
    scenario, n, quadrature = _validate_common(args)
    alpha = _resolve_alpha(args)
    if args.points < 2:
        raise UsageError("--points must be at least 2")

    from .homodyne import build_decision_rule, integration_window, outcome_density
    from .metrics import prepare_state

    state = prepare_state(scenario, alpha, args.eta_sq, gamma=args.gamma, n=n)
    # a zero-amplitude pulse is a single vacuum Gaussian with no bins
    rule = (build_decision_rule(scenario, alpha, math.sqrt(args.eta_sq), n=n)
            if alpha > 0 else None)
    if args.quadrature is not None and args.quadrature != quadrature:
        # override measures the other axis; class bins do not apply there
        quadrature = args.quadrature
        rule = None
    classes = rule.classes if rule is not None else ()
    lo, hi = integration_window(state, quadrature)
    grid = np.linspace(lo, hi, args.points)
    total = outcome_density(state, quadrature, grid)
    comps = density_components(state, rule, grid) if rule is not None else []

    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["v", "density"] + [f"class[{c.parity}]:{c.target_name}"
                                 for c in classes]
    writer.writerow(header)
    for i, v in enumerate(grid):
        writer.writerow([repr(float(v)), repr(float(total[i]))]
                        + [repr(float(comp[i])) for comp in comps])
    _write_text(args, buf.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpsim",
        description="Parity-gate entanglement distribution simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-params",
                        help="cavity settings for conditional phases +-pi/n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve_params)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, choices=SCENARIO_CHOICES)
    common.add_argument("--n", type=int, default=None)
    common.add_argument("--eta-sq", type=float, default=1.0)
    common.add_argument("--out", default=None)

    sim = sub.add_parser("simulate", parents=[common],
                         help="JSON report of bin probabilities and fidelities")
    sim.add_argument("--alpha", type=float, default=None)
    sim.add_argument("--nbar", type=float, default=None)
    sim.add_argument("--gamma", type=float, default=0.0)
    sim.add_argument("--trials", type=int, default=0)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", parents=[common],
                        help="CSV curves over mean photon number and gamma")
    sw.add_argument("--nbar", required=True,
                    help="comma list or start:stop:step range of <n> = alpha^2")
    sw.add_argument("--gamma", default="0",
                    help="comma list of gamma/kappa values")
    sw.add_argument("--jobs", type=int, default=1)
    sw.set_defaults(func=cmd_sweep)

    dn = sub.add_parser("density", parents=[common],
                        help="CSV outcome-density curve with class components")
    dn.add_argument("--alpha", type=float, default=None)
    dn.add_argument("--nbar", type=float, default=None)
    dn.add_argument("--gamma", type=float, default=0.0)
    dn.add_argument("--points", type=int, default=801)
    dn.add_argument("--quadrature", choices=("X", "P"), default=None,
                    help="measure the other axis (class bins then omitted)")
    dn.set_defaults(func=cmd_density)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"hpsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationError as exc:
        print(f"hpsim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
