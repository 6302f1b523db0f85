"""Command-line front end: solve-params, simulate, sweep, density.

Reports are JSON, curves are CSV; plotting is left to external tools.
Every output format lives here: the JSON report, and the CSV curves, whose
text cells go through one CSV writer (_csv) and floats through repr.
Exit codes: 0 ok, 2 usage/config error (including an --out file that
cannot be written), 3 numerical failure; main() returns the code, also
argparse's for --help and flag errors.  The CLI checks only its own flags
(the --alpha/--nbar route, ranges, caps, --jobs, the seed's source); the
library function that takes a run input checks it, so an error line names
the library parameter (e.g. "gamma must be finite and non-negative, at most
1e+16, got -0.1").  Each bound has one check: alpha
(hybrid_state.check_alpha), mean photon number (hybrid_state.alpha_for_nbar,
which --nbar goes through in every command), gamma (cavity.check_gamma),
trials (numerics.check_trials) and the seed (numerics.check_seed).  Within
the bounds no input reaches a SimulationError: exit 3 is kept for library
failures (see errors.py).
Each command checks its inputs, then returns its output as lines made as
they are read, and main() writes them.  The parser, --help, flag errors and
solve-params run without numpy: the library loads when a computing command
runs (see _HOME).  Outputs are byte-identical across runs with the same
flags and seed on one numpy build and CPU feature set: the sampler is a
documented counter-based recipe (see numerics.RNG_ALGORITHM), JSON keys are
sorted, floats are written with shortest round-trip repr, and no timestamps
are embedded.  numpy picks its exp, log and cos kernels by CPU features, so
across CPU dispatch the last bits of printed floats may move, while the text
and the Monte Carlo hit counts do not (notes/decisions.md, "Byte identity:
one numpy build and CPU feature set").
"""

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from importlib import import_module

from . import __version__
from .errors import DegenerateRuleError, SimulationError
from .scenarios import SCENARIOS, resolve_scenario

# The library names the commands read from this module's globals, and their
# home modules.  Each is bound on first access (__getattr__), and main binds
# a command's names before it runs it, so the parser, --help, flag errors
# and solve-params load no numpy.  A name already set (a tracer's wrapper, a
# test's monkeypatch) is kept, so every call goes through these globals.
_HOME = {"reflection_pair": "cavity", "solve_params_for_phase": "cavity",
         "density_components": "homodyne", "alpha_for_nbar": "hybrid_state",
         "closed_form_two_qubit": "metrics", "run_scenario": "metrics",
         "sweep": "metrics", "RNG_ALGORITHM": "numerics",
         "check_seed": "numerics"}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(f"{__package__}.{_HOME[name]}")
    value = globals()[name] = getattr(home, name)
    return value


GAMMA_MODEL_NOTE = (
    "gamma > 0 curves use a reconstructed steady-state reflection model with "
    "beam-splitter loss bookkeeping (which-path environment labels); they are "
    "model-dependent, not device-calibrated.")

SWEEP_CSV_COLUMNS = ("scenario", "mean_photon_number", "alpha",
                     "gamma_over_kappa", "eta_sq", "class_parity",
                     "target_name", "success_prob", "fidelity", "method",
                     "mc_stderr")

# canonical scenario names, then their short aliases
SCENARIO_CHOICES = tuple(SCENARIOS) + tuple(row[1] for row in SCENARIOS.values())

MAX_RANGE_POINTS = 10**6    # ranges, sweep grids, density grids; figures: 41

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("HPSIM_DEFAULT_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"HPSIM_DEFAULT_SEED is not an integer: {raw!r}")
    return check_seed(seed)


def _resolve_alpha(args):
    """--alpha and --nbar are exclusive routes to the pulse amplitude."""
    if args.alpha is not None and args.nbar is not None:
        raise ValueError("give either --alpha or --nbar, not both")
    if args.alpha is not None:
        return args.alpha   # the library bounds it (hybrid_state.check_alpha)
    if args.nbar is not None:
        return alpha_for_nbar(args.nbar)
    raise ValueError("one of --alpha or --nbar is required")


def _parse_float_list(text):
    """Comma list '0,0.2,0.5' or inclusive range 'start:stop:step'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"non-numeric range {text!r}")
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"non-finite range {text!r}")
        if step <= 0 or stop < start:
            raise ValueError(f"empty or descending range {text!r}")
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_RANGE_POINTS:
            raise ValueError(f"range {text!r} has more than "
                             f"{MAX_RANGE_POINTS} points")
        return [start + i * step for i in range(int(math.floor(steps)) + 1)]
    try:
        values = [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise ValueError(f"non-numeric list {text!r}")
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def _num_or_null(x):
    """NaN (single-trial stderr, empty-bin fidelity) becomes JSON null."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return x


def _csv(header, rows):
    """UTF-8 CSV lines with LF endings, the header first, each made as it is
    read: writerow returns what its file's write returns, and str gives
    back the line."""
    writer = csv.writer(argparse.Namespace(write=str), lineterminator="\n")
    yield writer.writerow(header)
    yield from map(writer.writerow, rows)


def _class_dict(res):
    return {
        "parity": str(res.parity),
        "target": res.target_name,
        "success_prob": res.success_prob,
        "fidelity": _num_or_null(res.fidelity),
        "method": res.method,
        "mc_stderr": _num_or_null(res.mc_stderr),
    }


def cmd_solve_params(args) -> list:
    params = solve_params_for_phase(args.n)
    pair = reflection_pair(params)
    lines = [
        f"n = {args.n}",
        f"delta1 = delta2 = {params.delta1!r} kappa",
        f"g = {params.g!r} kappa  (g^2 = {params.g**2!r} kappa^2)",
        f"phi0 = {math.degrees(pair.phi0):+.6f} deg  (target +180/{args.n})",
        f"phi1 = {math.degrees(pair.phi1):+.6f} deg  (target -180/{args.n})",
    ]
    return [line + "\n" for line in lines]


def cmd_simulate(args) -> list:
    alpha = _resolve_alpha(args)
    seed = _resolve_seed(args)
    run = run_scenario(args.scenario, alpha, args.eta_sq, gamma=args.gamma,
                       n=args.n, trials=args.trials, seed=seed)
    report = {
        "model_version": (f"hpsim {__version__}; reflection=steady-state-v1; "
                          f"rng={RNG_ALGORITHM}"),
        "gamma_model_note": GAMMA_MODEL_NOTE,
        "config": {
            "scenario": run.rule.scenario,
            "n": run.rule.n,
            "alpha": run.alpha,
            "mean_photon_number": (run.alpha**2 if args.nbar is None
                                   else args.nbar),
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
    if run.rule.scenario == "two_qubit_X":
        ps, f = closed_form_two_qubit(run.rule.amplitude)
        report["closed_form_two_qubit"] = {"success_prob": ps, "fidelity": f}
    return [json.dumps(report, indent=2, sort_keys=True) + "\n"]


def cmd_sweep(args):
    nbars = _parse_float_list(args.nbar)
    gammas = _parse_float_list(args.gamma)
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if len(nbars) * len(gammas) > MAX_RANGE_POINTS:
        raise ValueError(f"sweep grid of {len(nbars)} x {len(gammas)} points "
                         f"has more than {MAX_RANGE_POINTS} points")
    points = sweep(args.scenario, nbars, gammas, args.eta_sq, n=args.n)
    return _csv(SWEEP_CSV_COLUMNS, (
        [pt.scenario, repr(pt.mean_photon_number), repr(pt.alpha),
         repr(pt.gamma_over_kappa), repr(pt.eta_sq), str(res.parity),
         res.target_name, repr(res.success_prob), repr(res.fidelity),
         res.method, "" if res.mc_stderr is None else repr(res.mc_stderr)]
        for pt in points for res in pt.results))


def cmd_density(args):
    scenario, n, quadrature = resolve_scenario(args.scenario, args.n)
    alpha = _resolve_alpha(args)
    if not 2 <= args.points <= MAX_RANGE_POINTS:
        raise ValueError(f"--points must lie in 2..{MAX_RANGE_POINTS}")

    from .homodyne import (SLICE_POINTS, build_decision_rule,
                           integration_window, outcome_density)
    from .metrics import pulse_amplitude, state_route

    a = pulse_amplitude(alpha, args.eta_sq)
    state, = state_route(n)([(a, args.gamma)])
    rule = None     # an override measures the other axis: no class bins there
    if args.quadrature in (None, quadrature):
        with contextlib.suppress(DegenerateRuleError):  # no bins: no columns
            rule = build_decision_rule(scenario, a, n=n)
    quadrature = args.quadrature or quadrature
    classes = rule.classes if rule is not None else ()
    lo, hi = integration_window(state, quadrature)
    header = ["v", "density"] + [f"class[{c.parity}]:{c.target_name}"
                                 for c in classes]

    # one slice of the grid at a time, as it is read: its curves become
    # Python floats (tolist), freed before the next slice is evaluated, and
    # each row is joined from their reprs, which need no CSV quoting
    def lines():
        yield from _csv(header, ())
        for v in _linspace_slices(lo, hi, args.points, SLICE_POINTS):
            yield from (",".join(map(repr, row)) + "\n" for row in zip(*(
                curve.tolist() for curve in (
                    v, outcome_density(state, quadrature, v),
                    *(density_components(state, rule, v) if rule else ())))))
    return lines()


def _linspace_slices(lo, hi, points, size):
    """np.linspace(lo, hi, points), points >= 2, in slices of at most size
    points, with linspace's arithmetic: point i is i * step + lo, step =
    (hi - lo) / (points - 1), and the last point is hi."""
    import numpy as np
    step = (hi - lo) / (points - 1)
    for at in range(0, points, size):
        v = np.arange(at, min(at + size, points), dtype=float)
        v *= step
        v += lo
        if at + size >= points:
            v[-1] = hi
        yield v


@functools.cache      # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpsim",
        description="Parity-gate entanglement distribution simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-params",
                        help="cavity settings for conditional phases +-pi/n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve_params,
                    library=("reflection_pair", "solve_params_for_phase"))

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, choices=SCENARIO_CHOICES)
    common.add_argument("--n", type=int, default=None)
    common.add_argument("--eta-sq", type=float, default=1.0)
    common.add_argument("--out", default=None)

    # one pulse and one gamma: simulate and density
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--alpha", type=float, default=None)
    point.add_argument("--nbar", type=float, default=None)
    point.add_argument("--gamma", type=float, default=0.0)

    sim = sub.add_parser("simulate", parents=[common, point],
                         help="JSON report of bin probabilities and fidelities")
    sim.add_argument("--trials", type=int, default=0)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate, library=_HOME)

    sw = sub.add_parser("sweep", parents=[common],
                        help="CSV curves over mean photon number and gamma")
    sw.add_argument("--nbar", required=True,
                    help="comma list or start:stop:step range of <n> = alpha^2")
    sw.add_argument("--gamma", default="0",
                    help="comma list or start:stop:step range of gamma/kappa "
                         "values")
    sw.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility (at least 1); sweeps "
                         "run in one process")
    sw.set_defaults(func=cmd_sweep, library=_HOME)

    dn = sub.add_parser("density", parents=[common, point],
                        help="CSV outcome-density curve with class components")
    dn.add_argument("--points", type=int, default=801)
    dn.add_argument("--quadrature", choices=("X", "P"), default=None,
                    help="measure the other axis (class bins then omitted)")
    dn.set_defaults(func=cmd_density, library=_HOME)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # --help (0) or a flag error (2)
        return exc.code
    for name in [n for n in args.library if n not in globals()]:
        __getattr__(name)           # a name already set is kept
    try:
        lines = args.func(args)
        with (contextlib.nullcontext(sys.stdout) if args.out in (None, "-")
              else open(args.out, "w", encoding="utf-8", newline="")) as fh:
            fh.writelines(lines)
    except ValueError as exc:
        print(f"hpsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationError as exc:
        print(f"hpsim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"hpsim: error: cannot write {args.out or 'stdout'}: "
              f"{exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
