"""Span tracer for the benchmark's traced run.

Timing wrappers are installed on hpsim's public functions at the module
attributes where the pipeline looks them up (for example
`hpsim.metrics.outcome_density`, which `success_probability` reads from its
own module globals).  Every wrapped call records a span -- name, start, end,
parent span and task -- in memory; self times are computed from the spans
after the run.  Counts (points, branches, Gram entries, ...) are taken from
the calls' results at the same boundaries.

A lookup site that no longer exists is skipped, and the metrics that depend
on it are reported as absent instead of failing the run.
"""

import time
from collections import defaultdict

import numpy as np

_INTEGRATOR = "numerics.integrate_piecewise"


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.tasks = []
        self.stack = []
        self.task = -1
        self.counts = defaultdict(int)
        self.installed = set()      # span names with at least one live site
        self.broken = set()         # span names whose count hook raised
        self._patched = []          # (module, attr, original) to restore

    def call(self, name, fn, *args, hook=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; hook may replace the result."""
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.tasks.append(self.task)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(self.clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[sid] = self.clock()
            self.stack.pop()
        if hook is not None:
            try:
                result = hook(self, sid, result)
            except Exception:       # a renamed field must not end the run
                self.broken.add(name)
        return result

    def wrap(self, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def parent_name(self, sid):
        parent = self.parents[sid]
        return self.names[parent] if parent >= 0 else None

    def install(self, modules, sites):
        """Patch each (module, attr) lookup site; return the missing sites."""
        missing = []
        for name, places, hook in sites:
            wrappers = {}
            for mod_name, attr in places:
                mod = modules.get(mod_name)
                fn = getattr(mod, attr, None) if mod is not None else None
                if fn is None or not callable(fn):
                    missing.append(f"{mod_name}.{attr}")
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn, hook)
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
                self.installed.add(name)
        return missing

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent interval and merged, so overlapping
    or out-of-order children are not counted twice.
    """
    starts = list(map(float, starts))
    ends = list(map(float, ends))
    parents = [int(p) for p in parents]
    out = [e - s for s, e in zip(starts, ends)]
    kids = sorted((p, starts[i], i) for i, p in enumerate(parents) if p >= 0)
    current, lo, hi = -1, 0.0, 0.0
    for p, _, i in kids:
        s = max(starts[i], starts[p])
        e = min(ends[i], ends[p])
        if p != current:
            if current >= 0:
                out[current] -= hi - lo
            current, lo, hi = p, s, max(s, e)
        elif s > hi:
            out[p] -= hi - lo
            lo, hi = s, max(s, e)
        else:
            hi = max(hi, e)
    if current >= 0:
        out[current] -= hi - lo
    return np.asarray(out)


# --- count hooks: read work done from each call's result -----------------------

def _count_points(prefix):
    def hook(tracer, sid, result):
        points = int(np.size(result))
        tracer.counts[f"{prefix}_calls"] += 1
        tracer.counts[f"{prefix}_points"] += points
        if tracer.parent_name(sid) == _INTEGRATOR:
            tracer.counts["integrand_points"] += points
        return result
    return hook


def _count_calls(key):
    def hook(tracer, sid, result):
        tracer.counts[key] += 1
        return result
    return hook


def _wrap_overlap(tracer, sid, overlap):
    """Trace the callables that class_overlap_integrand returns."""
    return tracer.wrap("homodyne.overlap", overlap, _count_points("overlap"))


def _count_samples(tracer, sid, result):
    tracer.counts["samples"] += int(np.size(result))
    return result


def _count_gram(tracer, sid, result):
    tracer.counts["gram_entries"] += int(np.size(result))
    return result


def _count_branches(tracer, sid, result):
    tracer.counts["branches"] += int(np.size(result.amps))
    return result


class _TimedGenerator:
    """Generator proxy that records a span around every draw of uniforms."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def random(self, *args, **kwargs):
        return self._tracer.call("numerics.random", self._rng.random,
                                 *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def _time_generator(tracer, sid, rng):
    return _TimedGenerator(rng, tracer)


# (span name, lookup sites, count hook).  The sites are where the pipeline
# reads each function at call time; cli.density imports from hpsim.metrics
# and hpsim.homodyne inside the command, so those module attributes cover it.
SITES = (
    ("metrics.run_scenario", [("cli", "run_scenario"),
                              ("metrics", "run_scenario")],
     _count_calls("points")),
    ("metrics.sweep", [("cli", "sweep")], None),
    ("metrics.closed_form_two_qubit", [("cli", "closed_form_two_qubit")], None),
    ("metrics.prepare_state", [("metrics", "prepare_state")], None),
    ("metrics.evaluate_classes", [("metrics", "evaluate_classes")], None),
    ("metrics.success_probability", [("metrics", "success_probability")], None),
    ("metrics.fidelity", [("metrics", "fidelity")], None),
    ("metrics.monte_carlo_estimate", [("metrics", "monte_carlo_estimate")],
     None),
    ("cavity.solve_params_for_phase", [("cli", "solve_params_for_phase"),
                                       ("metrics", "solve_params_for_phase")],
     _count_calls("solves")),
    ("cavity.reflection_pair", [("cli", "reflection_pair"),
                                ("metrics", "reflection_pair")], None),
    ("hybrid_state.init_plus_state", [("metrics", "init_plus_state")],
     _count_branches),
    ("hybrid_state.apply_channel_loss", [("metrics", "apply_channel_loss")],
     None),
    ("hybrid_state.apply_cps", [("metrics", "apply_cps")], None),
    ("hybrid_state.env_gram", [("homodyne", "env_gram")], _count_gram),
    (_INTEGRATOR, [("metrics", "integrate_piecewise")],
     _count_calls("integrals")),
    ("homodyne.outcome_density", [("metrics", "outcome_density"),
                                  ("homodyne", "outcome_density")],
     _count_points("density")),
    ("homodyne.class_overlap_integrand", [("metrics", "class_overlap_integrand")],
     _wrap_overlap),
    ("homodyne.build_decision_rule", [("metrics", "build_decision_rule"),
                                      ("homodyne", "build_decision_rule")], None),
    ("homodyne.sample_outcomes", [("metrics", "sample_outcomes")],
     _count_samples),
    ("homodyne.density_components", [("cli", "density_components")], None),
    ("numerics.philox_stream", [("homodyne", "philox_stream")],
     _time_generator),
    ("numerics.standard_normals", [("homodyne", "standard_normals")], None),
)

# Spans created by the tracer itself rather than by an installed site.
_DERIVED = {"homodyne.overlap": "homodyne.class_overlap_integrand",
            "numerics.random": "numerics.philox_stream",
            "cli.main": None}


# Per-layer metrics: name -> (unit, spans it needs, kind, argument).
# Kinds: "count" reads a counter, "bytes" is 16 bytes per counted complex
# entry (computed from shapes, not measured), "ratio" divides two counters,
# "self" sums the self times and "incl" the whole durations of the listed
# spans.  Times are in seconds, from the traced run.
_RNG = ("numerics.philox_stream", "numerics.standard_normals", "numerics.random")
_PREPARE = ("hybrid_state.init_plus_state", "hybrid_state.apply_channel_loss",
            "hybrid_state.apply_cps")
_CAVITY = ("cavity.solve_params_for_phase", "cavity.reflection_pair")
_DENSITY = "homodyne.outcome_density"
_OVERLAP = "homodyne.overlap"
_GRAM = "hybrid_state.env_gram"

LAYER_METRICS = {
    "numerics.integrals": ("count", [_INTEGRATOR], "count", "integrals"),
    "numerics.points_per_integral": (
        "points/integral", [_INTEGRATOR, _DENSITY, _OVERLAP],
        "ratio", ("integrand_points", "integrals")),
    "numerics.quad_self_s": ("s", [_INTEGRATOR], "self", (_INTEGRATOR,)),
    "numerics.rng_s": ("s", list(_RNG), "self", _RNG),
    "homodyne.density_calls": ("count", [_DENSITY], "count", "density_calls"),
    "homodyne.density_points": ("count", [_DENSITY], "count", "density_points"),
    "homodyne.density_s": ("s", [_DENSITY], "self", (_DENSITY,)),
    "homodyne.overlap_calls": ("count", [_OVERLAP], "count", "overlap_calls"),
    "homodyne.overlap_points": ("count", [_OVERLAP], "count", "overlap_points"),
    "homodyne.overlap_s": ("s", [_OVERLAP], "self", (_OVERLAP,)),
    "homodyne.overlap_setup_s": ("s", ["homodyne.class_overlap_integrand"],
                                 "self", ("homodyne.class_overlap_integrand",)),
    "homodyne.samples": ("count", ["homodyne.sample_outcomes"],
                         "count", "samples"),
    "homodyne.sample_s": ("s", ["homodyne.sample_outcomes"],
                          "self", ("homodyne.sample_outcomes",)),
    "homodyne.rule_s": ("s", ["homodyne.build_decision_rule"],
                        "self", ("homodyne.build_decision_rule",)),
    "homodyne.components_s": ("s", ["homodyne.density_components"],
                              "self", ("homodyne.density_components",)),
    "hybrid_state.branches": ("count", ["hybrid_state.init_plus_state"],
                              "count", "branches"),
    "hybrid_state.prepare_s": ("s", list(_PREPARE), "self", _PREPARE),
    "hybrid_state.gram_entries": ("count", [_GRAM], "count", "gram_entries"),
    "hybrid_state.gram_bytes": ("B_computed", [_GRAM], "bytes", "gram_entries"),
    "hybrid_state.env_gram_s": ("s", [_GRAM], "self", (_GRAM,)),
    "metrics.points": ("count", ["metrics.run_scenario"], "count", "points"),
    "metrics.evaluate_classes_s": ("s", ["metrics.evaluate_classes"],
                                   "incl", ("metrics.evaluate_classes",)),
    "metrics.success_probability_s": ("s", ["metrics.success_probability"],
                                      "incl", ("metrics.success_probability",)),
    "metrics.fidelity_s": ("s", ["metrics.fidelity"],
                           "incl", ("metrics.fidelity",)),
    "metrics.monte_carlo_s": ("s", ["metrics.monte_carlo_estimate"],
                              "incl", ("metrics.monte_carlo_estimate",)),
    "metrics.self_s": ("s", [], "self", "metrics."),     # every metrics.* span
    "cli.calls": ("count", ["cli.main"], "count", "cli_calls"),
    "cli.self_s": ("s", ["cli.main"], "self", ("cli.main",)),
    "cavity.solves": ("count", ["cavity.solve_params_for_phase"],
                      "count", "solves"),
    "cavity.solve_s": ("s", list(_CAVITY), "self", _CAVITY),
}


def _available(tracer, span):
    if span in _DERIVED:
        source = _DERIVED[span]
        return source is None or source in tracer.installed
    return span in tracer.installed


def summarize(tracer):
    """(metrics {name: (value, unit)}, absent names, per-span totals)."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    whole = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    names = np.asarray(tracer.names, dtype=object)
    by_name = {}
    for name in sorted(set(tracer.names)):
        mask = names == name
        by_name[name] = {"calls": int(mask.sum()),
                         "self_s": float(own[mask].sum()),
                         "incl_s": float(whole[mask].sum())}
    counts = dict(tracer.counts)
    counts["cli_calls"] = by_name.get("cli.main", {}).get("calls", 0)

    def total(field, names):
        if isinstance(names, str):                  # a module prefix
            names = [n for n in by_name if n.startswith(names)]
        return sum(by_name.get(n, {}).get(field, 0.0) for n in names)

    metrics, absent = {}, []
    for metric, (unit, needs, kind, arg) in LAYER_METRICS.items():
        if any(not _available(tracer, s) or s in tracer.broken for s in needs):
            metrics[metric] = (0.0, unit)
            absent.append(metric)
            continue
        if kind == "count":
            value = counts.get(arg, 0)
        elif kind == "bytes":
            value = 16 * counts.get(arg, 0)
        elif kind == "ratio":
            num, den = arg
            value = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        else:
            value = total("self_s" if kind == "self" else "incl_s", arg)
        metrics[metric] = (value, unit)
    return metrics, absent, by_name
