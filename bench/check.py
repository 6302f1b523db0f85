"""Output checks against the reference outputs stored in bench/reference/.

Quadrature and closed-form numbers must lie within TOL = 1e-9 of the
reference.  Monte Carlo blocks are compared exactly (hit counts) only at the
seed the reference was made at; at any other seed each bin's hit count must
be consistent with its quadrature probability at the 5-standard-error level.

A task whose reference is a failure (today `n_qubit_P` at even n exits 3 with
DegenerateRuleError) is a *known failure* when it fails the same way.  If a
later version makes it succeed, its report is checked against the physical
invariants instead: the bin probabilities sum to 1 and 0 <= F <= 1.
"""

import csv
import io
import json
import math
import os

TOL = 1e-9
SUM_TOL = 1e-8              # |sum of bin probabilities - 1|, no reference
Z_LIMIT = 5.0
# One-sided normal tail beyond 5 sigma: the exact binomial test level used
# where too few hits are expected for the normal approximation.
TAIL_LIMIT = 0.5 * math.erfc(Z_LIMIT / math.sqrt(2.0))

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


class Mismatch(Exception):
    pass


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


class _Dev:
    """Running maximum of |got - want| over compared numbers."""

    def __init__(self):
        self.max = 0.0

    def close(self, got, want, where):
        if isinstance(got, bool) or isinstance(want, bool):
            if got is not want:
                raise Mismatch(f"{where}: {got!r} != {want!r}")
            return
        if isinstance(got, int) and isinstance(want, int):
            if got != want:
                raise Mismatch(f"{where}: {got} != {want}")
            return
        if math.isnan(got) and math.isnan(want):
            return
        dev = abs(got - want)
        if not dev <= TOL:
            raise Mismatch(f"{where}: {got!r} differs from {want!r} by {dev:.3g}")
        self.max = max(self.max, dev)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(got, want, dev):
    rows_got = list(csv.reader(io.StringIO(got)))
    rows_want = list(csv.reader(io.StringIO(want)))
    if len(rows_got) != len(rows_want):
        raise Mismatch(f"{len(rows_got)} CSV rows, reference has {len(rows_want)}")
    if rows_got and rows_got[0] != rows_want[0]:
        raise Mismatch(f"CSV header {rows_got[0]} != {rows_want[0]}")
    for r, (a, b) in enumerate(zip(rows_got[1:], rows_want[1:]), start=2):
        if len(a) != len(b):
            raise Mismatch(f"row {r}: {len(a)} cells, reference has {len(b)}")
        for c, (x, y) in enumerate(zip(a, b)):
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                if x != y:
                    raise Mismatch(f"row {r} col {c}: {x!r} != {y!r}")
            else:
                dev.close(fx, fy, f"row {r} col {c}")


def compare_json(got, want, dev, where="$"):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise Mismatch(f"{where}: keys differ from the reference")
        for key in want:
            compare_json(got[key], want[key], dev, f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise Mismatch(f"{where}: list differs in length from the reference")
        for i, (a, b) in enumerate(zip(got, want)):
            compare_json(a, b, dev, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and isinstance(got, (int, float)):
        dev.close(got, want, where)
    elif got != want:
        raise Mismatch(f"{where}: {got!r} != {want!r}")


def binomial_consistent(hits, trials, p):
    """Is `hits` out of `trials` within 5 standard errors of probability p?

    Uses |hits - N p| <= 5 sqrt(N p (1-p)) when that standard deviation is
    at least 5 hits, and otherwise the exact binomial tail at the same
    one-sided level, so bins expected to hold almost no samples are judged
    fairly.
    """
    if p <= 0.0:
        return hits == 0
    if p >= 1.0:
        return hits == trials
    mean = trials * p
    var = mean * (1.0 - p)
    if var >= Z_LIMIT ** 2:
        return abs(hits - mean) <= Z_LIMIT * math.sqrt(var)
    log_p, log_q = math.log(p), math.log1p(-p)

    def log_pmf(k):
        return (math.lgamma(trials + 1) - math.lgamma(k + 1)
                - math.lgamma(trials - k + 1) + k * log_p + (trials - k) * log_q)

    step = 1 if hits >= mean else -1
    tail, k = 0.0, hits
    while 0 <= k <= trials:
        term = math.exp(log_pmf(k))
        tail += term
        if tail >= TAIL_LIMIT or term <= 1e-18 * tail:
            break
        k += step
    return tail >= TAIL_LIMIT


def _check_mc_statistics(report):
    """Non-default seed: each MC bin against the run's own quadrature."""
    trials = report["config"]["trials"]
    if len(report["monte_carlo"]) != len(report["classes"]):
        raise Mismatch("monte_carlo and classes differ in length")
    for i, (mc, quad) in enumerate(zip(report["monte_carlo"], report["classes"])):
        if (mc["parity"], mc["target"], mc["method"]) != (
                quad["parity"], quad["target"], "monte_carlo"):
            raise Mismatch(f"monte_carlo[{i}] labels {mc['parity']!r}, "
                           f"{mc['target']!r}, {mc['method']!r}")
        hits = round(mc["success_prob"] * trials)
        if not binomial_consistent(hits, trials, quad["success_prob"]):
            raise Mismatch(
                f"monte_carlo[{i}]: {hits}/{trials} hits is more than "
                f"{Z_LIMIT:g} standard errors from p={quad['success_prob']!r}")
        fid = mc["fidelity"]
        if (fid is None) != (hits == 0) or (
                fid is not None and not -TOL <= fid <= 1.0 + TOL):
            raise Mismatch(f"monte_carlo[{i}].fidelity {fid!r} with {hits} hits")


def compare_simulate(got_text, want_text, exact_mc, dev):
    got = json.loads(got_text)
    want = json.loads(want_text)
    if "monte_carlo" in want and not exact_mc:
        if "monte_carlo" not in got:
            raise Mismatch("monte_carlo block missing")
        _check_mc_statistics(got)
        got = dict(got, monte_carlo=want["monte_carlo"],
                   config=dict(got["config"], seed=want["config"]["seed"]))
    elif "monte_carlo" in want:
        trials = want["config"]["trials"]
        for i, (a, b) in enumerate(zip(got.get("monte_carlo", []),
                                       want["monte_carlo"])):
            if round(a["success_prob"] * trials) != round(b["success_prob"] * trials):
                raise Mismatch(f"monte_carlo[{i}]: hit count differs from the "
                               "reference at the reference seed")
    compare_json(got, want, dev)


def check_invariants(text):
    """A run with no numeric reference: the physical invariants only."""
    report = json.loads(text)
    probs = [c["success_prob"] for c in report["classes"]]
    if not abs(sum(probs) - 1.0) <= SUM_TOL:
        raise Mismatch(f"bin probabilities sum to {sum(probs)!r}")
    for i, c in enumerate(report["classes"]):
        if c["fidelity"] is not None and not -TOL <= c["fidelity"] <= 1.0 + TOL:
            raise Mismatch(f"classes[{i}].fidelity {c['fidelity']!r} outside [0, 1]")
    if "monte_carlo" in report:
        _check_mc_statistics(report)


def check_task(argv, code, stdout, stderr, ref, exact_mc):
    """Outcome of one task: ("ok" | "known" | "failed", max |dev|, message)."""
    dev = _Dev()
    try:
        if ref["exit"] != 0:
            if code == ref["exit"]:
                return "known", 0.0, f"exit {code}: {stderr.strip()}"
            if code != 0:
                raise Mismatch(f"exit {code} (reference exit {ref['exit']}): "
                               f"{stderr.strip()}")
            check_invariants(stdout)
            return "ok", 0.0, None
        if code != 0:
            raise Mismatch(f"exit {code}: {stderr.strip()}")
        if argv[0] == "simulate":
            compare_simulate(stdout, ref["stdout"], exact_mc, dev)
        else:
            compare_csv(stdout, ref["stdout"], dev)
    except (Mismatch, ValueError, KeyError, TypeError) as exc:
        return "failed", dev.max, f"{type(exc).__name__}: {exc}"
    return "ok", dev.max, None
