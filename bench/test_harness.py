"""Self-tests of the benchmark harness (checks, tracer arithmetic).

    python3 -m pytest bench/test_harness.py -q

They need only the stored references, not hpsim itself.
"""

import json
import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _ref(workload, task_id):
    return check.load_reference(workload)["tasks"][task_id]


def _shift_csv_cell(text, row, col, delta):
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


def test_reference_matches_itself():
    for workload in workloads.WORKLOADS:
        for ref in check.load_reference(workload)["tasks"].values():
            status, dev, _ = check.check_task(ref["argv"], ref["exit"],
                                              ref["stdout"], ref["stderr"],
                                              ref, exact_mc=True)
            assert status in ("ok", "known")
            assert dev == 0.0


def test_csv_perturbed_by_1e8_is_a_failure():
    ref = _ref("figures", "fig5a")
    bad = _shift_csv_cell(ref["stdout"], 400, 1, 1e-8)
    status, _, message = check.check_task(ref["argv"], 0, bad, "", ref, True)
    assert status == "failed" and "row 401" in message
    fine = _shift_csv_cell(ref["stdout"], 400, 1, 1e-10)
    status, dev, _ = check.check_task(ref["argv"], 0, fine, "", ref, True)
    assert status == "ok" and 0.0 < dev <= check.TOL


def test_json_perturbed_by_1e8_is_a_failure():
    ref = _ref("monte_carlo", "mc_gsum")
    report = json.loads(ref["stdout"])
    report["classes"][1]["fidelity"] += 1e-8
    status, _, message = check.check_task(ref["argv"], 0, json.dumps(report),
                                          "", ref, True)
    assert status == "failed" and "classes[1].fidelity" in message


def test_mc_hit_counts_exact_at_reference_seed_statistical_elsewhere():
    ref = _ref("monte_carlo", "mc_two_qubit")
    report = json.loads(ref["stdout"])
    report["monte_carlo"][0]["success_prob"] += 2e-6       # two more hits
    text = json.dumps(report)
    assert check.check_task(ref["argv"], 0, text, "", ref, True)[0] == "failed"
    assert check.check_task(ref["argv"], 0, text, "", ref, False)[0] == "ok"
    report["monte_carlo"][0]["success_prob"] += 0.01       # ~20 standard errors
    text = json.dumps(report)
    assert check.check_task(ref["argv"], 0, text, "", ref, False)[0] == "failed"


def test_binomial_consistency():
    half = 0.5 * 1_000_000 ** 0.5                   # one standard error, p = 1/2
    assert check.binomial_consistent(round(500_000 + 4 * half), 1_000_000, 0.5)
    assert not check.binomial_consistent(round(500_000 + 6 * half), 1_000_000, 0.5)
    assert check.binomial_consistent(1, 200, 1e-4)  # rare bin, one stray hit
    assert not check.binomial_consistent(5, 200, 1e-4)
    assert not check.binomial_consistent(1, 200, 0.0)


def test_known_failure_and_its_later_fix():
    ref = _ref("n_ladder", "n6_a1")
    assert ref["exit"] == 3
    assert check.check_task(ref["argv"], 3, "", ref["stderr"], ref, True)[0] == "known"
    assert check.check_task(ref["argv"], 2, "", "", ref, True)[0] == "failed"
    fixed = {"classes": [{"success_prob": 0.25, "fidelity": 0.9},
                         {"success_prob": 0.75, "fidelity": None}]}
    assert check.check_task(ref["argv"], 0, json.dumps(fixed), "", ref, True)[0] == "ok"
    fixed["classes"][0]["success_prob"] = 0.3
    assert check.check_task(ref["argv"], 0, json.dumps(fixed), "", ref, True)[0] == "failed"


def test_self_times_on_a_synthetic_span_tree():
    # root [0,10]; a [1,4]; b [5,9] with child c [6,8]; d [3,5.5] overlaps
    # a and b; e [9.5,12] sticks out of root and is clipped to [9.5,10].
    starts = [0.0, 1.0, 5.0, 6.0, 3.0, 9.5]
    ends = [10.0, 4.0, 9.0, 8.0, 5.5, 12.0]
    parents = [-1, 0, 0, 2, 0, 0]
    own = spans.self_times(starts, ends, parents)
    # root children cover [1,9] and [9.5,10] -> 8.5 of 10
    assert list(own) == [1.5, 3.0, 2.0, 2.0, 2.5, 2.5]


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda v: [v, v], spans._count_points("density"))
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert tracer.call("cli.main", outer) == [1, 1, 2, 2]
    assert tracer.names == ["cli.main", "outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 1, 1]
    own = spans.self_times(tracer.starts, tracer.ends, tracer.parents)
    assert list(own) == [2.0, 3.0, 1.0, 1.0]
    assert tracer.counts["density_calls"] == 2
    assert tracer.counts["density_points"] == 4


def test_missing_site_is_reported_absent():
    def density(state, quadrature, v):
        return v
    modules = {"metrics": types.SimpleNamespace(outcome_density=density),
               "homodyne": types.SimpleNamespace(), "cli": types.SimpleNamespace()}
    tracer = spans.Tracer()
    missing = tracer.install(modules, spans.SITES)
    assert "metrics.integrate_piecewise" in missing
    modules["metrics"].outcome_density(None, "X", [0.0, 1.0])
    tracer.uninstall()
    assert modules["metrics"].outcome_density is density
    metrics, absent, _ = spans.summarize(tracer)
    assert metrics["homodyne.density_points"] == (2, "count")
    assert "numerics.integrals" in absent
    assert "numerics.points_per_integral" in absent
    assert "homodyne.density_points" not in absent


def test_mc_seeds_follow_the_workload_seed():
    a = dict(workloads.tasks("monte_carlo", 0))
    b = dict(workloads.tasks("monte_carlo", 1))
    assert a == dict(workloads.tasks("monte_carlo", 0))
    assert all(a[t][-1] != b[t][-1] for t in a)
    assert dict(workloads.tasks("figures", 0)) == dict(workloads.tasks("figures", 1))
