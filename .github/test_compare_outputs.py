"""Self-tests of compare_outputs.py's verdicts, on hand-made output pairs.

    python -m pytest .github/test_compare_outputs.py -q

No hpsim tree runs: each test feeds `compare`, `judge`, `NUMBER` or
`mc_success_probs` an (exit code, stdout, stderr) pair or a text written
here, `declared_changes` a declarations file written here, or `main` both
trees' runs made here; `run_tree` runs a stub `hpsim.cli.main` written
here.
"""

import json

import pytest

import compare_outputs
from compare_outputs import (DECLARATIONS, NUMBER, base_sha, compare,
                             declared_changes, judge, mc_success_probs)


def report(success_prob=0.25, fidelity=0.9, mc_prob=0.2501):
    """A simulate-like JSON report with one quadrature and one MC bin."""
    return json.dumps({
        "classes": [{"target": "GHZ(3)", "success_prob": success_prob,
                     "fidelity": fidelity}],
        "config": {"n": 3, "mean_photon_number": 3.0},
        "monte_carlo": [{"target": "GHZ(3)", "success_prob": mc_prob}],
    }, indent=2, sort_keys=True) + "\n"


def test_identical_outputs_pass():
    run = (0, report(), "")
    assert compare(run, (0, report(), "")) == ("identical", False, [])


def test_moved_number_is_listed_with_its_size_and_not_fatal():
    message, fatal, moved = compare((0, report(fidelity=0.9), ""),
                                    (0, report(fidelity=0.9 + 4e-16), ""))
    assert not fatal
    assert moved == [abs(0.9 - (0.9 + 4e-16))]
    assert message == f"1 numbers moved, largest by {moved[0]:.3g}"


def test_several_moved_numbers_report_the_largest():
    message, fatal, moved = compare(
        (0, "a,0.5,0.25\nb,1.5,2.0\n", ""), (0, "a,0.5,0.125\nb,1.75,2.0\n", ""))
    assert (message, fatal) == ("2 numbers moved, largest by 0.25", False)
    assert moved == [0.125, 0.25]


@pytest.mark.parametrize("head", [(2, report(), ""), (0, report(), "warn\n"),
                                  (3, "", "hpsim: numerical failure: x\n")],
                         ids=["exit_code", "stderr", "both"])
def test_changed_exit_code_or_stderr_is_fatal(head):
    message, fatal, moved = compare((0, report(), ""), head)
    assert fatal and moved == []
    assert message == f"exit code or stderr differs (0 -> {head[0]})"


@pytest.mark.parametrize("head", [
    report().replace("GHZ(3)", "W(3)"),     # a target name
    report().replace('"n": 3', '"n": 4'),   # an integer is text
    report() + "\n",                        # a trailing line
], ids=["word", "integer", "newline"])
def test_changed_non_numeric_text_is_fatal(head):
    assert compare((0, report(), ""), (0, head, "")) == (
        "non-numeric text differs", True, [])


def test_changed_monte_carlo_success_prob_is_fatal():
    message, fatal, moved = compare((0, report(mc_prob=0.2501), ""),
                                    (0, report(mc_prob=0.2502), ""))
    assert fatal
    assert message.endswith("; Monte Carlo success_prob differs")
    assert message.startswith("1 numbers moved")
    assert len(moved) == 1


def test_number_pattern_takes_floats_and_leaves_integers_as_text():
    text = ("Dicke(6,4)|GHZ(3),0.5,-2.5e+3,1e-10,inf,nan,NaN,Infinity,"
            "x1.5,info,7,2.0\n")
    assert NUMBER.findall(text) == ["0.5", "-2.5e+3", "1e-10", "inf", "nan",
                                    "NaN", "Infinity", "2.0"]


def test_mc_success_probs_reads_only_simulate_reports():
    assert mc_success_probs(report(mc_prob=0.125)) == [0.125]
    assert mc_success_probs(json.dumps({"classes": []})) == []
    assert mc_success_probs("v,density\n0.0,0.5\n") == []


# --- declared output changes (expected_changes.json) --------------------------

BASE = "0123456789abcdef0123456789abcdef01234567"
NUMBERS = {"line": "figures/fig4b@0", "kind": "numbers", "bound": 1e-6}
TEXT = {"line": "--help", "kind": "text"}


def test_undeclared_difference_fails():
    # one rule for every line: identical passes, any difference fails
    base, moved = (0, report(fidelity=0.9), ""), (0, report(fidelity=0.91), "")
    message, fatal, sizes = judge(base, moved)
    assert fatal and message.startswith("1 numbers moved")
    assert compare(base, moved) == (message, False, sizes)
    assert judge(base, (0, report(), "warn\n")) == compare(
        base, (0, report(), "warn\n"))
    assert judge(base, base) == ("identical", False, [])


def test_declared_numbers_pass_within_their_bound():
    message, fatal, moved = judge((0, report(fidelity=0.9), ""),
                                  (0, report(fidelity=0.9 + 5e-7), ""), NUMBERS)
    assert not fatal and len(moved) == 1
    assert message.endswith("(declared numbers, bound 1e-06)")


def test_declared_numbers_fail_past_their_bound():
    message, fatal, _ = judge((0, report(fidelity=0.9), ""),
                              (0, report(fidelity=0.9 + 2e-6), ""), NUMBERS)
    assert fatal and message.endswith("over the declared 1e-06")


@pytest.mark.parametrize("head", [
    (2, report(fidelity=0.9 + 1e-7), ""),           # exit code
    (0, report(fidelity=0.9 + 1e-7), "warn\n"),     # stderr
    (0, report(fidelity=0.9 + 1e-7).replace("GHZ(3)", "W(3)"), ""),  # text
    (0, report(fidelity=0.9 + 1e-7, mc_prob=0.2502), ""),   # a hit count
], ids=["exit_code", "stderr", "text", "hit_count"])
def test_declared_numbers_do_not_cover_other_changes(head):
    assert judge((0, report(fidelity=0.9), ""), head, NUMBERS)[1]


def test_declared_text_prints_a_diff_and_passes():
    message, fatal, _ = judge((0, "usage: hpsim\n", ""),
                              (0, "usage: hpsim [-h]\n", ""), TEXT)
    assert not fatal
    assert message.splitlines()[:3] == ["declared text change:", "--- base",
                                        "+++ head"]
    assert "-usage: hpsim" in message and "+usage: hpsim [-h]" in message


@pytest.mark.parametrize("entry", [NUMBERS, TEXT], ids=["numbers", "text"])
def test_declared_line_that_does_not_change_fails(entry):
    run = (0, report(), "")
    message, fatal, _ = judge(run, run, entry)
    assert fatal and message.endswith("but identical")


def test_only_the_base_commits_entries_count(tmp_path):
    path = tmp_path / "expected_changes.json"
    path.write_text(json.dumps({BASE: [NUMBERS, TEXT],
                                "f" * 40: [{"line": "x", "kind": "text"}]}))
    assert declared_changes(BASE, path) == {NUMBERS["line"]: NUMBERS,
                                            TEXT["line"]: TEXT}
    assert declared_changes("e" * 40, path) == {}
    assert declared_changes(None, path) == {}
    path.write_text("{}")
    assert declared_changes(BASE, path) == {}


@pytest.mark.parametrize("entries", [
    [{"line": "a", "kind": "numbers"}],                 # no bound
    [{"line": "a", "kind": "numbers", "bound": -1.0}],
    [{"line": "a", "kind": "numbers", "bound": True}],
    [{"line": "a", "kind": "text", "bound": 1e-7}],     # a bound on text
    [{"line": "a", "kind": "bytes"}],
    [{"kind": "text"}],
    [TEXT, TEXT],                                       # declared twice
], ids=["no_bound", "negative", "bool", "text_bound", "kind", "no_line",
        "twice"])
def test_malformed_declarations_are_refused(tmp_path, entries):
    path = tmp_path / "expected_changes.json"
    path.write_text(json.dumps({BASE: entries}))
    with pytest.raises(SystemExit):
        declared_changes(BASE, path)


def test_committed_declarations_parse():
    # the committed file is an object of base commits; none is the base
    # of every pull request, so no SHA needs to be known here
    with open(DECLARATIONS, encoding="utf-8") as fh:
        table = json.load(fh)
    for sha in table:
        declared_changes(sha, DECLARATIONS)


def test_base_sha_is_none_outside_git(tmp_path):
    assert base_sha(str(tmp_path)) is None


SWEEP = "sweep --scenario n_qubit --n 20"
TASK = "monte_carlo/mc_gsum@0"


@pytest.mark.parametrize("entries, sweep_head, task_head, status", [
    ([], "a,0.5\n", 0.9, 0),                             # nothing changed
    ([], "a,0.5000001\n", 0.9, 1),                       # undeclared move
    ([{"line": SWEEP, "kind": "numbers", "bound": 2e-7}], "a,0.5000001\n",
     0.9, 0),
    ([{"line": SWEEP, "kind": "numbers", "bound": 2e-7}], "a,0.5\n", 0.9, 1),
    ([{"line": "figures/fig9@0", "kind": "text"}], "a,0.5\n", 0.9, 1),
    ([], "a,0.5\n", 0.9 + 4e-16, 1),                     # a task's number
    ([{"line": TASK, "kind": "numbers", "bound": 1e-15}], "a,0.5\n",
     0.9 + 4e-16, 0),
    ([{"line": TASK, "kind": "numbers", "bound": 1e-16}], "a,0.5\n",
     0.9 + 4e-16, 1),
], ids=["unchanged", "undeclared", "declared", "stale", "unknown_line",
        "task_undeclared", "task_declared", "task_over_bound"])
def test_main_applies_the_base_commits_declarations(
        monkeypatch, tmp_path, capsys, entries, sweep_head, task_head, status):
    # both trees' runs are made here: one sweep line and one task each
    path = tmp_path / "expected_changes.json"
    path.write_text(json.dumps({BASE: entries, "f" * 40: [
        {"line": TASK, "kind": "numbers", "bound": 1.0}]}))
    runs = {}
    for name, sweep_out, fidelity in (("base", "a,0.5\n", 0.9),
                                      ("head", sweep_head, task_head)):
        (tmp_path / name / "hpsim").mkdir(parents=True)
        runs[str(tmp_path / name)] = (
            {SWEEP: (0, sweep_out, ""),
             TASK: (0, report(fidelity=fidelity), "")},
            [[SWEEP, []]])
    monkeypatch.setattr(compare_outputs, "run_tree", runs.__getitem__)
    monkeypatch.setattr(compare_outputs, "base_sha", lambda src: BASE)
    monkeypatch.setattr(compare_outputs, "DECLARATIONS", str(path))
    assert compare_outputs.main(list(runs)) == status, capsys.readouterr().out


# A stub CLI: it echoes its arguments, writes them to the --out file
# instead, and exits 2 on a "bogus" argument
STUB_CLI = """
import sys


def main(argv):
    if "bogus" in argv:
        print("bogus", file=sys.stderr)
        return 2
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], "w") as fh:
            fh.write(" ".join(argv[:argv.index("--out")]) + "\\n")
    else:
        print(" ".join(argv))
    return 0
"""


def test_run_tree_reruns_each_curve_line_with_out(monkeypatch, tmp_path):
    # every line of the one list runs once; the sweep and density lines
    # that exit 0 and are not --help run again with --out, extra lines and
    # benchmark tasks alike
    (tmp_path / "hpsim").mkdir()
    (tmp_path / "hpsim" / "__init__.py").write_text("")
    (tmp_path / "hpsim" / "cli.py").write_text(STUB_CLI)
    monkeypatch.setattr(compare_outputs, "STARTUP", [
        ["sweep", "--help"], ["density", "--help"],
        ["sweep", "--scenario", "bogus"], ["density", "--scenario", "bogus"]])
    monkeypatch.setattr(compare_outputs, "SIMULATE", [["simulate", "--n", "9"]])
    monkeypatch.setattr(compare_outputs, "DENSITY", [["density", "--n", "7"]])
    monkeypatch.setattr(compare_outputs, "SWEEP", [["sweep", "--n", "20"]])
    monkeypatch.setattr(compare_outputs, "SEEDS", (0,))
    runs, files = compare_outputs.run_tree(str(tmp_path))
    assert list(runs)[:7] == [
        "sweep --help", "density --help", "sweep --scenario bogus",
        "density --scenario bogus", "simulate --n 9", "density --n 7",
        "sweep --n 20"]
    assert runs["sweep --scenario bogus"] == (2, "", "bogus\n")
    assert len(runs) == 7 + 21      # the benchmark's 21 tasks at one seed
    assert files == [[key, []] for key in (
        "density --n 7", "sweep --n 20", "figures/fig4b@0", "figures/fig6bc@0",
        "figures/fig5a@0")]
