"""Self-tests of compare_outputs.py's verdicts, on hand-made output pairs.

    python -m pytest .github/test_compare_outputs.py -q

No tree runs: each test feeds `compare`, `NUMBER` or `mc_success_probs`
an (exit code, stdout, stderr) pair or a text written here.
"""

import json

import pytest

from compare_outputs import NUMBER, compare, mc_success_probs


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
