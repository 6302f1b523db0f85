import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hpsim import cli, homodyne, metrics
from hpsim.cavity import MAX_GAMMA, reflection_pair, solve_params_for_phase
from hpsim.cli import SWEEP_CSV_COLUMNS
from hpsim.homodyne import build_decision_rule
from hpsim.hybrid_state import MAX_ALPHA, sector_states
from hpsim.metrics import (closed_form_two_qubit, pulse_amplitude,
                           run_scenario, sweep)
from hpsim.numerics import MAX_TRIALS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env_extra=None, timeout=120):
    """Run `python -m hpsim`; a hung run fails the test after `timeout` s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("HPSIM_DEFAULT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hpsim", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def main_in_process(capsys, *args):
    """Run `cli.main` in this process; the result reads like run_cli's."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


def test_solve_params_two_nodes():
    res = run_cli("solve-params", "--n", "2")
    assert res.returncode == 0
    assert "0.5000000000000001 kappa" in res.stdout or "0.5 kappa" in res.stdout
    assert "+90.000000" in res.stdout
    assert "-90.000000" in res.stdout


def test_solve_params_three_nodes():
    res = run_cli("solve-params", "--n", "3")
    assert res.returncode == 0
    assert "0.86602" in res.stdout
    gsq = float(res.stdout.split("g^2 = ")[1].split(" ")[0])
    assert abs(gsq - 1.5) < 1e-12
    assert "+60.000000" in res.stdout


def test_solve_params_invalid_n_exits_2():
    # one line from the solver (10^400 overflowed a float with a traceback)
    for n in (1, 2**53 + 1, 10**400):
        res = run_cli("solve-params", "--n", str(n))
        assert res.returncode == 2, n
        assert res.stderr == "hpsim: error: phase solver needs n in 2..2^53, " \
            f"got {n}\n"
        assert res.stdout == ""
    assert run_cli("solve-params", "--n", str(2**53)).returncode == 0


def test_simulate_two_qubit_report():
    res = run_cli("simulate", "--scenario", "two_qubit", "--nbar", "3",
                  "--eta-sq", str(2 / 3))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    odd = [c for c in report["classes"] if c["target"] == "Bell-psi+"][0]
    assert abs(odd["fidelity"] - 0.997661) < 1e-5
    assert abs(odd["success_prob"] - 0.5) < 1e-8
    assert report["config"]["scenario"] == "two_qubit_X"
    assert abs(report["config"]["mean_photon_number"] - 3.0) < 1e-12
    assert "gamma_model_note" in report
    assert "model_version" in report
    assert "monte_carlo" not in report           # trials = 0: quadrature only
    assert abs(report["closed_form_two_qubit"]["success_prob"] - 0.5) < 1e-15


def test_simulate_three_qubit_class_probs():
    res = run_cli("simulate", "--scenario", "three_qubit", "--alpha", "5",
                  "--eta-sq", str(2 / 3))
    report = json.loads(res.stdout)
    probs = {c["target"]: c["success_prob"] for c in report["classes"]}
    assert abs(probs["W(3)"] - 0.375) < 1e-3
    assert abs(probs["GHZ(3)"] - 0.25) < 1e-3
    assert abs(probs["Dicke(3,2)"] - 0.375) < 1e-3


def test_simulate_with_trials_adds_monte_carlo():
    res = run_cli("simulate", "--scenario", "two_qubit", "--alpha", "2",
                  "--trials", "20000", "--seed", "9")
    report = json.loads(res.stdout)
    mc = report["monte_carlo"]
    assert len(mc) == 2
    assert all(c["method"] == "monte_carlo" for c in mc)
    assert all(c["mc_stderr"] > 0 for c in mc)
    # the fidelity standard error stays in the library: the report keeps
    # its key set
    assert all(set(c) == set(report["classes"][0]) for c in mc)


def assert_usage_error(res, args):
    """Exit 2 with one `hpsim: error: ` line and no output."""
    assert res.returncode == 2, args
    assert res.stdout == "", args
    assert res.stderr.startswith("hpsim: error: "), (args, res.stderr)
    assert res.stderr.count("\n") == 1, (args, res.stderr)


def test_simulate_usage_errors_exit_2():
    cases = [
        ("simulate", "--scenario", "two_qubit"),                       # no amplitude
        ("simulate", "--scenario", "two_qubit", "--alpha", "1", "--nbar", "1"),
        ("simulate", "--scenario", "two_qubit", "--alpha", "-1"),
        ("simulate", "--scenario", "two_qubit", "--alpha", "1", "--eta-sq", "1.5"),
        ("simulate", "--scenario", "n_qubit_P", "--alpha", "1"),       # missing --n
        ("simulate", "--scenario", "n_qubit", "--alpha", "1", "--n", "21"),
        ("simulate", "--scenario", "two_qubit", "--alpha", "1", "--n", "3"),
        ("simulate", "--scenario", "two_qubit", "--alpha", "1", "--gamma", "-0.1"),
        ("simulate", "--scenario", "two_qubit", "--alpha", "1", "--eta-sq", "-1"),
        ("simulate", "--scenario", "two_qubit", "--alpha", "1", "--trials", "-1"),
        # non-finite inputs
        ("simulate", "--scenario", "two_qubit", "--alpha", "1", "--gamma", "nan"),
        ("simulate", "--scenario", "two_qubit", "--alpha", "1", "--gamma", "inf"),
        ("simulate", "--scenario", "two_qubit", "--alpha", "inf"),
        ("simulate", "--scenario", "two_qubit", "--alpha", "nan"),
        ("simulate", "--scenario", "two_qubit", "--nbar", "inf"),
        ("simulate", "--scenario", "two_qubit", "--nbar", "nan"),
        ("simulate", "--scenario", "two_qubit", "--alpha", "1", "--eta-sq", "nan"),
    ]
    for args in cases:
        assert_usage_error(run_cli(*args), args)
    # argparse refuses an unknown scenario with its own usage lines
    assert run_cli("simulate", "--scenario", "bogus", "--alpha", "1"
                   ).returncode == 2
    # every branch label coincides: a configuration error, not a failure
    for args in (("--alpha", "2", "--eta-sq", "0"), ("--alpha", "0"),
                 ("--alpha", "1e-300")):
        res = run_cli("simulate", "--scenario", "three_qubit", *args)
        assert res.returncode == 2, args
        assert res.stderr.startswith("hpsim: error: "), res.stderr
        assert res.stderr.endswith("has no resolvable bins\n"), res.stderr


def test_near_total_channel_loss_keeps_every_bin(capsys):
    # eta^2 = 1e-17 leaves a = 9.5e-9, where the float tolerance of the
    # earlier rule merged P-axis bins (`Dicke(20,14)|GHZ(20)`, sweep rows of
    # parity `9|10|11`); the bins come from residues now, so the lossless
    # run's 11 bins stay, and each holds a probability Monte Carlo agrees
    # with (the standard error taken from the quadrature P: the inner bins
    # hold P of about 1e-9 and no hits)
    argv = ("simulate", "--scenario", "n_qubit", "--n", "20", "--alpha", "3")
    lossless = json.loads(
        main_in_process(capsys, *argv, "--trials", "0").stdout)
    res = main_in_process(capsys, *argv, "--eta-sq", "1e-17",
                          "--trials", "2000", "--seed", "3")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    names = [c["target"] for c in report["classes"]]
    assert len(names) == 11
    assert names == [c["target"] for c in lossless["classes"]]
    probs = [c["success_prob"] for c in report["classes"]]
    assert abs(math.fsum(probs) - 1.0) <= 1e-8
    assert [mc["target"] for mc in report["monte_carlo"]] == names
    for p, mc in zip(probs, report["monte_carlo"]):
        assert abs(mc["success_prob"] - p) <= 5 * math.sqrt(p * (1 - p) / 2000)
    res = main_in_process(capsys, "sweep", "--scenario", "n_qubit", "--n",
                          "13", "--nbar", "1,9", "--eta-sq", "1e-17")
    assert res.returncode == 0, res.stderr
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert len(rows) == 2 * 13         # odd n on P: one bin per residue
    assert all(len(row["class_parity"].split("|")) == 1 for row in rows)


def test_former_numerical_failures_exit_2(capsys):
    # both overflowed (exit 3) before alpha and gamma were bounded; now the
    # library refuses them before any state is built
    for args in (("three_qubit", "--alpha", "1e10", "--gamma", "0.2"),
                 ("n_qubit", "--n", "20", "--alpha", "1", "--gamma", "1e308")):
        assert_usage_error(
            main_in_process(capsys, "simulate", "--scenario", *args), args)
    # the integrand overflow near alpha = 1e300 is out of the library's range
    from hpsim.metrics import run_scenario
    with pytest.raises(ValueError, match="^alpha must be finite and "
                                         "non-negative, at most 10000, "):
        run_scenario("two_qubit_X", 1e300, 1.0)


def _above(x):
    return repr(math.nextafter(x, math.inf))


def test_input_bounds_run_and_the_next_float_exits_2(capsys):
    # alpha = MAX_ALPHA (<n> = 1e8) and gamma = MAX_GAMMA run cleanly in
    # every command; the next float above either exits 2 with one line
    alpha, nbar, gamma = repr(MAX_ALPHA), repr(MAX_ALPHA**2), repr(MAX_GAMMA)
    assert (alpha, nbar, gamma) == ("10000.0", "100000000.0", "1e+16")
    point = {"simulate": (), "density": ("--points", "11")}
    for command, extra in point.items():
        for args in (("--alpha", alpha, "--gamma", gamma),
                     ("--nbar", nbar, "--gamma", gamma)):
            res = main_in_process(capsys, command, "--scenario", "gsum",
                                  *args, *extra)
            assert (res.returncode, res.stderr) == (0, ""), (command, args)
        for args in (("--alpha", _above(MAX_ALPHA)),
                     ("--alpha", "1", "--gamma", _above(MAX_GAMMA))):
            assert_usage_error(main_in_process(
                capsys, command, "--scenario", "gsum", *args, *extra),
                (command, args))
    res = main_in_process(capsys, "sweep", "--scenario", "gsum",
                          "--nbar", nbar, "--gamma", gamma)
    assert (res.returncode, res.stderr) == (0, "")
    assert_usage_error(main_in_process(capsys, "sweep", "--scenario", "gsum",
                                       "--nbar", "1", "--gamma",
                                       _above(MAX_GAMMA)), "sweep gamma")


def test_simulate_and_sweep_take_the_same_nbar(capsys):
    # sweep bounds <n> through the alpha = sqrt(<n>) that simulate passes
    # on: the float above 1e8 still has square root 1e4 and runs in both
    first_refused = MAX_ALPHA**2
    while math.sqrt(first_refused) <= MAX_ALPHA:
        first_refused = math.nextafter(first_refused, math.inf)
    assert first_refused > math.nextafter(1e8, math.inf)
    for nbar, code in ((1e8, 0), (math.nextafter(1e8, math.inf), 0),
                       (first_refused, 2), (1.0000001e8, 2)):
        for command in ("simulate", "sweep"):
            res = main_in_process(capsys, command, "--scenario", "two_qubit",
                                  "--nbar", repr(nbar))
            assert res.returncode == code, (command, nbar, res.stderr)
            if code:
                assert_usage_error(res, (command, nbar))


@pytest.mark.parametrize("nbar", ["1.0000001e8", "-1", "nan"])
def test_every_command_gives_one_nbar_message(capsys, nbar):
    # one check (hybrid_state.alpha_for_nbar) for simulate, density and
    # sweep, naming the value typed
    line = (f"hpsim: error: mean photon number must be finite and "
            f"non-negative, at most 1e+08, got {float(nbar)}\n")
    for command in ("simulate", "density", "sweep"):
        res = main_in_process(capsys, command, "--scenario", "two_qubit",
                              "--nbar", nbar)
        assert (res.returncode, res.stdout, res.stderr) == (2, "", line), \
            command


def test_every_route_gives_one_alpha_message(capsys):
    # one check (hybrid_state.check_alpha) for the pulse amplitude, the
    # rule, the state and the closed form
    line = "alpha must be finite and non-negative, at most 10000, got 100000.0"
    for command in ("simulate", "density"):
        res = main_in_process(capsys, command, "--scenario", "two_qubit",
                              "--alpha", "1e5")
        assert (res.returncode, res.stdout, res.stderr) == (
            2, "", f"hpsim: error: {line}\n"), command
    pair = reflection_pair(solve_params_for_phase(2))
    for build in (lambda: build_decision_rule("two_qubit", 1e5),
                  lambda: sector_states(2, [(1e5, pair)])[0],
                  lambda: closed_form_two_qubit(1e5),
                  lambda: pulse_amplitude(1e5, 1.0)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == line


BAD_INPUT_MESSAGES = {
    "eta_sq": "eta_sq must lie in [0, 1], got 1.5",
    "n": "scenario n_qubit_P takes n in 2..20, got n=21",
    "alpha": "alpha must be finite and non-negative, at most 10000, got -1.0",
    "nbar": "mean photon number must be finite and non-negative, at most "
            "1e+08, got -1.0",
    "gamma": "gamma must be finite and non-negative, at most 1e+16, got -0.1",
}


@pytest.mark.parametrize("route, firsts", [
    ("run_scenario", ("eta_sq", "n", "eta_sq", "alpha")),
    ("sweep", ("nbar", "nbar", "n", "nbar")),
    ("simulate --alpha", ("eta_sq", "n", "eta_sq", "alpha")),
    ("simulate --nbar", ("nbar", "nbar", "eta_sq", "nbar")),
    ("density --alpha", ("eta_sq", "n", "n", "alpha")),
    ("density --nbar", ("nbar", "n", "n", "nbar"))])
def test_which_input_error_comes_first(capsys, route, firsts):
    # two bad inputs at once: the message is the first check's.  The order
    # is trials, seed, eta_sq, scenario/n, alpha, gamma in run_scenario;
    # <n>, gamma, scenario/n, eta_sq in sweep; the --alpha/--nbar route
    # (with --nbar's range) and then run_scenario's in simulate; and
    # scenario/n, the route, --points, eta_sq, alpha's range, gamma in
    # density.  A sweep's pulse is its <n>, so its bad alpha is a bad <n>.
    pairs = (("eta_sq", "alpha"), ("n", "alpha"), ("eta_sq", "n"),
             ("gamma", "alpha"))
    for bad, first in zip(pairs, firsts, strict=True):
        eta_sq = 1.5 if "eta_sq" in bad else 0.5
        n = 21 if "n" in bad else 5
        pulse = -1.0 if "alpha" in bad else 4.0
        gamma = -0.1 if "gamma" in bad else 0.0
        if route == "run_scenario":
            with pytest.raises(ValueError) as err:
                run_scenario("n_qubit_P", pulse, eta_sq, gamma=gamma, n=n)
            got = str(err.value)
        elif route == "sweep":
            with pytest.raises(ValueError) as err:
                sweep("n_qubit_P", [pulse], [gamma], eta_sq, n=n)
            got = str(err.value)
        else:
            command, flag = route.split()
            res = main_in_process(capsys, command, "--scenario", "n_qubit",
                                  "--n", str(n), flag, str(pulse), "--eta-sq",
                                  str(eta_sq), "--gamma", str(gamma))
            assert (res.returncode, res.stdout) == (2, ""), (route, bad)
            got = res.stderr.removeprefix("hpsim: error: ").rstrip("\n")
        assert got == BAD_INPUT_MESSAGES[first], (route, bad)


def test_simulate_trials_above_cap_exit_2_at_once():
    # refused before any trial is drawn; a short timeout fails the test
    # instead of waiting for minutes of Monte Carlo
    for trials in (MAX_TRIALS + 1, 10**13):
        res = run_cli("simulate", "--scenario", "gsum", "--alpha", "2",
                      "--trials", str(trials), timeout=20)
        assert_usage_error(res, trials)
        assert res.stderr == (f"hpsim: error: trials must be at most "
                              f"{MAX_TRIALS}, got {trials}\n")


def test_simulation_error_maps_to_exit_3(monkeypatch, capsys):
    from hpsim import cli
    from hpsim.errors import SimulationError

    def failing_run(*args, **kwargs):
        raise SimulationError("injected")

    monkeypatch.setattr(cli, "run_scenario", failing_run)
    code = cli.main(["simulate", "--scenario", "two_qubit", "--alpha", "1"])
    assert code == 3
    assert capsys.readouterr().err == "hpsim: numerical failure: injected\n"


def test_one_parser_serves_every_call(capsys):
    # main() parses with one cached parser; no call leaves state in it
    assert cli.build_parser() is cli.build_parser()
    simulate = ("simulate", "--scenario", "three_qubit", "--alpha", "2",
                "--trials", "100", "--seed", "5")
    first = main_in_process(capsys, *simulate)
    # a flag error is returned like a command's error, not raised
    bogus = main_in_process(capsys, "simulate", "--scenario", "bogus",
                            "--alpha", "1")
    assert bogus.returncode == 2 and bogus.stdout == ""
    assert "invalid choice: 'bogus'" in bogus.stderr
    helped = main_in_process(capsys, "simulate", "--help")
    assert helped.returncode == 0 and helped.stderr == ""
    assert helped.stdout.startswith("usage: ")
    swept = main_in_process(capsys, "sweep", "--scenario", "two_qubit",
                            "--nbar", "1,2")
    second = main_in_process(capsys, *simulate)
    assert first.returncode == swept.returncode == second.returncode == 0
    assert swept.stdout.startswith(",".join(SWEEP_CSV_COLUMNS) + "\n")
    assert first.stdout and second.stdout == first.stdout
    assert first.stderr == second.stderr == ""


def test_simulate_empty_bin_reports_null_fidelity():
    # gamma > 0 contracts the labels away from the Dicke(9,7) bin
    res = run_cli("simulate", "--scenario", "n_qubit", "--n", "9", "--alpha",
                  "8", "--gamma", "1")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    empty = [c for c in report["classes"] if c["target"] == "Dicke(9,7)"][0]
    assert empty["success_prob"] < 1e-12
    assert empty["fidelity"] is None
    assert all(c["fidelity"] is not None for c in report["classes"]
               if c["success_prob"] >= 1e-12)


def test_simulate_deterministic_bytes():
    args = ("simulate", "--scenario", "three_qubit", "--alpha", "4",
            "--eta-sq", "0.6667", "--trials", "5000", "--seed", "1234")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_seed_env_var_honored():
    args = ("simulate", "--scenario", "two_qubit", "--alpha", "1.5",
            "--trials", "2000")
    via_env = run_cli(*args, env_extra={"HPSIM_DEFAULT_SEED": "777"})
    via_flag = run_cli(*args, "--seed", "777")
    assert via_env.stdout == via_flag.stdout
    bad = run_cli(*args, env_extra={"HPSIM_DEFAULT_SEED": "not-an-int"})
    assert bad.returncode == 2


def test_sweep_csv_and_determinism():
    args = ("sweep", "--scenario", "two_qubit", "--nbar", "1:3:1",
            "--gamma", "0,0.2", "--eta-sq", "0.6667")
    a = run_cli(*args)
    assert a.returncode == 0
    lines = a.stdout.split("\n")
    assert lines[0] == ("scenario,mean_photon_number,alpha,gamma_over_kappa,"
                        "eta_sq,class_parity,target_name,success_prob,"
                        "fidelity,method,mc_stderr")
    assert len(lines) == 1 + 3 * 2 * 2 + 1
    b = run_cli(*args)
    assert a.stdout == b.stdout
    for jobs in ("2", "8"):
        assert run_cli(*args, "--jobs", jobs).stdout == a.stdout, jobs


def test_sweep_jobs_below_one_exits_2():
    for jobs in ("0", "-3"):
        res = run_cli("sweep", "--scenario", "two_qubit", "--nbar", "1",
                      "--jobs", jobs)
        assert res.returncode == 2, jobs
        assert res.stderr == "hpsim: error: --jobs must be at least 1\n", jobs


def test_sweep_grid_above_point_cap_exits_2(monkeypatch, capsys):
    # each range is within the cap, their product is not: no point may run
    from hpsim import cli

    class Reached(Exception):
        pass

    def sweep_reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "sweep", sweep_reached)
    code = cli.main(["sweep", "--scenario", "two_qubit", "--nbar", "0:1000:1",
                     "--gamma", "0:999:1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "hpsim: error: sweep grid of 1001 x 1000 points has more than "
        "1000000 points\n")
    with pytest.raises(Reached):
        cli.main(["sweep", "--scenario", "two_qubit", "--nbar", "0:999:1",
                  "--gamma", "0:999:1"])


def test_cli_import_starts_no_process_machinery():
    # sweeps run in one process, so the CLI must not pay for a pool's imports
    code = ("import sys, hpsim.cli; print(sorted(m for m in sys.modules if "
            "m.startswith(('concurrent.futures', 'multiprocessing'))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


@pytest.mark.parametrize("statement, status, numpy_loaded", [
    ("import hpsim", None, False),
    ("import hpsim.cli; hpsim.cli.build_parser()", None, False),
    ("status = main(['--help'])", 0, False),
    ("status = main(['simulate', '--scenario', 'bogus'])", 2, False),
    ("status = main(['solve-params', '--n', '5'])", 0, False),
    ("status = main(['simulate', '--scenario', 'two_qubit', '--alpha', '1'])",
     0, True),
])
def test_start_up_path_loads_no_numpy(statement, status, numpy_loaded):
    # the parser, --help, flag errors and solve-params run on the standard
    # library; a computing command loads numpy when it runs
    code = ("import sys\nstatus = None\n"
            + ("from hpsim.cli import main\n" if "main" in statement else "")
            + f"{statement}\n"
            "print(status, 'numpy' in sys.modules, file=sys.stderr)")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines()[-1] == f"{status} {numpy_loaded}"


# hpsim.__all__, by the module each name is read from
PUBLIC_NAMES = {
    "cavity": ("CavityParams", "ReflectionPair", "reflection_coefficient",
               "reflection_pair", "solve_params_for_phase"),
    "errors": ("DegenerateRuleError", "SimulationError",
               "SingularParametersError"),
    "homodyne": ("SCENARIOS", "DecisionRule", "OutcomeClass",
                 "build_decision_rule", "integrands", "outcome_density",
                 "resolve_scenario", "sample_outcomes"),
    "hybrid_state": ("SectorState", "sector_states"),
    "metrics": ("ClassResult", "ScenarioRun", "SweepPoint",
                "closed_form_two_qubit", "monte_carlo_estimate",
                "run_scenario", "sweep"),
    "numerics": ("erfc",),
}


def test_package_names_resolve_to_their_modules():
    import importlib

    import hpsim
    assert hpsim.__all__ == sorted(
        [*PUBLIC_NAMES, *(n for names in PUBLIC_NAMES.values() for n in names)])
    assert len(hpsim.__all__) == 32
    assert set(hpsim.__all__) <= set(dir(hpsim))
    for home, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"hpsim.{home}")
        assert getattr(hpsim, home) is module
        for name in names:
            assert getattr(hpsim, name) is getattr(module, name), name
    scenarios = importlib.import_module("hpsim.scenarios")
    assert hpsim.SCENARIOS is scenarios.SCENARIOS
    assert hpsim.resolve_scenario is scenarios.resolve_scenario
    for module in (hpsim, cli):
        with pytest.raises(AttributeError):
            module.no_such_name


def test_cli_library_names_are_the_library_functions(monkeypatch):
    # the names the benchmark's tracer patches on cli, resolved afresh
    from hpsim import cavity
    for module, name in ((metrics, "run_scenario"), (metrics, "sweep"),
                         (metrics, "closed_form_two_qubit"),
                         (homodyne, "density_components"),
                         (cavity, "solve_params_for_phase"),
                         (cavity, "reflection_pair")):
        monkeypatch.delitem(vars(cli), name, raising=False)
        assert getattr(cli, name) is getattr(module, name), name
        assert vars(cli)[name] is getattr(module, name), name


@pytest.mark.parametrize("name, argv", [
    ("density_components", ["density", "--scenario", "two_qubit", "--alpha",
                            "1", "--points", "3"]),
    ("solve_params_for_phase", ["solve-params", "--n", "3"]),
])
def test_commands_call_the_names_set_on_cli(monkeypatch, capsys, name, argv):
    # main keeps a name already set on cli, as it keeps a tracer's wrapper
    from hpsim.errors import SimulationError

    def failing(*args, **kwargs):
        raise SimulationError("injected")

    monkeypatch.setattr(cli, name, failing)
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "hpsim: numerical failure: injected\n"


def test_sweep_empty_range_exits_2():
    res = run_cli("sweep", "--scenario", "two_qubit", "--nbar", "5:1:1")
    assert res.returncode == 2
    res = run_cli("sweep", "--scenario", "two_qubit", "--nbar", "")
    assert res.returncode == 2


def test_sweep_non_finite_inputs_exit_2():
    cases = [("--nbar", "1", "--gamma", "nan"),
             ("--nbar", "1", "--gamma", "0,inf"),
             ("--nbar", "0:inf:1"),
             ("--nbar", "nan:1:0.5"),
             ("--nbar", "0:1:nan"),
             ("--nbar", "1,nan"),
             ("--nbar", "1", "--gamma", "0:inf:0.1"),
             ("--nbar", "1", "--eta-sq", "inf"),
             # negative values, refused before the first point runs
             ("--nbar=2,-1",),
             ("--nbar", "1", "--gamma=0,-1"),
             ("--nbar", "1", "--eta-sq", "-1"),
             ("--nbar", "1", "--eta-sq", "1.5"),
             # more range points than the cap, refused before any is built
             ("--nbar", "0:1e12:1"),
             ("--nbar", "1", "--gamma", "0:1:1e-7"),
             ("--nbar", "0:1e300:1e-300")]
    for args in cases:
        assert_usage_error(run_cli("sweep", "--scenario", "two_qubit", *args),
                           args)


def test_sweep_opaque_channel_writes_header_only():
    res = run_cli("sweep", "--scenario", "gsum", "--nbar", "1,2",
                  "--eta-sq", "0")
    assert res.returncode == 0, res.stderr
    assert res.stdout == ",".join(SWEEP_CSV_COLUMNS) + "\n"


def test_sweep_writes_file(tmp_path):
    out = tmp_path / "curves.csv"
    res = run_cli("sweep", "--scenario", "gsum", "--nbar", "2,5",
                  "--eta-sq", "0.6667", "--out", str(out))
    assert res.returncode == 0
    text = out.read_text()
    assert text.startswith("scenario,")
    assert "Gprime(3,1)" in text


OUT_RUNS = {
    "solve-params": ["solve-params", "--n", "3"],
    "simulate": ["simulate", "--scenario", "three_qubit", "--alpha", "2",
                 "--trials", "1000", "--seed", "5"],
    "sweep": ["sweep", "--scenario", "gsum", "--nbar", "0:2:1",
              "--gamma", "0,0.2"],
    "density": ["density", "--scenario", "three_qubit", "--alpha", "5",
                "--points", "51"],
}


@pytest.mark.parametrize("command", sorted(OUT_RUNS))
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, command):
    argv = OUT_RUNS[command]
    shown = main_in_process(capsys, *argv)
    out = tmp_path / "out.txt"
    written = main_in_process(capsys, *argv, "--out", str(out))
    assert shown.returncode == written.returncode == 0
    assert shown.stdout and written.stdout == "" == written.stderr
    assert out.read_bytes() == shown.stdout.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", "gsum", "--nbar=2,-1"],
    ["simulate", "--scenario", "two_qubit", "--alpha", "-1"],
    ["density", "--scenario", "three_qubit", "--alpha", "5", "--points", "1"],
], ids=["sweep", "simulate", "density"])
def test_input_error_leaves_the_out_file_alone(tmp_path, capsys, argv):
    # every input is checked before the file is opened
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier run\r\n")
    res = main_in_process(capsys, *argv, "--out", str(out))
    assert_usage_error(res, argv)
    assert out.read_bytes() == b"earlier run\r\n"


def test_sweep_opens_its_out_file_before_the_first_point(monkeypatch,
                                                         tmp_path, capsys):
    built = []
    monkeypatch.setattr(metrics, "sector_states",
                        lambda *args: built.append(args))
    res = main_in_process(capsys, "sweep", "--scenario", "gsum", "--nbar",
                          "1,2", "--out", str(tmp_path))
    assert_usage_error(res, "sweep")
    assert res.stderr.startswith(f"hpsim: error: cannot write {tmp_path}: ")
    assert built == []


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    # points are written as they are made: an 8x grid peaks within 25 % of
    # the small grid's traced heap.  Held whole, the sweep and its CSV grew
    # it by about half (2.16 -> 3.22 MB).  A first run takes one-time
    # allocations out of the small grid's peak.
    argv = ["sweep", "--scenario", "gsum", "--gamma", "0:0.9:0.1",
            "--out", str(tmp_path / "curves.csv")]

    def peak(nbar):
        tracemalloc.start()
        try:
            assert cli.main(argv + ["--nbar", nbar]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("0.5:1:0.5")
    small, large = peak("0.5:10:0.5"), peak("0.0625:10:0.0625")  # 200, 1600
    assert large <= 1.25 * small, (small, large)


def test_density_memory_does_not_grow_with_the_grid(monkeypatch, tmp_path):
    # the grid is made, evaluated and written one slice at a time: an 8x
    # grid peaks within 25 % of the small grid's traced heap.  Evaluated
    # whole, the 16,000-point grid peaked at several times the 2,000-point
    # one.  Slices of 1,024 points keep both grids several slices long and
    # the test short; a first run takes one-time allocations out of the
    # small grid's peak.
    monkeypatch.setattr(homodyne, "SLICE_POINTS", 1024, raising=False)
    argv = ["density", "--scenario", "n_qubit", "--n", "20", "--alpha", "3",
            "--gamma", "0.2", "--out", str(tmp_path / "curve.csv")]

    def peak(points):
        tracemalloc.start()
        try:
            assert cli.main(argv + ["--points", str(points)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)
    small, large = peak(2_000), peak(16_000)
    assert large <= 1.25 * small, (small, large)


@pytest.mark.parametrize("points", [2, 3, 801, 16_383, 16_384, 16_385, 40_000])
def test_density_grid_slices_are_linspace(points):
    # the density command's grid, slice by slice, has np.linspace's bits
    rng = np.random.default_rng(points)
    for _ in range(5):
        lo, hi = sorted(rng.normal(0.0, 10.0, 2))
        slices = list(cli._linspace_slices(lo, hi, points, 16_384))
        assert [v.size for v in slices[:-1]] == [16_384] * (len(slices) - 1)
        assert np.concatenate(slices).tobytes() == \
            np.linspace(lo, hi, points).tobytes()


@pytest.mark.parametrize("scenario, n, alpha, axis, classes", [
    ("n_qubit_P", 5, 2.0, "P", True),       # class names hold commas
    ("gsum_X", None, 2.0, "P", False),      # the other axis: no bins
    ("two_qubit_X", None, 0.0, "X", False)])    # no pulse: no bins
def test_density_rows_are_float_reprs_in_any_slices(monkeypatch, capsys,
                                                    scenario, n, alpha, axis,
                                                    classes):
    # a grid of several slices, the last one ragged, writes the bytes of the
    # grid in one slice and of a csv.writer over repr(float(x)) of each
    # value of the curves evaluated on the whole grid
    argv = ["density", "--scenario", scenario, "--alpha", repr(alpha),
            "--gamma", "0.2", "--quadrature", axis, "--points", "250",
            *(["--n", str(n)] if n else [])]

    def written(size):
        monkeypatch.setattr(homodyne, "SLICE_POINTS", size)
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    one_slice = written(homodyne.SLICE_POINTS)
    assert written(64) == one_slice         # slices of 64, 64, 64 and 58
    state = metrics.prepare_state(scenario, alpha, 1.0, 0.2, n)
    v = np.linspace(*homodyne.integration_window(state, axis), 250)
    header = ["v", "density"]
    curves = [v, homodyne.outcome_density(state, axis, v)]
    if classes:
        rule = build_decision_rule(scenario, alpha, n=n)
        header += [f"class[{c.parity}]:{c.target_name}" for c in rule.classes]
        curves += homodyne.density_components(state, rule, v)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(x)) for x in row] for row in zip(*curves))
    assert one_slice == want.getvalue()
    assert ('"' in one_slice) == classes        # quoted class names


def test_unwritable_out_exits_2(tmp_path, capsys):
    # a directory, or a path under a missing one: one line, no traceback
    from hpsim import cli
    for out in (tmp_path, tmp_path / "missing" / "x.json"):
        for argv in (["solve-params", "--n", "3"],
                     ["simulate", "--scenario", "two_qubit", "--nbar", "3"]):
            assert cli.main(argv + ["--out", str(out)]) == 2, (argv, out)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"hpsim: error: cannot write {out}: ")
            assert captured.err.count("\n") == 1, captured.err
    assert not (tmp_path / "missing").exists()


def test_density_two_qubit_peaks():
    res = run_cli("density", "--scenario", "two_qubit", "--alpha", "3",
                  "--eta-sq", "0.6667", "--points", "1601")
    rows = [line.split(",") for line in res.stdout.strip().split("\n")[1:]]
    vs = [float(r[0]) for r in rows]
    dens = [float(r[1]) for r in rows]
    peak_v = abs(vs[dens.index(max(dens))])
    want = math.sqrt(2) * math.sqrt(0.6667) * 3.0
    assert abs(peak_v - want) < 0.02


def test_density_vacuum_pulse():
    # no pulse, or an opaque channel: one vacuum Gaussian and no class columns
    for args in (("--scenario", "two_qubit", "--alpha", "0"),
                 ("--scenario", "three_qubit", "--alpha", "5", "--eta-sq", "0")):
        res = run_cli("density", *args, "--points", "201")
        assert res.returncode == 0, args
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "v,density"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(r) == 2 for r in rows)
        vs = [float(r[0]) for r in rows]
        dens = [float(r[1]) for r in rows]
        assert abs(vs[dens.index(max(dens))]) < 0.05
        assert abs(max(dens) - math.pi ** -0.5) < 1e-3


def test_density_three_peaks():
    res = run_cli("density", "--scenario", "three_qubit", "--alpha", "5",
                  "--points", "2001")
    lines = res.stdout.strip().split("\n")
    assert lines[0].startswith("v,density,")
    assert "GHZ(3)" in lines[0] and "W(3)" in lines[0]
    rows = [line.split(",") for line in lines[1:]]
    dens = [float(r[1]) for r in rows]
    vs = [float(r[0]) for r in rows]
    # local maxima near -sqrt(6)a/2, 0, +sqrt(6)a/2
    want = math.sqrt(6) * 5.0 / 2.0
    tops = sorted(vs[i] for i in range(1, len(vs) - 1)
                  if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]
                  and dens[i] > 0.01)
    assert len(tops) == 3
    assert abs(tops[0] + want) < 0.05 and abs(tops[1]) < 0.05 \
        and abs(tops[2] - want) < 0.05


def test_density_quadrature_override():
    args = ("density", "--scenario", "three_qubit", "--alpha", "2",
            "--points", "101")
    plain = run_cli(*args)
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout.split("\n")[0].count("class[") == 3  # three P bins
    # the scenario's own axis (P) is the run without the flag, byte for byte
    own = run_cli(*args, "--quadrature", "P")
    assert (own.returncode, own.stdout, own.stderr) == (0, plain.stdout, "")
    # the other axis has no bins: only the v and density columns
    other = run_cli(*args, "--quadrature", "X")
    assert other.returncode == 0, other.stderr
    lines = other.stdout.strip().split("\n")
    assert lines[0] == "v,density"
    assert len(lines) == 102
    assert all(len(line.split(",")) == 2 for line in lines[1:])
    assert other.stdout != plain.stdout


def test_density_non_finite_inputs_exit_2():
    cases = [("--alpha", "1", "--gamma", "nan"),
             ("--alpha", "1", "--gamma", "inf"),
             ("--alpha", "inf"),
             ("--nbar", "nan"),
             ("--alpha", "1", "--eta-sq", "nan"),
             # negative or out-of-range values
             ("--alpha", "1", "--gamma", "-0.1"),
             ("--alpha", "-1"),
             ("--alpha", "1", "--eta-sq", "-1"),
             ("--alpha", "1", "--eta-sq", "1.5")]
    for args in cases:
        assert_usage_error(run_cli("density", "--scenario", "two_qubit", *args),
                           args)


def test_density_points_capped_exit_2():
    # refused before any grid is built; 10^6 + 1 points would be 10^6 rows
    for points in ("1", str(10**6 + 1)):
        res = run_cli("density", "--scenario", "two_qubit", "--alpha", "1",
                      "--points", points)
        assert res.returncode == 2, points
        assert res.stderr == ("hpsim: error: --points must lie in "
                              "2..1000000\n"), res.stderr
        assert res.stdout == ""


def test_seed_out_of_range_exits_2():
    args = ("simulate", "--scenario", "two_qubit", "--alpha", "1",
            "--trials", "10")
    assert run_cli(*args, "--seed", "-5").returncode == 2
    assert run_cli(*args, "--seed", str(2**64)).returncode == 2
    assert run_cli(*args, "--seed", str(2**64 - 1)).returncode == 0
