import json
import math
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env_extra=None):
    """Run `python -m hpsim`; a run that hangs fails the test after 120 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("HPSIM_DEFAULT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hpsim", *args],
                          capture_output=True, text=True, env=env, timeout=120)


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
    res = run_cli("solve-params", "--n", "1")
    assert res.returncode == 2


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
        ("simulate", "--scenario", "bogus", "--alpha", "1"),
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
        res = run_cli(*args)
        assert res.returncode == 2, args


def test_simulate_numerical_failure_exits_3():
    # opaque channel leaves no resolvable bins -> DegenerateRuleError -> 3
    res = run_cli("simulate", "--scenario", "three_qubit", "--alpha", "2",
                  "--eta-sq", "0")
    assert res.returncode == 3
    assert "numerical failure" in res.stderr
    # the integrand overflows; the integrator stops at the first bad value
    res = run_cli("simulate", "--scenario", "two_qubit", "--alpha", "1e300")
    assert res.returncode == 3
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr           # no numpy warnings before it
    assert lines[0].startswith("hpsim: numerical failure: non-finite integrand")


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
    par = run_cli(*args, "--jobs", "2")
    assert par.stdout == a.stdout


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
             # more range points than the cap, refused before any is built
             ("--nbar", "0:1e12:1"),
             ("--nbar", "1", "--gamma", "0:1:1e-7"),
             ("--nbar", "0:1e300:1e-300")]
    for args in cases:
        res = run_cli("sweep", "--scenario", "two_qubit", *args)
        assert res.returncode == 2, args
        assert "Traceback" not in res.stderr, args


def test_sweep_writes_file(tmp_path):
    out = tmp_path / "curves.csv"
    res = run_cli("sweep", "--scenario", "gsum", "--nbar", "2,5",
                  "--eta-sq", "0.6667", "--out", str(out))
    assert res.returncode == 0
    text = out.read_text()
    assert text.startswith("scenario,")
    assert "Gprime(3,1)" in text


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
    res = run_cli("density", "--scenario", "two_qubit", "--alpha", "0",
                  "--points", "201")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "v,density"
    rows = [line.split(",") for line in lines[1:]]
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


def test_density_non_finite_inputs_exit_2():
    cases = [("--alpha", "1", "--gamma", "nan"),
             ("--alpha", "1", "--gamma", "inf"),
             ("--alpha", "inf"),
             ("--nbar", "nan"),
             ("--alpha", "1", "--eta-sq", "nan")]
    for args in cases:
        res = run_cli("density", "--scenario", "two_qubit", *args)
        assert res.returncode == 2, args


def test_seed_out_of_range_exits_2():
    args = ("simulate", "--scenario", "two_qubit", "--alpha", "1",
            "--trials", "10")
    assert run_cli(*args, "--seed", "-5").returncode == 2
    assert run_cli(*args, "--seed", str(2**64)).returncode == 2
    assert run_cli(*args, "--seed", str(2**64 - 1)).returncode == 0
