"""Task lists of the three benchmark workloads and the seed derivation.

A task is one `hpsim` command line, run in-process through
`hpsim.cli.main(argv)`.  Monte Carlo tasks get their `--seed` from the
workload seed, so one benchmark seed fixes every input of a run.
"""

import hashlib

DEFAULT_SEED = 0          # the seed the stored reference outputs were made at
ETA_SQ = "0.6667"

# Nominal times of the frozen seed code in bench/baseline/ on the 2-core
# Intel Xeon VM the benchmark was written on (medians of 10 runs).  run.py
# reports checkout/baseline time ratios on this scale; the constants set
# only the scale, not the spread.
BASELINE_WALL_S = {"figures": 9.0, "monte_carlo": 3.5, "n_ladder": 10.3}
BASELINE_SETUP_S = 0.22


def _figures():
    common = ["--eta-sq", ETA_SQ]
    return [
        ("fig4b", ["sweep", "--scenario", "two_qubit", "--nbar", "0:10:0.25",
                   "--gamma", "0,0.2,0.5", "--jobs", "1"] + common, False),
        ("fig6bc", ["sweep", "--scenario", "gsum", "--nbar", "0:10:0.5",
                    "--gamma", "0,0.2,0.5", "--jobs", "1"] + common, False),
        ("fig5a", ["density", "--scenario", "three_qubit", "--alpha", "5"]
         + common, False),
    ]


def _monte_carlo():
    base = ["simulate", "--nbar", "3", "--trials", "1000000",
            "--eta-sq", ETA_SQ]
    return [
        ("mc_two_qubit", base + ["--scenario", "two_qubit", "--gamma", "0"],
         True),
        ("mc_three_qubit", base + ["--scenario", "three_qubit", "--gamma", "0"],
         True),
        ("mc_gsum", base + ["--scenario", "gsum", "--gamma", "0.2"], True),
        ("mc_n5", ["simulate", "--scenario", "n_qubit", "--n", "5", "--nbar",
                   "9", "--gamma", "0.2", "--trials", "1000000",
                   "--eta-sq", ETA_SQ], True),
    ]


# Monte Carlo trials per node count; n <= 8 is quadrature only.
_LADDER_TRIALS = {5: 0, 6: 0, 7: 0, 8: 0, 9: 20000, 11: 4000, 13: 200}


def _n_ladder():
    tasks = []
    for alpha in ("1", "3"):
        for n, trials in _LADDER_TRIALS.items():
            argv = ["simulate", "--scenario", "n_qubit", "--n", str(n),
                    "--alpha", alpha, "--gamma", "0.2", "--eta-sq", ETA_SQ,
                    "--trials", str(trials)]
            tasks.append((f"n{n}_a{alpha}", argv, trials > 0))
    return tasks


WORKLOADS = {
    "figures": _figures,
    "monte_carlo": _monte_carlo,
    "n_ladder": _n_ladder,
}


def mc_seed(workload_seed: int, task_id: str) -> int:
    """Unsigned 64-bit `--seed` for one Monte Carlo task of a run."""
    digest = hashlib.sha256(f"{workload_seed}:{task_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def tasks(workload: str, workload_seed: int):
    """[(task_id, argv)] for one run; MC tasks carry a derived --seed."""
    out = []
    for task_id, argv, sampled in WORKLOADS[workload]():
        if sampled:
            argv = argv + ["--seed", str(mc_seed(workload_seed, task_id))]
        out.append((task_id, argv))
    return out
