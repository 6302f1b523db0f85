"""Compare the CLI outputs of two hpsim source trees, task by task.

    python .github/compare_outputs.py BASE_SRC HEAD_SRC

Runs the 21 tasks of bench/workloads.py at workload seeds 0 and 4 through
`hpsim.cli.main`, in one process per tree (PYTHONPATH=BASE_SRC, then
HEAD_SRC), and prints per task and seed either "identical" or the count
and largest size of the numbers that moved; a summary line totals the
moved numbers and names the task of the largest move, and the last line
gives the line totals of both trees' hpsim modules (a report, not a
check), so a change in the package's size shows.  It exits 1 on any
difference in an exit code, in stderr, in the text around the numbers, or
in a Monte Carlo `success_prob` (a changed hit count), which must all stay
byte-identical.  Each tree also runs every `sweep` and `density` task a
second time with `--out` to a temporary file; it exits 1 when that run's
exit code differs, its stdout is not empty, or the file is not
byte-identical to the tree's stdout for the task.  Each tree also runs the
start-up paths (STARTUP: --help, each command's --help, solve-params and
two flag errors) with COLUMNS=80, so that argparse wraps alike, and the
SIMULATE, DENSITY and SWEEP lines, which no benchmark task runs; it exits 1
on any difference in their exit codes, stdout or stderr.  bench/ is only
read: no bytecode is written there.
"""

import json
import os
import re
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
SEEDS = (0, 4)
# a float as repr or JSON writes it; integers (counts, n, parities) are text
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.\d+(?:e[-+]?\d+)?|\d+e[-+]?\d+"
                    r"|inf|nan|NaN|Infinity)(?![\w.])")
# The CLI's start-up paths, which run without numpy; no benchmark task runs one
STARTUP = ([["--help"]]
           + [[command, "--help"]
              for command in ("solve-params", "simulate", "sweep", "density")]
           + [["solve-params", "--n", str(n)] for n in range(2, 6)]
           + [["simulate", "--scenario", "bogus"],
              ["sweep", "--scenario", "gsum"]])
# Monte Carlo runs past the benchmark's tasks: three blocks with a ragged
# last slice at the largest n, the largest seed, and a single trial
SIMULATE = [["simulate", "--scenario", "n_qubit", "--n", "20", "--nbar", "9",
             "--gamma", "0.2", "--trials", "150001", "--seed", "5"],
            ["simulate", "--scenario", "n_qubit", "--n", "13", "--alpha", "3",
             "--gamma", "1", "--trials", "70000",
             "--seed", "18446744073709551615"],
            ["simulate", "--scenario", "two_qubit", "--alpha", "1.5",
             "--trials", "1", "--seed", "3"]]
# Density curves past fig5a's single slice: three slices with a ragged last
# one, the other axis (no class columns), the scenario's own axis named
# (class columns) and a pulse that resolves no bins
DENSITY = [["density", "--scenario", "n_qubit", "--n", "7", "--alpha", "3",
            "--gamma", "0.2", "--eta-sq", "0.6667", "--points", "40000"],
           ["density", "--scenario", "gsum", "--alpha", "2", "--quadrature",
            "P", "--points", "33"],
           ["density", "--scenario", "three_qubit", "--alpha", "2",
            "--quadrature", "P", "--points", "9"],
           ["density", "--scenario", "two_qubit", "--alpha", "0",
            "--points", "5"]]
# Sweeps past the benchmark's n <= 3: n = 20 over three sweep blocks and
# n = 13 over two, both with a lossy gamma
SWEEP = [["sweep", "--scenario", "n_qubit", "--n", "20", "--nbar",
          "0.5:20:0.5", "--gamma", "0,0.2", "--eta-sq", "0.6667"],
         ["sweep", "--scenario", "n_qubit", "--n", "13", "--nbar",
          "0.25:8:0.25", "--gamma", "0,1", "--eta-sq", "0.6667"]]

# Runs in each tree: the STARTUP, SIMULATE, DENSITY and SWEEP lines, every
# task at every seed, and the curve tasks again with --out; one JSON object
# on stdout.
RUNNER = """
import json, os, sys, tempfile
import workloads
from worker import run_task
import hpsim
from hpsim.cli import main
if not os.path.realpath(hpsim.__file__).startswith(sys.argv[2] + os.sep):
    sys.exit(f"hpsim imported from {hpsim.__file__}, not {sys.argv[2]}")
startup = [[" ".join(argv), *run_task(main, argv)[:3]]
           for argv in json.loads(sys.argv[3])]
out, files = [], []
with tempfile.TemporaryDirectory() as tmp:
    for seed in json.loads(sys.argv[1]):
        for workload in sorted(workloads.WORKLOADS):
            for task_id, argv in workloads.tasks(workload, seed):
                key = f"{workload}/{task_id}@{seed}"
                code, stdout, stderr, _ = run_task(main, argv)
                out.append([key, code, stdout, stderr])
                if argv[0] not in ("sweep", "density"):
                    continue
                path = os.path.join(tmp, f"{len(files)}.out")
                fcode, fstdout, _, _ = run_task(main, argv + ["--out", path])
                data = None
                if os.path.isfile(path):
                    with open(path, "rb") as fh:
                        data = fh.read()
                problems = [what for what, bad in (
                    (f"exit code {code} -> {fcode}", fcode != code),
                    (f"stdout of {len(fstdout)} chars", fstdout != ""),
                    ("file differs from stdout",
                     data != stdout.encode("utf-8"))) if bad]
                files.append([key, problems])
json.dump({"runs": out, "out_files": files, "startup": startup}, sys.stdout)
"""


def run_tree(src):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               COLUMNS="80",
               PYTHONPATH=os.pathsep.join([os.path.abspath(src), BENCH]))
    res = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(SEEDS),
                          os.path.realpath(src),
                          json.dumps(STARTUP + SIMULATE + DENSITY + SWEEP)],
                         env=env, capture_output=True, text=True)
    if res.returncode:
        raise SystemExit(f"running {src} failed:\n{res.stderr}")
    got = json.loads(res.stdout)
    return ({key: (code, out, err) for key, code, out, err in got["runs"]},
            got["out_files"], got["startup"])


def mc_success_probs(text):
    """Monte Carlo success_prob values of a simulate report (else [])."""
    try:
        report = json.loads(text)
    except ValueError:
        return []
    return [c["success_prob"] for c in report.get("monte_carlo", [])]


def compare(base, head):
    """(message, fatal, sizes of the moved numbers) for one task's
    (exit code, stdout, stderr) pair."""
    if base == head:
        return "identical", False, []
    (bcode, bout, berr), (hcode, hout, herr) = base, head
    if bcode != hcode or berr != herr:
        return f"exit code or stderr differs ({bcode} -> {hcode})", True, []
    if NUMBER.sub("#", bout) != NUMBER.sub("#", hout):
        return "non-numeric text differs", True, []
    moved = [abs(float(b) - float(h)) for b, h in
             zip(NUMBER.findall(bout), NUMBER.findall(hout)) if b != h]
    fatal = mc_success_probs(bout) != mc_success_probs(hout)
    note = "; Monte Carlo success_prob differs" if fatal else ""
    message = f"{len(moved)} numbers moved, largest by {max(moved):.3g}{note}"
    return message, fatal, moved


def package_lines(src):
    """Lines in the .py files of the tree's hpsim package."""
    folder = os.path.join(src, "hpsim")
    total = 0
    for name in os.listdir(folder):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    (base, base_files, base_startup), (head, head_files, head_startup) = (
        run_tree(src) for src in argv)
    if base.keys() != head.keys():
        print("the trees ran different task lists")
        return 1
    bad_startup = 0
    for (line, *b), (_, *h) in zip(base_startup, head_startup):
        if b != h:
            print(f"`hpsim {line}`: exit code, stdout or stderr "
                  f"differs ({b[0]} -> {h[0]})")
            bad_startup += 1
    print(f"{len(base_startup)} start-up, simulate, density and sweep runs, "
          f"{bad_startup} with a difference")
    bad_files = 0
    for tree, files in zip(argv, (base_files, head_files)):
        bad = [(key, problems) for key, problems in files if problems]
        for key, problems in bad:
            print(f"{tree}: {key} --out: {'; '.join(problems)}")
        print(f"{tree}: {len(files) - len(bad)} of {len(files)} --out runs "
              f"write the stdout bytes")
        bad_files += len(bad)
    failed, moved, largest = 0, 0, None     # largest: (size, task)
    for key in base:
        message, fatal, sizes = compare(base[key], head[key])
        failed += fatal
        moved += len(sizes)
        if sizes and (largest is None or max(sizes) > largest[0]):
            largest = max(sizes), key
        print(f"{key}: {message}")
    total = f"; {moved} numbers moved"
    if largest:
        total += f", largest by {largest[0]:.3g} ({largest[1]})"
    print(f"{len(base)} task runs, {failed} with a difference that must not "
          f"be{total}")
    base_lines, head_lines = map(package_lines, argv)
    print(f"src/hpsim lines: {base_lines} -> {head_lines} "
          f"({head_lines - base_lines:+d})")
    return 1 if failed or bad_files or bad_startup or not base_files else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
