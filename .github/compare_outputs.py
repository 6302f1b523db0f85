"""Compare the CLI outputs of two hpsim source trees, line by line.

    python .github/compare_outputs.py BASE_SRC HEAD_SRC

Runs one list of lines through `hpsim.cli.main`, in one process per tree
(PYTHONPATH=BASE_SRC, then HEAD_SRC) with COLUMNS=80, so that argparse
wraps alike: the start-up paths (STARTUP: --help, each command's --help,
solve-params and two flag errors), the SIMULATE, DENSITY and SWEEP lines,
which no benchmark task runs, and then the 21 tasks of bench/workloads.py
at workload seeds 0 and 4.  Every sweep and density line that exits 0 and
is not --help runs a second time with `--out` to a temporary file; the
script exits 1 when that run exits non-zero, its stdout is not empty, or
the file is not byte-identical to the tree's stdout for the line.
bench/ is only read: no bytecode is written there.

One rule judges every line: identical output (exit code, stdout and
stderr) passes, and any difference fails unless it is declared.  Each
line that differs or is declared is printed with its verdict, which gives
the count and largest size of the numbers that moved; a summary line
totals the lines and the moved numbers, and the last line gives the line
totals of both trees' hpsim modules (a report, not a check), so a change
in the package's size shows.

A deliberate output change is declared in .github/expected_changes.json,
an object that maps a base commit's full SHA to a list of entries
{"line": L, "kind": "numbers", "bound": B} or {"line": L, "kind": "text"},
where L is a line as printed: a task key ("monte_carlo/mc_gsum@0") or a
command line as written after `hpsim`.  Only the entries under the SHA
that BASE_SRC's checkout reads (`git rev-parse HEAD`) count, so a
declaration ends with its pull request.  A `numbers` line passes when its
exit code, stderr, non-numeric text and Monte Carlo `success_prob` (a hit
count) are equal and no number moves more than B; a `text` line prints a
unified diff and passes; a declared line that does not change, or that no
tree runs, fails.
"""

import difflib
import json
import os
import re
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
DECLARATIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected_changes.json")
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

# Runs in each tree: the STARTUP, SIMULATE, DENSITY and SWEEP lines, then
# every task at every seed, each sweep and density line that exits 0 and
# is not --help again with --out; one JSON object on stdout.
RUNNER = """
import json, os, sys, tempfile
import workloads
from worker import run_task
import hpsim
from hpsim.cli import main
if not os.path.realpath(hpsim.__file__).startswith(sys.argv[2] + os.sep):
    sys.exit(f"hpsim imported from {hpsim.__file__}, not {sys.argv[2]}")
lines = [(" ".join(argv), argv) for argv in json.loads(sys.argv[3])]
lines += [(f"{workload}/{task_id}@{seed}", argv)
          for seed in json.loads(sys.argv[1])
          for workload in sorted(workloads.WORKLOADS)
          for task_id, argv in workloads.tasks(workload, seed)]
out, files = [], []
with tempfile.TemporaryDirectory() as tmp:
    for key, argv in lines:
        code, stdout, stderr, _ = run_task(main, argv)
        out.append([key, code, stdout, stderr])
        if argv[0] not in ("sweep", "density") or code or "--help" in argv:
            continue
        path = os.path.join(tmp, f"{len(files)}.out")
        fcode, fstdout, _, _ = run_task(main, argv + ["--out", path])
        data = None
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                data = fh.read()
        problems = [what for what, bad in (
            (f"exit code {fcode}", fcode != 0),
            (f"stdout of {len(fstdout)} chars", fstdout != ""),
            ("file differs from stdout", data != stdout.encode("utf-8")))
            if bad]
        files.append([key, problems])
json.dump({"runs": out, "out_files": files}, sys.stdout)
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
            got["out_files"])


def mc_success_probs(text):
    """Monte Carlo success_prob values of a simulate report (else [])."""
    try:
        report = json.loads(text)
    except ValueError:
        return []
    return [c["success_prob"] for c in report.get("monte_carlo", [])]


def compare(base, head):
    """(message, fatal, sizes of the moved numbers) for one line's (exit
    code, stdout, stderr) pair, where fatal marks a difference that no
    `numbers` declaration covers."""
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


def base_sha(src):
    """The commit that the checkout holding src is at, or None outside git."""
    res = subprocess.run(["git", "-C", src, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def declared_changes(sha, path):
    """{line: entry} of the declarations under base commit sha ({} for a
    commit with none).  A malformed entry or a line declared twice raises
    SystemExit."""
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    if not isinstance(table, dict):
        raise SystemExit(f"{path}: not an object of base commits")
    declared = {}
    for entry in table.get(sha, []) if sha else []:
        kind, bound = entry.get("kind"), entry.get("bound")
        ok = (isinstance(entry.get("line"), str)
              and entry["line"] not in declared
              and (kind == "text" and "bound" not in entry
                   or kind == "numbers" and isinstance(bound, (int, float))
                   and not isinstance(bound, bool) and bound >= 0))
        if not ok:
            raise SystemExit(f"{path}: bad or repeated entry {entry!r}")
        declared[entry["line"]] = entry
    return declared


def judge(base, head, entry=None):
    """(message, fatal, sizes of the moved numbers) for one line's (exit
    code, stdout, stderr) pair: any difference is fatal unless entry
    declares it."""
    message, fatal, moved = compare(base, head)
    if entry is None:
        return message, base != head, moved
    if base == head:
        return f"declared {entry['kind']} change, but identical", True, []
    if entry["kind"] == "text":
        diff = difflib.unified_diff(_lines(base), _lines(head), "base", "head",
                                    lineterm="")
        return "declared text change:\n" + "\n".join(diff), False, moved
    bound = entry["bound"]
    if not fatal and max(moved) > bound:
        return f"{message}, over the declared {bound:g}", True, moved
    return f"{message} (declared numbers, bound {bound:g})", fatal, moved


def _lines(run):
    """One line's exit code, stdout and stderr as lines, for a diff."""
    code, out, err = run
    return ([f"exit code {code}", "stdout:"] + out.splitlines()
            + ["stderr:"] + err.splitlines())


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
    (base, base_files), (head, head_files) = map(run_tree, argv)
    sha = base_sha(argv[0])
    declared = declared_changes(sha, DECLARATIONS)
    print(f"{len(declared)} declared changes for base {sha}")
    bad_files = 0
    for tree, files in zip(argv, (base_files, head_files)):
        bad = [(key, problems) for key, problems in files if problems]
        for key, problems in bad:
            print(f"{tree}: {key} --out: {'; '.join(problems)}")
        print(f"{tree}: {len(files) - len(bad)} of {len(files)} --out runs "
              f"write the stdout bytes")
        bad_files += len(bad)
    failed, moved, largest = 0, 0, None     # largest: (size, line)
    for key in base:
        entry = declared.pop(key, None)
        message, fatal, sizes = judge(base[key], head[key], entry)
        failed += fatal
        moved += len(sizes)
        if sizes and (largest is None or max(sizes) > largest[0]):
            largest = max(sizes), key
        if base[key] != head[key] or entry is not None:
            print(f"{key}: {message}")
    total = f"; {moved} numbers moved"
    if largest:
        total += f", largest by {largest[0]:.3g} ({largest[1]})"
    same = sum(base[key] == head[key] for key in base)
    print(f"{len(base)} lines, {same} identical, {failed} fail{total}")
    for line in declared:
        print(f"{line}: declared, but no tree runs it")
    base_lines, head_lines = map(package_lines, argv)
    print(f"src/hpsim lines: {base_lines} -> {head_lines} "
          f"({head_lines - base_lines:+d})")
    return 1 if failed or bad_files or declared or not base_files else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
