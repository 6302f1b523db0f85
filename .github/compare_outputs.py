"""Compare the CLI outputs of two hpsim source trees, task by task.

    python .github/compare_outputs.py BASE_SRC HEAD_SRC

Runs the 21 tasks of bench/workloads.py at workload seeds 0 and 4 through
`hpsim.cli.main`, in one process per tree (PYTHONPATH=BASE_SRC, then
HEAD_SRC), and prints per task and seed either "identical" or the count
and largest size of the numbers that moved.  It exits 1 on any difference
in an exit code, in stderr, in the text around the numbers, or in a Monte
Carlo `success_prob` (a changed hit count), which must all stay
byte-identical.  bench/ is only read: no bytecode is written there.
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

# Runs in each tree: every task at every seed, one JSON list on stdout.
RUNNER = """
import json, os, sys
import workloads
from worker import run_task
import hpsim
from hpsim.cli import main
if not os.path.realpath(hpsim.__file__).startswith(sys.argv[2] + os.sep):
    sys.exit(f"hpsim imported from {hpsim.__file__}, not {sys.argv[2]}")
out = []
for seed in json.loads(sys.argv[1]):
    for workload in sorted(workloads.WORKLOADS):
        for task_id, argv in workloads.tasks(workload, seed):
            code, stdout, stderr, _ = run_task(main, argv)
            out.append([f"{workload}/{task_id}@{seed}", code, stdout, stderr])
json.dump(out, sys.stdout)
"""


def run_tree(src):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.abspath(src), BENCH]))
    res = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(SEEDS),
                          os.path.realpath(src)],
                         env=env, capture_output=True, text=True)
    if res.returncode:
        raise SystemExit(f"running {src} failed:\n{res.stderr}")
    return {key: (code, out, err) for key, code, out, err in json.loads(res.stdout)}


def mc_success_probs(text):
    """Monte Carlo success_prob values of a simulate report (else [])."""
    try:
        report = json.loads(text)
    except ValueError:
        return []
    return [c["success_prob"] for c in report.get("monte_carlo", [])]


def compare(base, head):
    """(message, fatal) for one task's (exit code, stdout, stderr) pair."""
    if base == head:
        return "identical", False
    (bcode, bout, berr), (hcode, hout, herr) = base, head
    if bcode != hcode or berr != herr:
        return f"exit code or stderr differs ({bcode} -> {hcode})", True
    if NUMBER.sub("#", bout) != NUMBER.sub("#", hout):
        return "non-numeric text differs", True
    moved = [abs(float(b) - float(h)) for b, h in
             zip(NUMBER.findall(bout), NUMBER.findall(hout)) if b != h]
    fatal = mc_success_probs(bout) != mc_success_probs(hout)
    note = "; Monte Carlo success_prob differs" if fatal else ""
    return f"{len(moved)} numbers moved, largest by {max(moved):.3g}{note}", fatal


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    base, head = (run_tree(src) for src in argv)
    if base.keys() != head.keys():
        print("the trees ran different task lists")
        return 1
    failed = 0
    for key in base:
        message, fatal = compare(base[key], head[key])
        failed += fatal
        print(f"{key}: {message}")
    print(f"{len(base)} task runs, {failed} with a difference that must not be")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
