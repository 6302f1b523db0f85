"""Where byte identity holds: one numpy build and CPU feature set.

numpy picks its exp, log and cos kernels by the CPU's features, so the
last bits of a printed float may differ between machines, while the text
and the Monte Carlo hit counts do not (notes/decisions.md, "Byte identity:
one numpy build and CPU feature set").  This runs three command lines
twice in child processes, once as numpy starts by default and once with
every dispatched feature this CPU has turned off (NPY_DISABLE_CPU_FEATURES),
which leaves numpy its baseline kernels.  With nothing to turn off, both
runs take one path and agree byte for byte.
"""

import json
import os
import re
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# a float as repr or JSON writes it; integers (counts, n, parities) are text
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.\d+(?:e[-+]?\d+)?|\d+e[-+]?\d+"
                    r"|inf|nan|NaN|Infinity)(?![\w.])")
# relative to max(1, |x|); the moves measured are at most 2.2e-16
BOUND = 1e-15
LINES = (
    # three Monte Carlo blocks at the largest n
    ["simulate", "--scenario", "n_qubit", "--n", "20", "--nbar", "9",
     "--gamma", "0.2", "--trials", "150001", "--seed", "5"],
    # the fig4b and fig5a benchmark tasks
    ["sweep", "--scenario", "two_qubit", "--nbar", "0:10:0.25",
     "--gamma", "0,0.2,0.5", "--jobs", "1", "--eta-sq", "0.6667"],
    ["density", "--scenario", "three_qubit", "--alpha", "5",
     "--eta-sq", "0.6667"],
)
# the dispatched features this CPU has that are still on, as numpy reads
# them in a child process
_ON = ("from numpy._core import _multiarray_umath as m; "
       "print(' '.join(f for f in m.__cpu_dispatch__ if m.__cpu_features__[f]))")


def _run(args, disable):
    env = {key: value for key, value in os.environ.items()
           if key not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _hit_fractions(text):
    """The Monte Carlo success_prob values (hits / trials) of a report."""
    return [c["success_prob"] for c in json.loads(text)["monte_carlo"]]


def test_output_differs_across_cpu_dispatch_only_in_last_bits():
    features = _run(["-c", _ON], None).stdout.strip()
    assert _run(["-c", _ON], features).stdout.strip() == ""
    for line in LINES:
        default, baseline = (_run(["-m", "hpsim", *line], disable)
                             for disable in (None, features))
        assert default.returncode == baseline.returncode == 0, line
        assert default.stderr == baseline.stderr, line
        assert (NUMBER.sub("#", default.stdout)
                == NUMBER.sub("#", baseline.stdout)), line
        if line[0] == "simulate":
            hits = _hit_fractions(default.stdout)
            assert len(hits) > 1 and hits == _hit_fractions(baseline.stdout)
        for x, y in zip(NUMBER.findall(default.stdout),
                        NUMBER.findall(baseline.stdout)):
            if x != y:
                move = abs(float(x) - float(y))
                assert move <= BOUND * max(1.0, abs(float(x))), (line, x, y)
