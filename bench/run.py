"""hpsim benchmark: one workload, timed end to end or traced per module.

Run from the root of a checkout:

    python3 bench/run.py --workload figures --seed 0 --seconds 10 --trace 0

Tasks run in worker processes (bench/worker.py), each task one in-process
`hpsim.cli.main(argv)` call, with `--jobs 1`, the BLAS thread count pinned
to 1 and every process of the run pinned to one CPU.  Every output of the
checkout's code is checked against the reference outputs in
bench/reference/ (see bench/check.py).

--trace 0 reports the end-to-end metrics.  The host's speed drifts by tens
of percent over seconds to minutes, so times are measured in pairs: a
worker on the checkout's `src` and a worker on the frozen copy of the seed
code in bench/baseline/ run each task alternately, and a time is reported
as the checkout/baseline ratio times the baseline's nominal time
(workloads.BASELINE_WALL_S, BASELINE_SETUP_S):
  setup_s      median over SETUP_LAUNCHES paired launches of a fresh
               interpreter that imports hpsim.cli and builds the parser;
  wall_s       time to finish the task list once, from the median over
               paired passes (at least MIN_PASSES, filling --seconds) of
               the ratio of the two list times;
  peak_rss_mb  peak resident memory of the checkout's worker.
--trace 1 runs the list once untraced and once under the span tracer
(bench/spans.py) on the checkout's code and reports the per-layer metrics,
the tracing overhead and the check totals.

The second-to-last stdout line is a JSON record of the run: environment,
raw times, failures with their messages and known failures.  The last line
is the result object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

BASELINE_SRC = os.path.join(HERE, "baseline")
SETUP_LAUNCHES = 5          # per tree
MIN_PASSES = 2
BLAS_THREADS = "1"
RUN_TIMEOUT_S = 170         # the workers are killed after this
PASS_BUDGET_S = 140         # no pass is started that could end after this


class BenchError(Exception):
    pass


def worker_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("HPSIM_DEFAULT_SEED", None)
    return env


def setup_seconds(src):
    """Wall time of a fresh interpreter that imports hpsim.cli and builds the parser."""
    cmd = [sys.executable, "-c", "import hpsim.cli; hpsim.cli.build_parser()"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=worker_env(src), capture_output=True,
                          text=True, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"setup launch failed: {proc.stderr.strip()}")
    return seconds


class Worker:
    """A bench/worker.py process serving one hpsim source tree."""

    def __init__(self, src, workload, seed, traced=False):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", src,
               "--workload", workload, "--seed", str(seed)]
        if traced:
            cmd.append("--traced")
        self.proc = subprocess.Popen(cmd, env=worker_env(src), text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise BenchError(f"worker exited {self.proc.returncode}: "
                             f"{self.proc.stderr.read().strip()[-2000:]}")
        return json.loads(line)

    def run(self, index):
        """{code, stdout, stderr, seconds} of task `index`."""
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        return self._reply()

    def finish(self):
        """The worker's closing report; the process has ended on return."""
        self.proc.stdin.close()
        final = self._reply()
        self.proc.wait(timeout=30)
        return final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Workers:
    """Starts workers and kills every one of them on exit or on timeout."""

    def __init__(self):
        self.started = []
        self.timer = threading.Timer(RUN_TIMEOUT_S, self.close)

    def __enter__(self):
        self.timer.start()
        return self

    def start(self, *args, **kwargs):
        worker = Worker(*args, **kwargs)
        self.started.append(worker)
        return worker

    def close(self):
        for worker in self.started:
            worker.kill()

    def __exit__(self, *exc):
        self.timer.cancel()
        self.close()
        for worker in self.started:
            for stream in (worker.proc.stdin, worker.proc.stdout,
                           worker.proc.stderr):
                if not stream.closed:
                    stream.close()


class Tally:
    """Check outcomes over every task of every pass."""

    def __init__(self, reference, exact_mc):
        self.reference = reference
        self.exact_mc = exact_mc
        self.attempted = 0
        self.failures = []
        self.known = []
        self.max_abs_dev = 0.0

    def add(self, label, task_id, argv, record):
        self.attempted += 1
        ref = self.reference["tasks"][task_id]
        status, dev, message = check.check_task(
            argv, record["code"], record["stdout"], record["stderr"], ref,
            self.exact_mc)
        self.max_abs_dev = max(self.max_abs_dev, dev)
        entry = {"pass": label, "task": task_id, "message": message}
        if status == "failed":
            self.failures.append(entry)
        elif status == "known":
            self.known.append(entry)

    def add_passes(self, passes, task_list, label):
        for p, records in enumerate(passes):
            for (task_id, argv), record in zip(task_list, records):
                self.add(f"{label}{p}", task_id, argv, record)

    def fail(self, label, task_id, message):
        self.attempted += 1
        self.failures.append({"pass": label, "task": task_id,
                              "message": message})


def run_pass(worker, task_list):
    return [worker.run(i) for i in range(len(task_list))]


def task_medians(passes, task_list):
    """Each task's median time over the passes."""
    return {task_id: statistics.median(p[i]["seconds"] for p in passes)
            for i, (task_id, _) in enumerate(task_list)}


def paired_passes(workers, srcs, workload, seed, seconds, task_list):
    """Alternate checkout and baseline on every task until --seconds are used.

    Which tree goes first flips from task to task and pass to pass, so a
    drift of the host's speed does not favour either.
    """
    trees = {name: workers.start(src, workload, seed) for name, src in srcs.items()}
    passes = {name: [] for name in srcs}
    began = time.perf_counter()
    while True:
        p = len(passes["checkout"])
        records = {name: [] for name in srcs}
        for i in range(len(task_list)):
            order = ("checkout", "baseline") if (p + i) % 2 == 0 else (
                "baseline", "checkout")
            for name in order:
                records[name].append(trees[name].run(i))
        for name in passes:
            passes[name].append(records[name])
        elapsed = time.perf_counter() - began
        if elapsed * (p + 2) / (p + 1) > PASS_BUDGET_S:
            break
        if p + 1 >= MIN_PASSES and elapsed >= seconds:
            break
    finals = {name: worker.finish() for name, worker in trees.items()}
    return passes, finals


def paired_setup(srcs):
    """Setup launches of the checkout and the baseline, alternating."""
    times = {name: [] for name in srcs}
    for i in range(SETUP_LAUNCHES):
        for name in (("checkout", "baseline") if i % 2 == 0
                     else ("baseline", "checkout")):
            times[name].append(setup_seconds(srcs[name]))
    return times


def end_to_end(workload, seed, seconds, tally):
    srcs = {"checkout": os.path.join(os.getcwd(), "src"),
            "baseline": BASELINE_SRC}
    task_list = workloads.tasks(workload, seed)
    setup = paired_setup(srcs)
    with Workers() as workers:
        passes, finals = paired_passes(workers, srcs, workload, seed, seconds,
                                       task_list)
    tally.add_passes(passes["checkout"], task_list, "pass")
    list_s = {name: [sum(r["seconds"] for r in records) for records in runs]
              for name, runs in passes.items()}
    wall_ratio = statistics.median(
        c / b for c, b in zip(list_s["checkout"], list_s["baseline"]))
    setup_ratio = statistics.median(
        c / b for c, b in zip(setup["checkout"], setup["baseline"]))
    metrics = {
        "setup_s": (setup_ratio * workloads.BASELINE_SETUP_S, "s"),
        "wall_s": (wall_ratio * workloads.BASELINE_WALL_S[workload], "s"),
        "peak_rss_mb": (finals["checkout"]["peak_rss_kb"] / 1024.0, "MB"),
    }
    details = {"passes": len(passes["checkout"]), "wall_ratio": wall_ratio,
               "setup_ratio": setup_ratio, "list_seconds": list_s,
               "setup_seconds": setup,
               "task_median_s": task_medians(passes["checkout"], task_list)}
    return metrics, details, finals["checkout"]


def traced(workload, seed, tally):
    src = os.path.join(os.getcwd(), "src")
    task_list = workloads.tasks(workload, seed)
    with Workers() as workers:
        plain = workers.start(src, workload, seed)
        untraced = run_pass(plain, task_list)
        plain.finish()
        tracing = workers.start(src, workload, seed, traced=True)
        traced_pass = run_pass(tracing, task_list)
        final = tracing.finish()
    tally.add_passes([untraced], task_list, "untraced")
    tally.add_passes([traced_pass], task_list, "traced")
    for (task_id, _), a, b in zip(task_list, untraced, traced_pass):
        if (a["code"], a["stdout"]) != (b["code"], b["stdout"]):
            tally.fail("traced", task_id, "traced output differs from untraced")
    trace = final["trace"]
    metrics = {name: tuple(v) for name, v in trace["metrics"].items()}
    wall = {label: sum(r["seconds"] for r in records)
            for label, records in (("untraced", untraced),
                                   ("traced", traced_pass))}
    metrics["trace.overhead_s"] = (wall["traced"] - wall["untraced"], "s")
    details = {"wall_s": wall, "absent": trace["absent"],
               "missing_sites": final["missing_sites"], "spans": trace["spans"]}
    return metrics, details, final


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def git_commit(root):
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(root, ".git", ref))
    if loose is not None:
        return loose.strip()
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root, final):
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = (_read(os.path.join(index, "level")) or "?").strip()
        kind = (_read(os.path.join(index, "type")) or "?").strip()
        caches[f"L{level}-{kind}"] = (_read(os.path.join(index, "size")) or "?").strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": final.get("numpy"),
        "blas": final.get("blas"),
        "blas_threads_set": int(BLAS_THREADS),
        "git_commit": git_commit(root),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hpsim", "cli.py")):
        print(f"bench: no src/hpsim under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    # Every process of the run shares one CPU, which the paired
    # checkout/baseline timings then see at the same speed; the workers
    # inherit this affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tally = Tally(check.load_reference(args.workload),
                  exact_mc=args.seed == workloads.DEFAULT_SEED)
    try:
        if args.trace:
            metrics, details, final = traced(args.workload, args.seed, tally)
        else:
            metrics, details, final = end_to_end(args.workload, args.seed,
                                                 args.seconds, tally)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    failed = len(tally.failures)
    if args.trace:
        metrics.update({
            "check.max_abs_dev": (tally.max_abs_dev, "abs"),
            "check.failed_ops": (failed, "count"),
            "check.attempted_ops": (tally.attempted, "count"),
            "check.known_failures": (len(tally.known), "count"),
        })
    for entry in tally.failures:
        print(f"bench: FAILED {entry['pass']} {entry['task']}: {entry['message']}",
              file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(root, final),
        "failures": tally.failures,
        "failed_share": failed / tally.attempted,
        "known_failures": tally.known,
        "max_abs_dev": tally.max_abs_dev,
        **details,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
