"""One benchmark process: runs a workload's tasks in-process, on request.

Started by bench/run.py with PYTHONPATH pointing at one hpsim source tree
(the checkout's `src`, or the frozen timing baseline in `bench/baseline`)
and the BLAS thread count pinned to 1:

    python3 bench/worker.py --src SRC --workload figures --seed 0 [--traced]

Each stdin line is the index of a task in the workload's list.  The worker
runs that task as one `hpsim.cli.main(argv)` call with stdout and stderr
captured in memory, and answers with one JSON line: exit code, captured
output and seconds.  At end of input it writes a last JSON line with its
peak RSS, the numpy and BLAS versions and, with --traced, the summary of
the span tracer (bench/spans.py), then exits.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _load_hpsim(src):
    import hpsim
    import hpsim.cli
    import hpsim.homodyne
    import hpsim.metrics
    src = os.path.realpath(src)
    if not os.path.realpath(hpsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"hpsim imported from {hpsim.__file__}, not {src}")
    return {"cli": hpsim.cli, "metrics": hpsim.metrics,
            "homodyne": hpsim.homodyne}


def _numpy_build():
    """numpy version and the BLAS it was built against."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return np.__version__, blas


def run_task(main, argv, tracer=None):
    """(exit code, stdout, stderr, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call("cli.main", main, argv)
        except SystemExit as exc:       # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = "exception"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    modules = _load_hpsim(args.src)
    task_list = workloads.tasks(args.workload, args.seed)
    final = {}
    tracer = None
    if args.traced:
        import spans
        tracer = spans.Tracer()
        final["missing_sites"] = tracer.install(modules, spans.SITES)
    try:
        for line in sys.stdin:
            index = int(line)
            if tracer is not None:
                tracer.task = index
            code, out, err, dt = run_task(modules["cli"].main,
                                          task_list[index][1], tracer)
            sys.stdout.write(json.dumps({"code": code, "stdout": out,
                                         "stderr": err, "seconds": dt}) + "\n")
            sys.stdout.flush()
    finally:
        if tracer is not None:
            tracer.uninstall()
    final["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        metrics, absent, by_span = spans.summarize(tracer)
        final["trace"] = {"metrics": metrics, "absent": absent,
                          "spans": by_span}
    final["numpy"], final["blas"] = _numpy_build()
    sys.stdout.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
