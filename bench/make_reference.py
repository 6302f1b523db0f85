"""Regenerate bench/reference/<workload>.json from the current checkout.

    python3 bench/make_reference.py [workload ...]

Runs each task once at the default workload seed and stores its exit code
and captured output.  The stored references were made from the code as it
stood when the benchmark was added; regenerate them only when an output is
meant to change, and say so in the change that does it.
"""

import json
import os
import sys

import run
import workloads


def main(argv):
    root = os.getcwd()
    os.makedirs(run.check.REFERENCE_DIR, exist_ok=True)
    for workload in argv or sorted(workloads.WORKLOADS):
        seed = workloads.DEFAULT_SEED
        task_list = workloads.tasks(workload, seed)
        with run.Workers() as workers:
            worker = workers.start(os.path.join(root, "src"), workload, seed)
            records = run.run_pass(worker, task_list)
            worker.finish()
        tasks = {task_id: {"argv": argv, "exit": r["code"],
                           "stdout": r["stdout"], "stderr": r["stderr"]}
                 for (task_id, argv), r in zip(task_list, records)}
        reference = {"workload": workload, "seed": seed,
                     "git_commit": run.git_commit(root), "tasks": tasks}
        path = os.path.join(run.check.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(tasks)} tasks")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
