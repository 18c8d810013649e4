"""Record reference.json: the first cycle of each workload at the default seed.

Usage, from the root of a checkout: python3 benchmark/make_reference.py

run.py compares default-seed runs with this file (tolerances in
workloads.py), so record it only from a commit whose results are to be
kept, and say so when it changes.
"""

import json
import sys
import tempfile

import run


def main():
    sys.path.insert(0, str(run.SRC))
    reference = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for name in run.workloads.WORKLOADS:
            workload, _ = run.timed_setup(name, run.DEFAULT_SEED, workdir)
            done = run.run_tasks(workload, workload.cycle(0))
            _, failed, problems = run.check(workload, done)
            if failed or problems:
                sys.exit(f"{name}: outputs fail their checks: {problems}")
            reference[name] = [workload.summary(task, output)
                               for task, output, *_ in done]
    run.WORK.rmdir()
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                             encoding="utf-8")


if __name__ == "__main__":
    main()
