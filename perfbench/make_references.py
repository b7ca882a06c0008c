"""Write the committed references: each job's JSON report without its timing
fields, and its exit code.

    python3 perfbench/make_references.py [WORKLOAD ...]

Run it only when a workload's job list changes, and read the diff: a
reference records what the program said, so every verdict in it must be
checked against the paper before it is committed.
"""

import json
import os
import shutil
import sys
import tempfile

from run import REFERENCES, ROOT, run_job, strip_timing
from workloads import WORKLOADS, job_id


def main(names) -> int:
    os.makedirs(REFERENCES, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for name in names or sorted(WORKLOADS):
            jobs = {}
            for argv in WORKLOADS[name]:
                result = run_job(argv, workdir)
                if result.timed_out or result.exit not in (0, 2, 3):
                    sys.stderr.write(f"{job_id(argv)}: exit {result.exit}\n{result.stderr}")
                    return 1
                report = strip_timing(json.loads(result.stdout))
                jobs[job_id(argv)] = {"exit": result.exit, "report": report}
                print(f"{name}: exit {result.exit} aggregate {report['aggregate']} "
                      f"{result.t_end - result.t_spawn:.2f} s  {job_id(argv)}")
            with open(os.path.join(REFERENCES, f"{name}.json"), "w") as fh:
                json.dump({"workload": name, "jobs": jobs}, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
