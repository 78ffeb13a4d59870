"""Record the golden stdout and exit code of every workload command.

    python3 perfbench/record_golden.py

Run it only on the commit whose outputs are the reference: the benchmark
counts any later byte difference as a failed operation.
"""

import json
import shutil
import time

import run


def main():
    codes = {}
    for workload in run.WORKLOADS:
        codes[workload] = {}
        for cmd in sorted(run.plan(workload, 0), key=lambda c: c.id):
            res = run.run_child(cmd.job, False, time.perf_counter() + 3600)
            path = run.golden_path(workload, cmd.id)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(res.stdout)
            codes[workload][cmd.id] = res.status
            print(f"{workload}/{cmd.id}: exit {res.status}, "
                  f"{len(res.stdout)} bytes, {res.wall_s:.1f} s", flush=True)
    (run.GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(run.WORK.parent, ignore_errors=True)


if __name__ == "__main__":
    main()
