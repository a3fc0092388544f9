"""Record the output digest of every job the benchmark can run.

    python3 perfbench/record.py

Run from the root of a checkout.  Runs each job of every workload's pool
once (session calls in one session process), requires it to succeed, and
writes ``digests.json``.  Record only at a commit whose output is known to
be right: the benchmark counts every later mismatch as a failed job.
"""

from __future__ import annotations

import json
import sys

import jobs
from run import BENCH, JOB_TIMEOUT_S, run_child


def main() -> int:
    digests = {}
    for workload in jobs.WORKLOADS:
        pool = jobs.universe(workload)
        if workload == "session":
            child = run_child([sys.executable, f"{BENCH}/session.py"],
                              JOB_TIMEOUT_S, json.dumps(pool).encode())
            lines = [json.loads(s) for s in child.stdout.decode().splitlines()]
            if child.code or len(lines) != len(pool) or not all(
                line["ok"] for line in lines
            ):
                raise SystemExit(f"session failed: {child.stderr.decode()}")
            digests.update(
                (jobs.key(call), line["digest"]) for call, line in zip(pool, lines)
            )
            continue
        for job in pool:
            child = run_child([sys.executable, "-m", "corgw.cli", *job],
                              JOB_TIMEOUT_S)
            if child.code:
                raise SystemExit(f"{jobs.key(job)}: exit {child.code}")
            digests[jobs.key(job)] = jobs.digest(child.stdout)
            print(f"{child.wall:7.3f}s {jobs.key(job)}", flush=True)
    jobs.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {jobs.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
