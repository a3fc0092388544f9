"""corgw benchmark: seeded job sequences against the CLI and the library.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the benchmark runs
rounds of the workload's jobs (every job of the pool once, in seeded
order) one at a time for about ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it runs one round plainly and the same round
through ``tracer.py``, and reports the per-layer metrics.  Every job's
output is checked.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import jobs
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = "perfbench"
JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 7
MIN_ROUNDS = 3
# Times of the calibration parts on the machine the baselines in README.md
# come from: a 2-vCPU Intel Xeon VM running Python 3.11.7.
NOMINAL_S = {"search": 0.0027, "spawn": 0.057}

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    """The caller's environment with PYTHONPATH=src and no CORGW_THREADS."""
    env = {k: v for k, v in os.environ.items() if k != "CORGW_THREADS"}
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" + (f":{old}" if old else "")
    return env


def run_child(argv: list[str], timeout: float, stdin: bytes = b"") -> Child:
    """Run one process to completion; time it and read its rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # The children read all of stdin before they write anything.
    proc.stdin.write(stdin)
    proc.stdin.close()
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = start + timeout
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        -9 if timed_out else proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
    )


def _search(level: int = 0, state: dict | None = None) -> int:
    """A small branching search that copies dicts, like the diagram search."""
    if level == 7:
        return len(state)
    total = 0
    for k in range(3):
        nxt = dict(state or {})
        nxt[level, k] = nxt.get((level, k), 0) + 1
        total += _search(level + 1, nxt)
    return total


def _spawn() -> None:
    """Start and end an interpreter, as every job does."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


def calibrate() -> float:
    """How slow the machine is now, relative to the reference machine.

    The mean over the calibration parts of the part's time over its
    NOMINAL_S; the search is timed three times and its median taken.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _search()
        times.append(time.perf_counter() - start)
    start = time.perf_counter()
    _spawn()
    spawn = time.perf_counter() - start
    return (statistics.median(times) / NOMINAL_S["search"]
            + spawn / NOMINAL_S["spawn"]) / 2


class Clock:
    """Scales measured times to the speed of the reference machine.

    The CPUs of a shared machine change speed by tens of percent within
    seconds and between minutes.  calibrate() runs before a phase (the
    set-up measurement or one round) and after each of its jobs, and the
    phase's times are divided by its mean calibration.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.phase: list[float] = []

    def begin(self) -> None:
        self.phase = []
        self.tick()

    def tick(self) -> None:
        self.phase.append(calibrate())
        self.samples.append(self.phase[-1])

    def factor(self) -> float:
        return 1.0 / statistics.mean(self.phase)


def measure_setup(clock: Clock) -> list[float]:
    """Cold interpreter plus ``import corgw.cli``, after one untimed warm-up."""
    argv = [sys.executable, "-c", "import corgw.cli"]
    run_child(argv, JOB_TIMEOUT_S)
    clock.begin()
    times = []
    for _ in range(SETUP_REPEATS):
        child = run_child(argv, JOB_TIMEOUT_S)
        if child.code != 0:
            raise RuntimeError(f"import corgw.cli failed: {child.stderr!r}")
        times.append(child.wall)
        clock.tick()
    return [t * clock.factor() for t in times]


@dataclass
class Tally:
    """What the rounds did: scaled times, resources, checks and traces.

    ``procs`` holds (wall, CPU) of each process by pool slot.  ``items``
    holds the time of each timed job by class: a CLI job is timed by its
    process, a session call inside its process.  A class is a slot and its
    occurrence in the round, which tells the cold call of a session key
    from its warm repeats.
    """

    procs: dict = field(default_factory=lambda: defaultdict(list))
    items: dict = field(default_factory=lambda: defaultdict(list))
    rounds: int = 0
    unscaled_walls: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    stdout_bytes: int = 0
    trace: dict = field(default_factory=dict)

    def median_items(self) -> list[float]:
        """Each class's median time over the rounds, one per job of a round."""
        return sorted(statistics.median(v) for v in self.items.values())

    def round_median(self, which: int) -> float:
        """A round's wall (0) or CPU (1) time, each job at its median."""
        return sum(statistics.median(p[which] for p in v)
                   for v in self.procs.values())


def _trace_summary(stderr: bytes) -> dict:
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(tracer.TRACE_PREFIX):
            return json.loads(line[len(tracer.TRACE_PREFIX):])
    return {}


def run_job(job, traced: bool, timeout: float, digests,
            tally: Tally) -> tuple[Child, list[tuple[str, float]]]:
    """Run one job and check it; failed checks are added to the tally.

    Returns the finished child and the (slot, seconds) of each job it timed.
    """
    session = isinstance(job[0], dict)  # a session job is a list of calls
    if traced:
        argv = [sys.executable, f"{BENCH}/tracer.py"]
        argv += ["session"] if session else ["cli", *job]
    elif session:
        argv = [sys.executable, f"{BENCH}/session.py"]
    else:
        argv = [sys.executable, "-m", "corgw.cli", *job]
    stdin = json.dumps(job).encode() if session else b""
    child = run_child(argv, timeout, stdin)
    tally.peak_rss_mb = max(tally.peak_rss_mb, child.rss_mb)
    if traced:
        tracer.merge(tally.trace, _trace_summary(child.stderr))
    if not session:
        tally.attempted += 1
        tally.stdout_bytes += len(child.stdout)
        # Exit 3 is a failed self-check: oracle-verify, --check-factorization
        # or a polyfit holdout.
        if child.code != 0 or not jobs.output_ok(job, child.stdout, digests):
            tally.failed += 1
        return child, [(jobs.slot(job), child.wall)]
    lines = [json.loads(s) for s in child.stdout.decode().splitlines()]
    tally.attempted += len(job)
    tally.failed += len(job) - len(lines) if child.code == 0 else len(job)
    for call, line in zip(job, lines):
        if child.code == 0 and not (
            line["ok"] and line["digest"] == digests.get(jobs.key(call))
        ):
            tally.failed += 1
    return child, [(jobs.key(c), line["t"]) for c, line in zip(job, lines)]


def run_round(round_jobs, traced: bool, deadline: float, digests, tally: Tally,
              clock: Clock) -> None:
    """Run the round's jobs one at a time and add them to the tally."""
    clock.begin()
    procs, items = [], []
    for job in round_jobs:
        left = deadline - time.perf_counter()
        if left <= 0:  # out of time: the job counts as failed
            n = len(job) if isinstance(job[0], dict) else 1
            tally.attempted += n
            tally.failed += n
            continue
        child, timed = run_job(job, traced, min(JOB_TIMEOUT_S, left), digests,
                               tally)
        clock.tick()
        procs.append((jobs.slot(job), child.wall, child.cpu))
        items += timed
    scale = clock.factor()
    for slot, wall, cpu in procs:
        tally.procs[slot].append((wall * scale, cpu * scale))
    seen = Counter()
    for slot, seconds in items:
        seen[slot] += 1
        tally.items[slot, seen[slot]].append(seconds * scale)
    tally.rounds += 1
    tally.unscaled_walls.append(sum(wall for _, wall, _ in procs))


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the job-time tail.

    ``times`` holds one time per job of a round.  The percentile is the
    highest one with at least ten jobs beyond it in MIN_ROUNDS rounds; it
    depends only on the pool, so every run reports the same one.
    """
    rank = max(1, len(times) - -(-10 // MIN_ROUNDS))
    return 100.0 * rank / len(times), sorted(times)[rank - 1]


def end_to_end(tally: Tally, setup: list[float]) -> dict[str, float]:
    times = tally.median_items()
    return {
        "wall_s": tally.round_median(0),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail(times)[1],
        "cpu_s": tally.round_median(1),
        "peak_rss_mb": tally.peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def commit() -> str:
    """HEAD of the checkout's own git directory, if it has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "corgw" / "cli.py").is_file():
        print(f"error: no corgw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    digests = jobs.load_digests()
    rounds = jobs.job_rounds(args.workload, args.seed)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("# " + json.dumps(meta))

    clock = Clock()
    if args.trace:
        # One plain round, then the same jobs traced: counts repeat exactly.
        round_jobs = next(rounds)
        plain, traced = Tally(), Tally()
        run_round(round_jobs, False, deadline, digests, plain, clock)
        run_round(round_jobs, True, deadline, digests, traced, clock)
        values = tracer.layer_metrics(
            traced.trace, traced.stdout_bytes,
            traced.round_median(0) / plain.round_median(0),
        )
        units = tracer.LAYER_METRICS
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    else:
        setup = measure_setup(clock)
        tally = Tally()
        begin = time.perf_counter()
        # At least MIN_ROUNDS rounds; then stop at the round boundary
        # nearest to --seconds.
        while time.perf_counter() < deadline and (
            tally.rounds < MIN_ROUNDS
            or time.perf_counter() - begin
            + statistics.median(tally.unscaled_walls) / 2 < args.seconds
        ):
            run_round(next(rounds), False, deadline, digests, tally, clock)
        values = end_to_end(tally, setup)
        units = END_TO_END
        attempted, failed = tally.attempted, tally.failed
        times = tally.median_items()
        print(f"# rounds={tally.rounds} jobs per round={len(times)} "
              f"job_tail_s=p{tail(times)[0]:.1f} "
              f"fail_ratio={failed / max(1, attempted):.4f} "
              f"unscaled_wall_s={statistics.median(tally.unscaled_walls):.4f} "
              f"slowness={statistics.median(clock.samples):.3f}")

    for name, value in values.items():
        print(f"# {name:40s} {value:>14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
