"""Job pools of the corgw benchmark and the seeded job lists drawn from them.

A workload is a fixed pool of jobs.  One round runs every job of the pool
once, in an order drawn from the seed; jobs of the ``oracle`` pool also
draw cost-neutral details from the seed (the exponent ``n`` of ``local``
and the point of its ``--shift``).  Keeping the pool fixed keeps rounds of
different seeds comparable, so the seed changes what is run and in which
order but not how much work a round is.

CLI jobs are argument lists for ``python -m corgw.cli``.  Session jobs are
library calls made inside one long-lived process (see ``session.py``).
Every job has a key; ``digests.json`` maps each key to the SHA-256 of the
job's output at the commit that recorded it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
TEMPLATE_DIR = "perfbench/templates"  # relative to the checkout root

WORKLOADS = ("certify", "oracle", "enumerate", "session")
SESSION_REPEATS = 3


def _series(g: int, w: int, delta: int, n: int) -> list[str]:
    return ["series", "--g", str(g), "--profile", f"{w},-{w}",
            "--delta", str(delta), "--n-trunc", str(n), "--check-factorization"]


def _polyfit(template: str) -> list[str]:
    # Criterion 9: ten even fit nodes in the chamber w = 0 mod 2, two held out.
    return ["polyfit", "--template", f"{TEMPLATE_DIR}/{template}.json",
            "--delta", "2", "--chamber", "2:0",
            "--samples", "2,4,6,8,10,12,14,16,18,20,22,24"]


def _oracle(a_max: int, delta_max: int) -> list[str]:
    return ["oracle-verify", "--a-max", str(a_max), "--delta-max", str(delta_max)]


def _diagrams(g: int, a: int, profile: str, mode: str, delta: int | None = None):
    argv = ["diagrams", "--g", str(g), "--a", str(a), "--profile", profile, mode]
    return argv + (["--delta", str(delta)] if delta is not None else [])


CERTIFY = [
    _series(1, 2, 2, 12), _series(1, 4, 4, 20), _series(1, 6, 6, 20),
    _series(2, 2, 2, 20), _series(2, 3, 3, 20), _series(2, 4, 2, 16),
    _series(2, 4, 4, 16), _series(3, 3, 3, 12), _series(3, 2, 2, 12),
    _series(3, 3, 1, 12), _series(3, 6, 3, 12), _series(3, 6, 6, 7),
    _polyfit("second_kind_low"), _polyfit("second_kind_high"),
]

ORACLE_VERIFY = [
    _oracle(8, 5), _oracle(12, 6), _oracle(20, 4), _oracle(24, 4), _oracle(10, 8),
]

# local slots: (a, w1, delta, shift choices).  A slot with shift choices
# always shifts, by a point the seed picks, so counts do not depend on it.
LOCAL_SLOTS = [
    (200, 24, 24, ()), (180, 48, 24, ((1, 5), (7, 2), (12, 12))),
    (120, 12, 12, ()), (96, 24, 12, ((1, 1), (3, 8), (6, 0))),
    (60, 18, 18, ()), (144, 18, 18, ((2, 9), (5, 5), (17, 1))),
    (200, 8, 8, ()), (72, 16, 8, ((0, 3), (4, 4), (7, 1))),
    (30, 6, 6, ()), (150, 20, 20, ((1, 0), (10, 3), (19, 19))),
]
LOCAL_N = (2, 3)

ENUMERATE = [
    _diagrams(4, 2, "4,-2,-2", "--count"),
    _diagrams(3, 2, "3,3,-3,-3", "--count"),
    _diagrams(3, 2, "2,2,2,-6", "--count"),
    _diagrams(3, 2, "2,2,-2,-2", "--count"),
    _diagrams(2, 2, "3,3,-2,-2,-2", "--count"),
    _diagrams(5, 2, "2,-2", "--count"),
    _diagrams(6, 2, "2,-2", "--count"),
    _diagrams(3, 3, "2,2,-2,-2", "--sum", 2),
    _diagrams(3, 2, "2,2,-2,-2", "--sum", 1),
    _diagrams(3, 3, "4,-2,-2", "--sum", 2),
    _diagrams(4, 2, "2,2,-4", "--sum", 2),
    _diagrams(4, 3, "4,-2,-2", "--sum", 2),
    _diagrams(5, 3, "2,-2", "--sum", 2),
    _diagrams(5, 3, "2,-2", "--sum", 1),
]

# Session calls, criterion 05, 10 and 09 style.
SESSION = (
    [{"kind": "sigma", "delta": d, "a": a}
     for d in (4, 6, 8, 12, 24) for a in (12, 60, 120, 180, 200)]
    + [{"kind": "invariant", "g": g, "a": a, "profile": list(p),
        "delta": dl, "coarse": dp}
       for g, a, p, dl, dp in [
           (1, 3, (2, -2), 2, 1), (2, 4, (4, -4), 4, 2), (2, 3, (6, -6), 6, 3),
           (2, 4, (6, -6), 6, 2), (1, 4, (6, -6), 6, 1), (2, 2, (2, 2, -4), 2, 1),
           (2, 3, (3, -3), 3, 1), (2, 4, (4, -2, -2), 2, 1)]]
    + [{"kind": "polyfit", "template": t, "delta": 2, "fit": fit,
        "holdout": hold, "chamber": ch}
       for t, fit, hold, ch in [
           ("second_kind_low", list(range(2, 21, 2)), [22, 24], [2, 0]),
           ("second_kind_high", list(range(2, 21, 2)), [22, 24], [2, 0]),
           ("second_kind_low", list(range(2, 40, 4)), [42, 46], [4, 2])]]
)


def key(job) -> str:
    """Stable identity of a job: its CLI line or its session call as JSON."""
    if isinstance(job, list):
        return "session" if isinstance(job[0], dict) else " ".join(job)
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def slot(job) -> str:
    """The pool slot of a job: its key with the seeded details erased."""
    if isinstance(job, list) and not isinstance(job[0], dict):
        job = ["?" if i and job[i - 1] in ("--n", "--shift") else tok
               for i, tok in enumerate(job)]
    return key(job)


def _local(a: int, w1: int, n: int, delta: int, shift) -> list[str]:
    argv = ["local", "--a", str(a), "--w1", str(w1), "--n", str(n),
            "--delta", str(delta)]
    return argv + (["--shift", f"{shift[0]},{shift[1]}"] if shift else [])


def _draw_local(rng: random.Random, spec) -> list[str]:
    a, w1, delta, shifts = spec
    n = rng.choice(LOCAL_N)
    return _local(a, w1, n, delta, rng.choice(shifts) if shifts else None)


def round_jobs(workload: str, rng: random.Random) -> list:
    """One round: every job of the pool once, in seeded order."""
    if workload == "certify":
        jobs = [list(j) for j in CERTIFY]
    elif workload == "oracle":
        jobs = [list(j) for j in ORACLE_VERIFY]
        jobs += [_draw_local(rng, spec) for spec in LOCAL_SLOTS]
    elif workload == "enumerate":
        jobs = [list(j) for j in ENUMERATE]
    elif workload == "session":
        # One job of the session workload is one whole session process.
        calls = [dict(c) for c in SESSION for _ in range(SESSION_REPEATS)]
        rng.shuffle(calls)
        return [calls]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def job_rounds(workload: str, seed: int):
    """Endless stream of rounds; the same seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield round_jobs(workload, rng)


def universe(workload: str) -> list:
    """Every job a round of this workload can contain (session: every call)."""
    if workload == "certify":
        return [list(j) for j in CERTIFY]
    if workload == "enumerate":
        return [list(j) for j in ENUMERATE]
    if workload == "session":
        return [dict(c) for c in SESSION]
    return [list(j) for j in ORACLE_VERIFY] + [
        _local(a, w1, n, delta, shift)
        for a, w1, delta, shifts in LOCAL_SLOTS
        for n in LOCAL_N
        for shift in shifts or (None,)
    ]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def output_ok(job, stdout: bytes, digests: dict[str, str]) -> bool:
    """True when the job's stdout matches the recorded digest exactly."""
    want = digests.get(key(job))
    return want is not None and digest(stdout) == want
