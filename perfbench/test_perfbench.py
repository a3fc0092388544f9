"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import jobs
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent


def _rounds(workload: str, seed: int, n: int = 3) -> list:
    stream = jobs.job_rounds(workload, seed)
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert _rounds(workload, 7) == _rounds(workload, 7)
    assert _rounds(workload, 7) != _rounds(workload, 8)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_drawn_job_has_a_recorded_digest(workload):
    digests = jobs.load_digests()
    universe = {jobs.key(j) for j in jobs.universe(workload)}
    for seed in range(20):
        for round_jobs in _rounds(workload, seed, 2):
            drawn = round_jobs[0] if workload == "session" else round_jobs
            assert {jobs.key(j) for j in drawn} <= universe
    assert universe <= digests.keys()


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_rounds_of_every_seed_hold_the_same_work(workload):
    a, b = _rounds(workload, 1, 1)[0], _rounds(workload, 2, 1)[0]
    if workload == "session":
        a, b = a[0], b[0]
        assert len(a) == len(jobs.SESSION) * jobs.SESSION_REPEATS
    assert sorted(map(jobs.slot, a)) == sorted(map(jobs.slot, b))


def test_output_check_rejects_tampered_stdout():
    job = jobs.CERTIFY[0]
    digests = {jobs.key(job): jobs.digest(b"a,(0,0)\n1,2/3\n")}
    assert jobs.output_ok(job, b"a,(0,0)\n1,2/3\n", digests)
    assert not jobs.output_ok(job, b"a,(0,0)\n1,2/5\n", digests)
    assert not jobs.output_ok(job, b"a,(0,0)\n1,2/3", digests)
    assert not jobs.output_ok(jobs.CERTIFY[1], b"a,(0,0)\n1,2/3\n", digests)


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        (0.0, 10.0, None),  # 0: root, children 1, 3, 4 and 5
        (1.0, 4.0, 0),      # 1: child with one grandchild
        (2.0, 3.0, 1),      # 2: grandchild
        (5.0, 8.0, 0),      # 3: child in another thread ...
        (6.0, 9.0, 0),      # 4: ... overlapping child 3
        (9.5, 12.0, 0),     # 5: child running past the root's end
    ]
    got = tracer.self_times(spans)
    # Root: covered by [1,4] u [5,9] u [9.5,10] = 3 + 4 + 0.5.
    assert got == pytest.approx([2.5, 2.0, 1.0, 3.0, 3.0, 2.5])


def test_union_length_merges_and_clips():
    assert tracer._union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracer._union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2
    assert tracer._union_length([], 0, 1) == 0


def test_tail_percentile_leaves_ten_jobs_beyond_in_min_rounds():
    times = [float(i) for i in range(14, 0, -1)]  # one per job of a round
    pct, value = run.tail(times)
    assert value == 10.0 and pct == pytest.approx(100 * 10 / 14)
    assert sum(t > value for t in times) * run.MIN_ROUNDS >= 10


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def test_layer_metrics_from_summary():
    summary = {
        "arith.factorize": {"calls": 4, "self_s": 1.0, "hits": 3, "misses": 1},
        "arith.sigma": {"calls": 2, "self_s": 0.5},
        "torsion.linear": {"calls": 5, "self_s": 0.1, "terms_out": 40},
        "diagrams.validate": {"calls": 8, "self_s": 0.2, "accepted": 2},
    }
    m = tracer.layer_metrics(summary, stdout_bytes=11, overhead=1.5)
    assert m["arith.calls"] == 6 and m["arith.self_s"] == 1.5
    assert m["arith.factorize.hit_ratio"] == 0.75
    assert m["torsion.terms_out"] == 40
    assert m["diagrams.validate.accept_ratio"] == 0.25
    assert m["torsion.theta.hit_ratio"] == 0.0
    assert m["cli.stdout_bytes"] == 11 and m["trace.overhead_ratio"] == 1.5
    assert list(m) == list(tracer.LAYER_METRICS)


def test_tracer_counts_and_cache_deltas():
    from functools import lru_cache

    t = tracer.Tracer()

    @lru_cache(maxsize=None)
    def square(x):
        return x * x

    traced = t.wrap("square", square, cache=square)
    outer = t.wrap("outer", lambda: [traced(2), traced(2), traced(3)])
    assert outer() == [4, 4, 9]
    summary = t.summary()
    assert summary["square"]["calls"] == 3
    assert summary["square"]["hits"] == 1 and summary["square"]["misses"] == 2
    assert summary["outer"]["calls"] == 1
    assert t.spans[1][3] == 0  # children point at the open span


def test_session_call_checks_its_identity():
    import session

    call = jobs.SESSION[0]
    data, ok = session.run_call(call)
    assert ok
    assert jobs.digest(data) == jobs.load_digests()[jobs.key(call)]
