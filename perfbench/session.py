"""Session workload: one long-lived process making a sequence of library calls.

Reads a JSON list of calls on stdin and makes them in order, so the
library's ``lru_cache``s stay warm across calls as in a notebook sweep.
Each call is checked by its exact identity and printed as one JSON line
on stdout: its wall time, its output digest and whether the identity held.

    PYTHONPATH=src python3 perfbench/session.py < calls.json
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from corgw.arith import divisors, sigma
from corgw.diagrams import TangencyProfile, invariant
from corgw.polyfit import DiagramTemplate, polynomial_fit
from corgw.refined import bold_sigma
from corgw.torsion import unrefine

from jobs import digest

TEMPLATES = Path(__file__).resolve().parent / "templates"


def _sigma(call) -> tuple[bytes, bool]:
    # Criterion 05: total mass sigma(a), and unrefine lands on every level.
    delta, a = call["delta"], call["a"]
    x = bold_sigma(delta, a)
    ok = x.total_mass == sigma(a) and all(
        unrefine(x, d) == bold_sigma(d, a) for d in divisors(delta)
    )
    return x.to_json().encode(), ok


def _invariant(call) -> tuple[bytes, bool]:
    # Criterion 10: the invariant at a level unrefines to the coarser level.
    profile = TangencyProfile(tuple(call["profile"]))
    fine = invariant(call["g"], call["a"], profile, call["delta"])
    coarse = invariant(call["g"], call["a"], profile, call["coarse"])
    ok = unrefine(fine, call["coarse"]) == coarse
    return f"{fine.to_json()}\n{coarse.to_json()}".encode(), ok


def _polyfit(call) -> tuple[bytes, bool]:
    # Criterion 09: exact fit validated on held-out tangency orders.
    text = (TEMPLATES / f"{call['template']}.json").read_text()
    report = polynomial_fit(
        DiagramTemplate.from_json(text), call["delta"], call["fit"],
        call["holdout"], tuple(call["chamber"]),
    )
    return json.dumps(report.to_json_dict()).encode(), report.ok


CALLS = {"sigma": _sigma, "invariant": _invariant, "polyfit": _polyfit}


def run_call(call) -> tuple[bytes, bool]:
    """Make one call; return its canonical output bytes and its check."""
    return CALLS[call["kind"]](call)


def run_session(calls, out) -> None:
    for call in calls:
        start = time.perf_counter()
        try:
            data, ok = run_call(call)
            line = {"t": time.perf_counter() - start, "digest": digest(data),
                    "ok": ok}
        except Exception as exc:  # noqa: BLE001 - a failed call is reported
            line = {"t": time.perf_counter() - start, "digest": None,
                    "ok": False, "error": repr(exc)}
        out.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    run_session(json.load(sys.stdin), sys.stdout)
