"""Traced run of one job: timing wrappers around the public functions of each layer.

    PYTHONPATH=src python3 perfbench/tracer.py cli <corgw arguments...>
    PYTHONPATH=src python3 perfbench/tracer.py session < calls.json

This script replaces every module binding of each traced function (and the
traced methods of ``GroupAlgebraElement`` and ``GASeries``) with a wrapper
that records a span, then runs ``corgw.cli.main(argv)`` or the session
calls.  Spans stay in memory; at exit the per-layer summary is written to
stderr as one line starting with ``TRACE_PREFIX``.  stdout is untouched, so
a traced job prints exactly what an untraced one prints.

Wrapped library calls hold one process-wide re-entrant lock.  ``series``
and ``oracle-verify`` map over a thread pool; the lock keeps two threads
from filling the same ``lru_cache`` entry at once, so every count below
(calls, cache hits and misses, support sizes) repeats exactly run to run.
``cli.main`` itself does not take the lock, since it waits on the pool.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

TRACE_PREFIX = "PERFBENCH_TRACE "

# (module, attribute, span name).  "Class.method" patches a method.
TRACED = [
    *(("arith", fn, f"arith.{fn}") for fn in (
        "factorize", "divisors", "sigma", "sigma_bar", "jordan2",
        "dedekind_psi", "upsilon", "s_delta", "s_via_lattice",
        "s_delta_order")),
    ("torsion", "convolve", "torsion.convolve"),
    ("torsion", "GroupAlgebraElement.__init__", "torsion.linear"),
    ("torsion", "GroupAlgebraElement.__add__", "torsion.linear"),
    ("torsion", "GroupAlgebraElement.__sub__", "torsion.linear"),
    *(("torsion", f"GroupAlgebraElement.{m}", "torsion.level") for m in (
        "translate", "m_push", "divide", "rebase")),
    ("torsion", "unrefine", "torsion.level"),
    ("torsion", "theta", "torsion.theta"),
    ("refined", "bold_sigma", "refined.bold_sigma"),
    ("refined", "local_invariant", "refined.local_invariant"),
    ("lattice", "oracle_local_invariant", "lattice.oracle_local_invariant"),
    ("lattice", "torsion_image", "lattice.torsion_image"),
    ("diagrams", "enumerate_diagrams", "diagrams.enumerate_diagrams"),
    ("diagrams", "validate", "diagrams.validate"),
    ("diagrams", "multiplicity", "diagrams.multiplicity"),
    ("diagrams", "invariant", "diagrams.invariant"),
    ("qseries", "factorization_check", "qseries.factorization_check"),
    ("qseries", "GASeries.cauchy", "qseries.cauchy"),
    ("qseries", "templates_for", "qseries.templates_for"),
    ("qseries", "write_series_csv", "qseries.write_series_csv"),
    ("polyfit", "polynomial_fit", "polyfit.polynomial_fit"),
    ("polyfit", "invariant_by_template", "polyfit.invariant_by_template"),
    ("polyfit", "weightings", "polyfit.weightings"),
    ("polyfit", "gamma_coeffs", "polyfit.gamma_coeffs"),
    ("polyfit", "interpolate", "polyfit.interpolate"),
]

# Span name -> (module, attribute) of the lru_cache whose counters it reads.
CACHES = {
    "arith.factorize": ("arith", "factorize"),
    "torsion.theta": ("torsion", "theta"),
    "refined.bold_sigma": ("refined", "bold_sigma"),
    "diagrams.invariant": ("diagrams", "_invariant_cached"),
}

# Per-layer metrics: name -> unit.  Kept in the order of BENCHMARK.json.
LAYER_METRICS = {
    "arith.calls": "count",
    "arith.self_s": "s",
    "arith.factorize.hit_ratio": "ratio",
    "torsion.convolve.calls": "count",
    "torsion.convolve.self_s": "s",
    "torsion.convolve.term_pairs": "count",
    "torsion.linear.calls": "count",
    "torsion.linear.self_s": "s",
    "torsion.level.self_s": "s",
    "torsion.terms_out": "count",
    "torsion.theta.hit_ratio": "ratio",
    "refined.bold_sigma.calls": "count",
    "refined.bold_sigma.hit_ratio": "ratio",
    "refined.bold_sigma.self_s": "s",
    "refined.local_invariant.self_s": "s",
    "lattice.oracle_local_invariant.calls": "count",
    "lattice.oracle_local_invariant.self_s": "s",
    "lattice.torsion_image.calls": "count",
    "lattice.torsion_image.self_s": "s",
    "diagrams.enumerate_diagrams.self_s": "s",
    "diagrams.enumerate_diagrams.out": "count",
    "diagrams.validate.calls": "count",
    "diagrams.validate.accept_ratio": "ratio",
    "diagrams.validate.self_s": "s",
    "diagrams.multiplicity.calls": "count",
    "diagrams.multiplicity.self_s": "s",
    "diagrams.invariant.calls": "count",
    "diagrams.invariant.hit_ratio": "ratio",
    "diagrams.invariant.self_s": "s",
    "qseries.factorization_check.self_s": "s",
    "qseries.cauchy.calls": "count",
    "qseries.cauchy.self_s": "s",
    "qseries.templates_for.out": "count",
    "qseries.write_series_csv.self_s": "s",
    "polyfit.polynomial_fit.self_s": "s",
    "polyfit.invariant_by_template.self_s": "s",
    "polyfit.weightings.out": "count",
    "polyfit.gamma_coeffs.self_s": "s",
    "polyfit.interpolate.self_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` is a sequence of (start, end, parent index or None).  Children
    in other threads may overlap one another, so their cover is the length
    of the union of their intervals, not the sum of their durations.
    """
    children = defaultdict(list)
    for start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - _union_length(children.get(i, ()), start, end)
        for i, (start, end, _parent) in enumerate(spans)
    ]


class Tracer:
    """Records spans [name, start, end, parent, counters] in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.lock = threading.RLock()
        self.root: int | None = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list, list[int]]:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else self.root, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span, stack

    def wrap(self, name: str, fn, counters=None, cache=None):
        """Wrap fn in a span; counters(args, result) adds exact counts."""

        def wrapper(*args, **kwargs):
            with self.lock:
                span, stack = self._open(name)
                before = cache.cache_info() if cache else None
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    stack.pop()
                extra = counters(args, result) if counters else {}
                if cache:
                    after = cache.cache_info()
                    extra["hits"] = after.hits - before.hits
                    extra["misses"] = after.misses - before.misses
                span[4] = extra
                return result

        return wrapper

    def wrap_root(self, name: str, fn):
        """Wrap the job's entry point; spans of pool threads hang off it."""

        def wrapper(*args, **kwargs):
            span, stack = self._open(name)
            self.root = stack[-1]
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self.root = None

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and the summed counters."""
        own = self_times([(s[1], s[2], s[3]) for s in self.spans])
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, own):
            agg = out.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += self_s
            for k, v in (span[4] or {}).items():
                agg[k] = agg.get(k, 0) + v
        return out


def merge(total: dict, part: dict) -> None:
    """Add one job's summary into a running total, name by name."""
    for name, fields in part.items():
        agg = total.setdefault(name, {})
        for k, v in fields.items():
            agg[k] = agg.get(k, 0) + v


def layer_metrics(summary: dict, stdout_bytes: int, overhead: float) -> dict:
    """The per-layer metrics of LAYER_METRICS from a summed summary."""

    def field(span: str, name: str) -> float:
        return summary.get(span, {}).get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    arith = [v for k, v in summary.items() if k.startswith("arith.")]
    out = {
        "arith.calls": sum(v["calls"] for v in arith),
        "arith.self_s": sum(v["self_s"] for v in arith),
        "torsion.terms_out": field("torsion.linear", "terms_out"),
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_ratio": overhead,
    }
    for metric in LAYER_METRICS:
        if metric in out:
            continue
        span, _, kind = metric.rpartition(".")
        if kind == "hit_ratio":
            hits = field(span, "hits")
            out[metric] = ratio(hits, hits + field(span, "misses"))
        elif kind == "accept_ratio":
            out[metric] = ratio(field(span, "accepted"), field(span, "calls"))
        else:
            out[metric] = field(span, kind)
    return {m: out[m] for m in LAYER_METRICS}


def _counters(name: str):
    if name == "torsion.convolve":
        return lambda args, r: {
            "term_pairs": len(args[0].items()) * len(args[1].items())
        }
    if name == "torsion.linear":
        # Every element the layer returns is built by the constructor once.
        return lambda args, r: (
            {"terms_out": len(args[0].items())} if r is None else {}
        )
    if name == "diagrams.validate":
        return lambda args, r: {"accepted": int(bool(r[0]))}
    if name in ("diagrams.enumerate_diagrams", "qseries.templates_for",
                "polyfit.weightings"):
        return lambda args, r: {"out": len(r)}
    return None


def _rebind(old, new) -> None:
    """Point every corgw module binding of old at new."""
    for modname, mod in list(sys.modules.items()):
        if modname == "corgw" or modname.startswith("corgw."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Patch every traced function, method and module binding."""
    import importlib

    import corgw.cli  # noqa: F401 - loads every layer before patching

    from corgw.torsion import GroupAlgebraElement

    mods = {m: importlib.import_module(f"corgw.{m}") for m in (
        "arith", "torsion", "refined", "lattice", "diagrams", "qseries",
        "polyfit")}
    caches = {name: getattr(mods[m], a) for name, (m, a) in CACHES.items()}
    for modname, attr, name in TRACED:
        owner = mods[modname]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        old = getattr(owner, attr)
        new = tracer.wrap(name, old, _counters(name), caches.get(name))
        if isinstance(owner, type):
            setattr(owner, attr, new)
        else:
            _rebind(old, new)

    # x * y is a convolution (traced by its own span) or a scalar product.
    mul = GroupAlgebraElement.__mul__
    scalar = tracer.wrap("torsion.linear", mul)

    def traced_mul(self, other):
        if isinstance(other, GroupAlgebraElement):
            return mul(self, other)
        return scalar(self, other)

    GroupAlgebraElement.__mul__ = GroupAlgebraElement.__rmul__ = traced_mul


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    code = 0
    try:
        if argv[:1] == ["cli"]:
            import corgw.cli

            code = tracer.wrap_root("cli.main", corgw.cli.main)(argv[1:])
        elif argv == ["session"]:
            import session  # after install, so its imported names are traced

            session.run_session(json.load(sys.stdin), sys.stdout)
        else:
            raise SystemExit("usage: tracer.py cli ARGS... | tracer.py session")
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.summary()) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
