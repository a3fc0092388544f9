import copy
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import corgw
from corgw.arith import (
    dedekind_psi, jordan2, s_delta, s_delta_order, s_via_lattice, sigma_bar,
    upsilon,
)
from corgw.diagrams import BOTTOM, Edge, FloorDiagram, TangencyProfile
from corgw.lattice import (
    Sublattice, enumerate_sublattices, oracle_local_invariant, torsion_image,
)
from corgw.polyfit import (
    CoordinateFit, DiagramTemplate, PolyFitReport, interpolate, polynomial_fit,
)
from corgw.projector import ProjectorElement
from corgw.qseries import GASeries
from corgw.refined import bold_sigma, local_invariant
from corgw.torsion import GroupAlgebraElement, theta


def test_package_import_loads_no_layer():
    # The layers are imported from their submodules; the package itself
    # must not load any of them.
    code = (
        "import sys\n"
        "import corgw\n"
        "print(sorted(m for m in sys.modules if m.startswith('corgw.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_clear_caches_empties_every_cache_and_imports_nothing():
    # After a series, an invariant, a listing, a dense theta, a fit, a local
    # call and an oracle call, every lru_cache of the loaded corgw modules
    # holds entries; clear_caches empties each one and loads no further
    # module.
    code = (
        "import sys\n"
        "from corgw import clear_caches\n"
        "from corgw.diagrams import TangencyProfile, enumerate_diagrams, invariant\n"
        "from corgw.lattice import oracle_local_invariant\n"
        "from corgw.polyfit import DiagramTemplate, polynomial_fit\n"
        "from corgw.qseries import invariant_series\n"
        "from corgw.refined import local_invariant\n"
        "from corgw.torsion import theta\n"
        "invariant_series(2, TangencyProfile((2, -2)), 2, 4)\n"
        "invariant(2, 2, TangencyProfile((2, -2)), 2)\n"
        "enumerate_diagrams(2, 2, TangencyProfile((2, -2)))\n"
        "theta(2, 2)\n"
        "chain = DiagramTemplate((1, 0), ((-1, 0), (0, 1), (1, 2)))\n"
        "polynomial_fit(chain, 1, [1, 2, 3, 4, 5], [6, 7])\n"
        "local_invariant(2, 2, 2, 2, (1, 0)).to_json()\n"
        "oracle_local_invariant(2, 2, 2, 2)\n"
        "caches = {f'{m}.{a}': f for m, mod in list(sys.modules.items())\n"
        "          if m.startswith('corgw.') for a, f in vars(mod).items()\n"
        "          if hasattr(f, 'cache_info') and f.__module__ == m}\n"
        "sizes = lambda: {k: f.cache_info().currsize for k, f in caches.items()}\n"
        "loaded = set(sys.modules)\n"
        "empty = sorted(k for k, n in sizes().items() if not n)\n"
        "clear_caches()\n"
        "print(len(caches), empty, sorted(set(sizes().values())),\n"
        "      set(sys.modules) == loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "11 [] [0] True\n"


def test_tracer_names_resolve():
    # perfbench/tracer.py patches its traced names through getattr; a name
    # removed from the library fails install here, not in a traced run.
    root = Path(__file__).parents[1]
    path = os.pathsep.join(str(root / d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_times_the_invariant_through_diagrams():
    # The tracer patches diagrams.invariant and reads the cache counters of
    # diagrams._invariant_cached, names that diagrams re-exports from
    # search, while --sum calls search.invariant.  Only the same objects
    # under both names give the span its call and its two cache misses
    # (e = 1, 2); copies would read 0 and zero the per-layer metric.
    root = Path(__file__).parents[1]
    path = os.pathsep.join(str(root / d) for d in ("src", "perfbench"))
    argv = ["diagrams", "--g", "3", "--a", "2", "--profile=2,2,-2,-2", "--sum",
            "--delta", "2"]
    code = (
        "import contextlib, io, tracer\n"
        "from corgw.cli import main\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "span = t.summary().get('diagrams.invariant', {})\n"
        "print(code, span.get('calls'), span.get('misses'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 1 2\n"


def test_outputs_match_benchmark_digests():
    # Every job the benchmark can draw, run in one process from the repo
    # root: each CLI job's stdout and each session call's output must hash
    # to its entry in perfbench/digests.json, and each session identity
    # must hold.  No bytecode is written, so perfbench/ is left as it is.
    root = Path(__file__).parents[1]
    path = os.pathsep.join(str(root / d) for d in ("src", "perfbench"))
    code = (
        "import contextlib, io, json\n"
        "import jobs, session\n"
        "from corgw import cli\n"
        "digests, bad, n = jobs.load_digests(), [], 0\n"
        "for workload in jobs.WORKLOADS:\n"
        "    for job in jobs.universe(workload):\n"
        "        n += 1\n"
        "        if isinstance(job, dict):\n"
        "            data, ok = session.run_call(job)\n"
        "        else:\n"
        "            out, err = io.StringIO(), io.StringIO()\n"
        "            with contextlib.redirect_stdout(out), "
        "contextlib.redirect_stderr(err):\n"
        "                ok = cli.main(job) == 0\n"
        "            data = out.getvalue().encode()\n"
        "        if not ok or jobs.digest(data) != digests.get(jobs.key(job)):\n"
        "            bad.append(jobs.key(job))\n"
        "print(json.dumps([n, bad]))\n"
    )
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=root, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    n, bad = json.loads(proc.stdout)
    assert n >= 100 and bad == []


def test_version_matches_pyproject():
    # Read the [project] version line directly: Python 3.10 has no tomllib.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
    versions = re.findall(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert versions == [corgw.__version__]


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Each CLI job is a fresh process; the value classes are hand-written so
    # that these modules, and what they pull in, stay out of its start-up.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import corgw.cli, corgw.diagrams, corgw.qseries, corgw.polyfit, "
        "corgw.lattice\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


LEVELS = (1, 0)
EDGES = ((BOTTOM, 0), (0, 1), (1, 2))
CHAIN = tuple(Edge(lo, hi, 2) for lo, hi in EDGES)
FIT = CoordinateFit(1, (Fraction(1, 2),), 0, True)

# name -> (positional construction, the same value built again, with
# keywords where the class's own __init__ takes them, a different value of
# the same class).  The second forms also exercise the normalisation of the
# canonical edge order.
VALUES = {
    "Edge": (
        lambda: Edge(BOTTOM, 0, 2),
        lambda: Edge(BOTTOM, 0, 2),
        lambda: Edge(BOTTOM, 0, 4),
    ),
    "TangencyProfile": (
        lambda: TangencyProfile((2, -2)),
        lambda: TangencyProfile(weights=(2, -2)),
        lambda: TangencyProfile((-2, 2)),
    ),
    "FloorDiagram": (
        lambda: FloorDiagram(LEVELS, CHAIN),
        lambda: FloorDiagram(levels=LEVELS, edges=CHAIN[::-1]),
        lambda: FloorDiagram((2, 0), CHAIN),
    ),
    "Sublattice": (
        lambda: Sublattice(2, 1, 3),
        lambda: Sublattice(d1=2, c=1, d2=3),
        lambda: Sublattice(2, 0, 3),
    ),
    "DiagramTemplate": (
        lambda: DiagramTemplate(LEVELS, EDGES),
        lambda: DiagramTemplate(levels=LEVELS, edges=EDGES[::-1]),
        lambda: DiagramTemplate((2, 0), EDGES),
    ),
    "CoordinateFit": (
        lambda: CoordinateFit(1, (Fraction(1, 2),), 0, True),
        lambda: CoordinateFit(1, (Fraction(1, 2),), 0, True),
        lambda: CoordinateFit(1, (Fraction(1, 2),), 0, False),
    ),
    "PolyFitReport": (
        lambda: PolyFitReport(True, 2, (2, 0), 9, (2, 4), (6,), (FIT,)),
        lambda: PolyFitReport(True, 2, (2, 0), 9, (2, 4), (6,), (FIT,)),
        lambda: PolyFitReport(True, 2, None, 9, (2, 4), (6,), (FIT,)),
    ),
    "GASeries": (
        lambda: GASeries(2, (ProjectorElement.unit(2),)),
        lambda: GASeries(delta=2, coeffs=(ProjectorElement.unit(2),)),
        lambda: GASeries(2, (ProjectorElement.zero(2),)),
    ),
}


FIELDS = {
    "Edge": ("lo", "hi", "w"),
    "TangencyProfile": ("weights",),
    "FloorDiagram": ("levels", "edges"),
    "Sublattice": ("d1", "c", "d2"),
    "DiagramTemplate": ("levels", "edges"),
    "CoordinateFit": ("divisor", "coeffs", "degree", "holdout_ok"),
    "PolyFitReport": (
        "ok", "delta", "chamber", "degree_bound", "fit_points",
        "holdout_points", "coordinates",
    ),
    "GASeries": ("delta", "coeffs"),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_equality_and_hash(name):
    make, make_kw, make_other = VALUES[name]
    x, y, other = make(), make_kw(), make_other()
    assert type(x).__name__ == name
    assert x == y and not x != y
    assert x != other and other != x
    assert x is not y
    assert hash(x) == hash(y)
    assert len({x, y, other}) == 2
    # A value is neither a tuple of its fields nor iterable.
    assert x != tuple(getattr(x, f) for f in FIELDS[name])
    with pytest.raises(TypeError):
        iter(x)


@pytest.mark.parametrize("name", VALUES)
def test_value_is_immutable(name):
    x = VALUES[name][0]()
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 0
    assert x == VALUES[name][1]()


@pytest.mark.parametrize("name", VALUES)
def test_value_copy_and_pickle(name):
    # One-field classes (TangencyProfile) key on the field itself, the
    # others on the tuple of their fields: both survive a round trip.
    x = VALUES[name][0]()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x)
        assert y == x and x == y
        assert hash(y) == hash(x)


def test_value_classes_with_equal_fields_differ():
    # A template and a diagram with the same levels and edges (weights all
    # 1) are read through the same fields, yet differ in class: unequal
    # both ways, and two keys in one dict.
    template = DiagramTemplate(LEVELS, EDGES)
    diagram = FloorDiagram(template.levels, template.edges)
    assert (diagram.levels, diagram.edges) == (template.levels, template.edges)
    assert template != diagram and diagram != template
    assert not template == diagram and not diagram == template
    assert len({template: 0, diagram: 1}) == 2


def test_value_reprs():
    assert repr(Edge(BOTTOM, 0, 2)) == "Edge(lo=-1, hi=0, w=2)"
    assert repr(Sublattice(2, 1, 3)) == "Sublattice(d1=2, c=1, d2=3)"
    assert repr(TangencyProfile((2, -2))) == "TangencyProfile(weights=(2, -2))"
    assert repr(FloorDiagram(LEVELS, CHAIN[::-1])) == (
        "FloorDiagram(levels=(1, 0), edges=(Edge(lo=-1, hi=0, w=2), "
        "Edge(lo=0, hi=1, w=2), Edge(lo=1, hi=2, w=2)))"
    )
    assert repr(DiagramTemplate(LEVELS, EDGES[::-1])) == (
        "DiagramTemplate(levels=(1, 0), edges=(Edge(lo=-1, hi=0, w=1), "
        "Edge(lo=0, hi=1, w=1), Edge(lo=1, hi=2, w=1)))"
    )
    assert repr(FIT) == (
        "CoordinateFit(divisor=1, coeffs=(Fraction(1, 2),), degree=0, "
        "holdout_ok=True)"
    )


@pytest.mark.parametrize("build", [
    lambda: FloorDiagram((-1, 0), CHAIN),
    lambda: FloorDiagram((1.0, 0), CHAIN),
    lambda: FloorDiagram((True, 0), CHAIN),
    lambda: TangencyProfile(()),
    lambda: TangencyProfile((2, 0, -2)),
    lambda: TangencyProfile((2, -1)),
    lambda: FloorDiagram((), ()),
    lambda: FloorDiagram(LEVELS, (Edge(0, BOTTOM, 1),)),
    lambda: FloorDiagram(LEVELS, (Edge(BOTTOM, 3, 1),)),
    lambda: FloorDiagram(LEVELS, (Edge(BOTTOM, 0, 0),)),
    lambda: Sublattice(0, 0, 1),
    lambda: Sublattice(2, 2, 1),
    lambda: DiagramTemplate(LEVELS, ((1, 0),)),
    lambda: GASeries(2, (ProjectorElement.unit(3),)),
])
def test_value_checks_raise(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: Edge(BOTTOM, 0), "Edge takes 3 fields, got 2"),
    (lambda: Edge(BOTTOM, 0, 2, 2), "Edge takes 3 fields, got 4"),
    (lambda: Edge(lo=BOTTOM, hi=0, w=2), None),
], ids=["missing", "extra", "keyword"])
def test_value_constructor_binds_fields(build, message):
    with pytest.raises(TypeError) as info:
        build()
    if message is not None:
        assert str(info.value) == message


# Input checks of the library functions, each with the message it raises.
DENSE_UNIT = GroupAlgebraElement.unit(2)
CHAIN_TEMPLATE = DiagramTemplate(LEVELS, EDGES)
INPUT_CHECKS = {
    "sigma_bar(0, 1)": (
        lambda: sigma_bar(0, 1), "sigma_bar expects positive arguments"),
    "jordan2(0)": (lambda: jordan2(0), "jordan2 expects d >= 1, got 0"),
    "dedekind_psi(0)": (
        lambda: dedekind_psi(0), "dedekind_psi expects n >= 1, got 0"),
    "upsilon(1, 1, 0)": (
        lambda: upsilon(1, 1, 0), "upsilon expects positive arguments"),
    "s_delta(0, 1)": (
        lambda: s_delta(0, 1), "s_delta expects positive arguments"),
    "s_via_lattice(1, 0)": (
        lambda: s_via_lattice(1, 0), "s_via_lattice expects positive arguments"),
    "s_delta_order(1, 1, 0)": (
        lambda: s_delta_order(1, 1, 0), "s_delta_order expects positive arguments"),
    "bold_sigma(0, 1)": (
        lambda: bold_sigma(0, 1), "bold_sigma expects positive arguments"),
    "local_invariant(0, 1, 2, 1)": (
        lambda: local_invariant(0, 1, 2, 1),
        "local_invariant expects a >= 1 and w1 >= 1"),
    "local_invariant(1, 1, 1, 1)": (
        lambda: local_invariant(1, 1, 1, 1),
        "local_invariant expects n >= 2, got 1"),
    "enumerate_sublattices(0)": (
        lambda: enumerate_sublattices(0), "expected a >= 1, got 0"),
    "torsion_image(Sublattice(1, 0, 1), 0)": (
        lambda: torsion_image(Sublattice(1, 0, 1), 0),
        "expected delta >= 1, got 0"),
    "oracle_local_invariant(1, 1, 1, 1)": (
        lambda: oracle_local_invariant(1, 1, 1, 1),
        "oracle expects n >= 2, got 1"),
    "GroupAlgebraElement(0)": (
        lambda: GroupAlgebraElement(0), "delta must be >= 1, got 0"),
    "theta(0, 1)": (lambda: theta(0, 1), "delta must be >= 1, got 0"),
    "TangencyProfile((2, -2)).check_delta(0)": (
        lambda: TangencyProfile((2, -2)).check_delta(0),
        "delta must be >= 1, got 0"),
    "ProjectorElement.from_characters(0, {})": (
        lambda: ProjectorElement.from_characters(0, {}),
        "delta must be >= 1, got 0"),
    "ProjectorElement.unit(2).character(3)": (
        lambda: ProjectorElement.unit(2).character(3),
        "character index 3 does not divide delta=2"),
    "m_push(0)": (
        lambda: DENSE_UNIT.m_push(0), "m_push expects k >= 1, got 0"),
    "divide(0)": (
        lambda: DENSE_UNIT.divide(0), "divide expects k >= 1, got 0"),
    "rebase(0)": (
        lambda: DENSE_UNIT.rebase(0), "rebase expects a positive level, got 0"),
    "cauchy of unequal truncations": (
        lambda: GASeries(1, (ProjectorElement.unit(1),)).cauchy(GASeries(1, ())),
        "series shape mismatch"),
    "interpolate([(1, 1), (1, 2)])": (
        lambda: interpolate([(1, 1), (1, 2)]),
        "interpolation nodes must be distinct"),
    "interpolate at a Fraction node": (
        lambda: interpolate([(0, 1), (Fraction(1, 2), 2)]),
        "interpolation nodes must be ints, got [Fraction(1, 2)]"),
    "interpolate at a float node": (
        lambda: interpolate([(1.5, 1)]),
        "interpolation nodes must be ints, got [1.5]"),
    "polynomial_fit chamber residue -1": (
        lambda: polynomial_fit(CHAIN_TEMPLATE, 1, [1, 3, 5], [7], (2, -1)),
        "chamber residue -1 lies outside [0, 2)"),
    "polynomial_fit chamber residue 5": (
        lambda: polynomial_fit(CHAIN_TEMPLATE, 1, [1, 3, 5], [7], (2, 5)),
        "chamber residue 5 lies outside [0, 2)"),
    "polynomial_fit delta 0": (
        lambda: polynomial_fit(CHAIN_TEMPLATE, 0, [1, 2, 3], [4]),
        "delta must be >= 1, got 0"),
    "polynomial_fit samples off delta": (
        lambda: polynomial_fit(CHAIN_TEMPLATE, 2, [1, 2, 3], [4]),
        "samples [1, 3] are not multiples of delta=2"),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_checks_raise(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_lru_cache_keyed_by_profile_hits():
    @lru_cache(maxsize=None)
    def weight_sum(profile):
        return sum(abs(w) for w in profile.weights)

    assert weight_sum(TangencyProfile((2, -2))) == 4
    assert weight_sum(TangencyProfile((2, -2))) == 4
    info = weight_sum.cache_info()
    assert (info.hits, info.misses) == (1, 1)
