import hashlib
import json
from collections import Counter
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corgw.arith import divisors, sigma
from corgw.diagrams import (
    BOTTOM,
    Edge,
    FloorDiagram,
    TangencyProfile,
    count_diagrams,
    enumerate_diagrams,
    invariant,
    multiplicity,
    validate,
)
from corgw.projector import ProjectorElement
from corgw.refined import bold_sigma
from corgw.torsion import GroupAlgebraElement, theta, unrefine


def test_profile_validation():
    TangencyProfile((3, -3))
    with pytest.raises(ValueError):
        TangencyProfile((3, -2))
    with pytest.raises(ValueError):
        TangencyProfile((1, 0, -1))
    p = TangencyProfile((2, 1, -3))
    assert p.b == 3 and p.sources == (3,) and p.sinks == (1, 2)
    assert p.gcd_abs == 1


def chain_g1(w, floor_first=True, a_v=1):
    if floor_first:
        levels = (a_v, 0)
    else:
        levels = (0, a_v)
    edges = (Edge(BOTTOM, 0, w), Edge(0, 1, w), Edge(1, 2, w))
    return FloorDiagram(levels, edges)


def test_validate_g1_examples():
    p = TangencyProfile((2, -2))
    ok, why = validate(chain_g1(2), 1, 1, p)
    assert ok, why
    # two flats, no floor: genus comes out 0
    d = FloorDiagram(
        (0, 0), (Edge(BOTTOM, 0, 2), Edge(0, 1, 2), Edge(1, 2, 2))
    )
    ok, why = validate(d, 1, 1, p)
    assert not ok and why == "genus"


def second_kind(a1=1, a2=1, w=2, w_flat=1, low_flat=True):
    """Two floors joined by a direct edge and a flat path; genus 3, n=2."""
    w_dir = w - w_flat
    if low_flat:
        levels = (0, a1, 0, a2)
        edges = (
            Edge(BOTTOM, 0, w),
            Edge(0, 1, w),
            Edge(1, 3, w_dir),
            Edge(1, 2, w_flat),
            Edge(2, 3, w_flat),
            Edge(3, 4, w),
        )
    else:
        levels = (a1, 0, a2, 0)
        edges = (
            Edge(BOTTOM, 0, w),
            Edge(0, 2, w_dir),
            Edge(0, 1, w_flat),
            Edge(1, 2, w_flat),
            Edge(2, 3, w),
            Edge(3, 4, w),
        )
    return FloorDiagram(levels, edges)


def test_validate_g3_example():
    p = TangencyProfile((2, -2))
    ok, why = validate(second_kind(), 3, 2, p)
    assert ok, why
    ok, why = validate(second_kind(low_flat=False), 3, 2, p)
    assert ok, why


def test_validate_rejects_pinned_cycle():
    # both branches of the cycle pass through flat vertices: every chain of
    # the cycle is pinned, so the configuration carries no count
    levels = (1, 0, 0, 1)
    edges = (
        Edge(BOTTOM, 0, 2),
        Edge(0, 1, 1),
        Edge(0, 2, 1),
        Edge(1, 3, 1),
        Edge(2, 3, 1),
        Edge(3, 4, 2),
    )
    d = FloorDiagram(levels, edges)
    ok, why = validate(d, 3, 2, TangencyProfile((2, -2)))
    assert not ok and why == "cycle through two flat vertices"


def test_validate_rejects_bare_double_edge():
    levels = (0, 1, 1, 0)
    edges = (
        Edge(BOTTOM, 0, 2),
        Edge(0, 1, 2),
        Edge(1, 2, 1),
        Edge(1, 2, 1),
        Edge(2, 3, 2),
        Edge(3, 4, 2),
    )
    d = FloorDiagram(levels, edges)
    ok, why = validate(d, 3, 2, TangencyProfile((2, -2)))
    assert not ok and why == "forest: cycle avoiding all flats"


def test_validate_rejects_disconnected():
    # two chain components; the level count only works out because one
    # component carries a flat-flat edge
    levels = (0, 1, 0, 0, 1)
    edges = (
        Edge(BOTTOM, 0, 2),
        Edge(0, 1, 2),
        Edge(1, 5, 2),
        Edge(BOTTOM, 2, 2),
        Edge(2, 3, 2),
        Edge(3, 4, 2),
        Edge(4, 5, 2),
    )
    d = FloorDiagram(levels, edges)
    ok, why = validate(d, 2, 2, TangencyProfile((2, 2, -2, -2)))
    assert not ok and why == "connectivity"


def test_validate_malformed_raises():
    with pytest.raises(ValueError):
        FloorDiagram((1,), (Edge(BOTTOM, 3, 1),))
    with pytest.raises(ValueError):
        FloorDiagram((1,), (Edge(0, 0, 1),))
    with pytest.raises(ValueError):
        FloorDiagram((1,), (Edge(BOTTOM, 0, 0),))
    with pytest.raises(ValueError):
        FloorDiagram((-1,), (Edge(BOTTOM, 0, 1),))


def _hand_built(levels, edges):
    """Diagram from a level string ("F" floor of label 1, "-" flat) and
    (lo, hi, w) triples."""
    return FloorDiagram(
        tuple(int(c == "F") for c in levels),
        tuple(Edge(lo, hi, w) for lo, hi, w in edges),
    )


CHAIN = [(BOTTOM, 0, 2), (0, 1, 2), (1, 2, 2)]

# clause -> (levels, edges, genus, degree, profile): the first clause each
# hand-built diagram violates.
VALIDATE_CLAUSES = {
    "level-count": ("F-", CHAIN, 2, 1, (2, -2)),
    "balancing at level 0": (
        "F-", [(BOTTOM, 0, 2), (0, 1, 1), (1, 2, 1)], 1, 1, (2, -2)),
    "flat bivalency at level 1": (
        "F-", [(BOTTOM, 0, 2), (0, 1, 1), (0, 1, 1), (1, 2, 2)], 1, 1, (2, -2)),
    "tangency profile": (
        "F-", [(BOTTOM, 0, 3), (0, 1, 3), (1, 2, 3)], 1, 1, (2, -2)),
    "connectivity": (
        "-F--F", [(BOTTOM, 0, 2), (0, 1, 2), (1, 5, 2), (BOTTOM, 2, 2),
                  (2, 3, 2), (3, 4, 2), (4, 5, 2)], 2, 2, (2, 2, -2, -2)),
    "genus": ("--", CHAIN, 1, 1, (2, -2)),
    "class": ("F-", CHAIN, 1, 2, (2, -2)),
    "forest: cycle avoiding all flats": (
        "-FF-", [(BOTTOM, 0, 2), (0, 1, 2), (1, 2, 1), (1, 2, 1), (2, 3, 2),
                 (3, 4, 2)], 3, 2, (2, -2)),
    # the floor carries both the end from BOTTOM and a direct end to the top
    "forest: component without a unique infinite end": (
        "F--", [(BOTTOM, 0, 2), (0, 3, 1), (0, 1, 1), (1, 2, 1), (2, 3, 1)],
        1, 1, (1, 1, -2)),
    "cycle through two flat vertices": (
        "F--F", [(BOTTOM, 0, 2), (0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1),
                 (3, 4, 2)], 3, 2, (2, -2)),
}


@pytest.mark.parametrize("clause", list(VALIDATE_CLAUSES))
def test_validate_reports_each_clause(clause):
    levels, edges, genus, degree, weights = VALIDATE_CLAUSES[clause]
    d = _hand_built(levels, edges)
    assert validate(d, genus, degree, TangencyProfile(weights)) == (False, clause)


def test_multiplicity_examples():
    # floor-then-flat chain: end into floor is weight-squared, bounded edge
    # once, end out of the flat free
    for w in (1, 2, 3, 5):
        d = chain_g1(w)
        assert multiplicity(d, 1) == w**3 * GroupAlgebraElement.unit(1)
        assert multiplicity(d, w) == w**3 * theta(w, w)
    d = chain_g1(4, a_v=3)
    assert multiplicity(d, 1) == 3 * sigma(3) * 4**3 * GroupAlgebraElement.unit(1)
    for delta in (0, 2):
        with pytest.raises(ValueError):
            multiplicity(chain_g1(3), delta)


def test_multiplicity_second_kind_odd_case():
    for a1, a2 in product((1, 2, 3), repeat=2):
        for w in (2, 4, 6):
            for w_flat in range(1, w, 2):  # odd flat-path weight
                d = second_kind(a1, a2, w, w_flat)
                w_dir = w - w_flat
                want = (
                    a1 * a1 * a2 * a2 * sigma(a1) * sigma(a2)
                    * w**3 * w_flat**2 * w_dir**3
                ) * theta(2, 2)
                assert multiplicity(d, 2) == want


def test_multiplicity_second_kind_even_case():
    from corgw.refined import bold_sigma
    from corgw.torsion import convolve

    for a1, a2 in product((1, 2), repeat=2):
        w, w_flat = 4, 2
        d = second_kind(a1, a2, w, w_flat)
        core = convolve(bold_sigma(2, a1), bold_sigma(2, a2))
        want = (
            a1 * a1 * a2 * a2 * w**3 * w_flat**2 * (w - w_flat) ** 3
        ) * core
        assert multiplicity(d, 2) == want


def test_enumerate_g1_base():
    for w in range(1, 9):
        p = TangencyProfile((w, -w))
        ds = enumerate_diagrams(1, 1, p)
        assert len(ds) == 2
        assert {d.levels for d in ds} == {(1, 0), (0, 1)}


def test_enumerate_census_g3():
    from corgw.polyfit import DiagramTemplate

    p = TangencyProfile((2, -2))
    templates = set()
    for n_floors in (1, 2, 3):
        for d in enumerate_diagrams(3, n_floors, p):
            stripped = DiagramTemplate(
                tuple(min(a, 1) for a in d.levels),
                tuple((e.lo, e.hi) for e in d.edges),
            )
            templates.add(stripped.to_json())
    assert len(templates) == 6


def test_canonical_key():
    p_edges = [Edge(BOTTOM, 0, 2), Edge(0, 1, 2), Edge(1, 2, 2)]
    d1 = FloorDiagram((1, 0), tuple(p_edges))
    d2 = FloorDiagram((1, 0), tuple(reversed(p_edges)))
    assert d1.to_json() == d2.to_json()
    d3 = FloorDiagram((0, 1), tuple(p_edges))
    assert d1.to_json() != d3.to_json()


def test_invariant_examples():
    for w in (1, 2, 3, 6):
        p = TangencyProfile((w, -w))
        assert invariant(1, 1, p, 1) == 2 * w**3 * GroupAlgebraElement.unit(1)
        assert invariant(1, 1, p, w) == 2 * w**3 * theta(w, w)
    with pytest.raises(ValueError):
        invariant(1, 1, TangencyProfile((3, -3)), 2)


def test_invariant_mass_refinement_independent():
    for delta in (1, 2, 4):
        p = TangencyProfile((4, -4))
        for g in (1, 2):
            for a in (1, 2, 3):
                assert (
                    invariant(g, a, p, delta).total_mass
                    == invariant(g, a, p, 1).total_mass
                )


def test_invariant_unrefinement_small_grid():
    profiles = [
        (2, -2),
        (4, -4),
        (6, -6),
        (2, 2, -2, -2),
        (4, 2, -2, -4),
        (2, 2, 2, -2, -2, -2),
        (3, 3, -3, -3),
        (6, -3, -3),
    ]
    for weights in profiles:
        p = TangencyProfile(weights)
        for g in (1, 2, 3):
            for a in (1, 2, 3):
                for delta in (1, 2, 3, 6):
                    if p.gcd_abs % delta:
                        continue
                    x = invariant(g, a, p, delta)
                    for dp in (1, 2, 3, 6):
                        if delta % dp:
                            continue
                        assert unrefine(x, dp) == invariant(g, a, p, dp)


def test_invariant_support_and_stability():
    # each diagram term is invariant under convolution by the projector at
    # level delta/delta_D
    from corgw.torsion import convolve

    p = TangencyProfile((4, -4))
    for d in enumerate_diagrams(2, 2, p):
        m = multiplicity(d, 4)
        stab = theta(4, 4 // d.delta_gcd(4))
        assert convolve(m, stab) == m


# -- independent brute-force enumeration ------------------------------------


def brute_force_candidates(genus, degree, profile):
    """Every decorated level graph with the right level count, class and
    cross-flow, by exhaustive search over level patterns, floor labels and
    per-slot edge weight multisets."""
    L = len(profile.weights) + genus - 1
    b = profile.b
    slots = [
        (lo, hi)
        for lo in range(BOTTOM, L)
        for hi in range(L + 1)
        if lo < hi
    ]
    gaps = list(range(L + 1))
    crossing = {s: [g for g in gaps if s[0] < g <= s[1]] for s in slots}
    last_slot_for_gap = {
        g: max(i for i, s in enumerate(slots) if g in crossing[s]) for g in gaps
    }

    def weight_multisets(max_total):
        def multisets_of(total, cap):
            if total == 0:
                yield ()
                return
            for first in range(min(total, cap), 0, -1):
                for rest in multisets_of(total - first, first):
                    yield (first,) + rest

        out = [()]
        for total in range(1, max_total + 1):
            out.extend(multisets_of(total, total))
        return out

    budgets = [b] * (L + 1)
    assignment = {}

    def assign(i):
        if i == len(slots):
            yield dict(assignment)
            return
        s = slots[i]
        cap = min(budgets[g] for g in crossing[s])
        for ws in weight_multisets(cap):
            total = sum(ws)
            for g in crossing[s]:
                budgets[g] -= total
            ok = all(
                budgets[g] == 0 for g in gaps if last_slot_for_gap[g] == i
            )
            if ok:
                assignment[s] = ws
                yield from assign(i + 1)
                del assignment[s]
            for g in crossing[s]:
                budgets[g] += total
        return

    level_choices = [range(degree + 1)] * L
    for pattern in product(*level_choices):
        if sum(pattern) != degree:
            continue
        for edge_map in assign(0):
            edges = tuple(
                Edge(lo, hi, w) for (lo, hi), ws in edge_map.items() for w in ws
            )
            yield FloorDiagram(pattern, edges)


def brute_force_diagrams(genus, degree, profile):
    """Canonical keys of the brute-force candidates passing validate."""
    return {
        d.to_json()
        for d in brute_force_candidates(genus, degree, profile)
        if validate(d, genus, degree, profile)[0]
    }


BRUTE_FORCE_CASES = [
    (1, 1, (2, -2)),
    (1, 2, (3, -3)),
    (2, 1, (2, -2)),
    (2, 2, (2, -2)),
    (2, 3, (1, -1)),
    (1, 2, (1, 1, -2)),
    (1, 1, (2, -1, -1)),
    (2, 1, (2, 1, -3)),
]


@pytest.mark.parametrize("genus,degree,weights", BRUTE_FORCE_CASES)
def test_enumeration_matches_brute_force(genus, degree, weights):
    profile = TangencyProfile(weights)
    fast = {d.to_json() for d in enumerate_diagrams(genus, degree, profile)}
    brute = brute_force_diagrams(genus, degree, profile)
    assert fast == brute


# More cases for the brute force, each run in both orientations.  They are
# kept out of PINNED_PROFILES, so the tests over that list stay as fast.
# 6 cases, 12 brute forces; one orientation took 0.11-0.29 s on a 2-vCPU
# VM, the whole test about 2.5 s.
WIDER_BRUTE_FORCE_CASES = [
    (2, 2, (1, 1, -2)),
    (1, 1, (3, -2, -1)),
    (2, 2, (3, -3)),
    (1, 2, (2, 1, -3)),
    (1, 2, (1, 1, -1, -1)),
    (2, 1, (1, 1, -1, -1)),
]


@pytest.mark.parametrize("genus,degree,weights", [
    (genus, degree, ws)
    for genus, degree, weights in WIDER_BRUTE_FORCE_CASES
    for ws in (weights, tuple(-w for w in weights))
])
def test_totals_match_brute_force(genus, degree, weights):
    # The listing, the count and the invariant at every delta against the
    # brute force, which shares no code with the structure search.
    profile = TangencyProfile(weights)
    brute = {
        d.to_json(): d
        for d in brute_force_candidates(genus, degree, profile)
        if validate(d, genus, degree, profile)[0]
    }
    fast = {d.to_json() for d in enumerate_diagrams(genus, degree, profile)}
    assert fast == set(brute)
    assert count_diagrams(genus, degree, profile) == len(brute)
    for delta in divisors(profile.gcd_abs):
        total = ProjectorElement.zero(delta)
        for d in brute.values():
            total = total + multiplicity(d, delta)
        assert invariant(genus, degree, profile, delta) == total, delta


def test_enumeration_is_deterministic():
    from corgw.search import _closes

    _closes.cache_clear()
    p = TangencyProfile((4, -4))
    first = [d.to_json() for d in enumerate_diagrams(2, 3, p)]
    _closes.cache_clear()
    second = [d.to_json() for d in enumerate_diagrams(2, 3, p)]
    assert first == second


# SHA-256 of the newline-joined to_json of _structures as the search without
# early pruning produced it: pruning may drop dead branches, never change or
# reorder the output.
STRUCTURE_DIGESTS = {
    (3, (2, 2, -2, -2)):
        "ca5e712541fd2e60262aa3a178851eace4ce9f106b141a69e2dbf484b809a568",
    (4, (4, -2, -2)):
        "6998679fb8e24a82163c45c17295b888df277e4a3b70a9e4c083fcbc545a527e",
    (6, (2, -2)):
        "229b4ba4d1d13ed4ad93f58b29388f99250a5323ca1d0c75bde61e29a0ef3d60",
    (3, (3, 3, -3, -3)):
        "79495b3fda26b19f39156c86058810dfb73698491177bf64f9112fb533d8f31e",
    (3, (2, 2, 2, -6)):
        "e0d1e5b401173b86da70db31ed436ad3335d3023f3cb35b43e9675910ee65660",
    (4, (2, 2, -4)):
        "6c6a44f118715674047dcab465a859292524ed6ff6442dfcb8c3ec33dcf4cb41",
    (2, (3, 3, -2, -2, -2)):
        "d73df9a8f654a8ed026391a228790fa67e3a8721c76b71fd2fbf37a2326af4f1",
}


@pytest.mark.parametrize("genus,weights", list(STRUCTURE_DIGESTS))
def test_structures_order_pinned(genus, weights):
    from corgw.diagrams import _structures

    found = tuple(_structures(genus, tuple(sorted(weights)), genus))
    text = "\n".join(d.to_json() for d in found)
    assert hashlib.sha256(text.encode()).hexdigest() == STRUCTURE_DIGESTS[
        (genus, weights)
    ]


@pytest.mark.parametrize(
    "genus,weights",
    list(STRUCTURE_DIGESTS) + [(g, w) for g, _a, w in BRUTE_FORCE_CASES],
)
def test_to_json_is_json_dumps_of_dict(genus, weights):
    # to_json writes its text directly; to_json_dict through json is the
    # reference.
    from corgw.diagrams import _structures

    for d in _structures(genus, tuple(sorted(weights)), genus):
        for sep in ((",", ":"), (", ", ": ")):
            assert d.to_json(sep) == json.dumps(d.to_json_dict(), separators=sep)


@pytest.mark.parametrize(
    "genus,weights",
    list(STRUCTURE_DIGESTS) + [(g, w) for g, _a, w in BRUTE_FORCE_CASES],
)
def test_floor_cap_equals_filtering(genus, weights):
    from corgw.diagrams import _structures

    weights = tuple(sorted(weights))
    full = tuple(_structures(genus, weights, genus))
    for cap in range(1, genus + 1):
        assert tuple(_structures(genus, weights, cap)) == tuple(
            s for s in full if len(s.floor_indices) <= cap
        ), cap


def test_floor_cap_cuts_search(monkeypatch):
    from corgw.diagrams import _structures

    # Every structure of (10; 2, -2) has more than two floors: the cut is
    # in the search, so no candidate reaches validate.
    assert tuple(_structures(10, (-2, 2), 2)) == ()
    assert _structure_candidates(10, (2, -2), monkeypatch, 2) == []


@pytest.mark.parametrize("k", [2, 5, 12, 24])
def test_closing_floor_builds_only_covering_subsets(k):
    # k sources of weight 1 and one sink of weight k: the one floor must
    # close the deficit, so it takes an edge from each of the k components.
    # Listing every subset of the open edges first would build 2^k of them.
    assert count_diagrams(1, 1, TangencyProfile((k,) + (-1,) * k)) == 2


@pytest.mark.parametrize("degree", [2, 3])
def test_classes_from_the_genus_share_one_search(degree):
    # From the genus on the floor cap is the genus, so templates_for and
    # every class reading _structures or _shapes share one search, the one
    # cached entry of _closes; the listing keeps no cache of its own.
    from corgw import diagrams, search
    from corgw.qseries import templates_for

    genus, profile = 2, TangencyProfile((2, -2))
    search._closes.cache_clear()
    search._shapes.cache_clear()
    search._invariant_cached.cache_clear()
    templates_for(genus, profile)
    enumerate_diagrams(genus, degree, profile)
    count_diagrams(genus, degree, profile)
    invariant(genus, degree, profile, 2)
    assert search._closes.cache_info().currsize == 1
    assert not hasattr(diagrams._structures, "cache_info")


def test_closing_states_store_each_value_once():
    # _closes keeps every closing state, and branches repeat few values of
    # each field but the edges, and few edges, so each value is one object.
    # Copies per state doubled the peak memory of a (10; 2, -2) count.
    from corgw.search import _closes

    states = _closes(6, (-2, 2), 6)
    assert len({s.levels for s in states}) < len(states)
    for field in ("levels", "opens", "ends", "surplus"):
        values = [getattr(s, field) for s in states]
        assert len({id(v) for v in values}) == len(set(values)), field
    edges = [e for s in states for e in s.edges]
    assert len({id(e) for e in edges}) == len(set(edges))


def check_labels(state):
    """Every claim of the _State comment about the labels, recomputed from
    the levels and edges placed."""
    from corgw.diagrams import _components

    levels, edges = state.levels, state.edges
    n = len(levels)
    comp = _components(n, [(lo, hi) for lo, hi, _w in edges if lo >= 0])
    floor = _components(n, [(lo, hi) for lo, hi, _w in edges
                            if lo >= 0 and levels[lo] and levels[hi]])
    for (_w, origin, c, f), _n in state.opens:
        if origin == BOTTOM:
            assert (c, f) == (-1, None)
            continue
        assert comp[c] == comp[origin]
        if levels[origin]:
            assert levels[f] and floor[f] == floor[origin]
        else:
            assert f is None
    names = [r for r, _e in state.ends]
    assert names == sorted(set(names)) and all(levels[r] for r in names)
    assert sorted(floor[r] for r in names) == sorted({floor[i] for i in range(n)
                                                      if levels[i]})
    ends = Counter(floor[hi] for lo, hi, _w in edges if lo == BOTTOM and levels[hi])
    assert [e for _r, e in state.ends] == [ends[floor[r]] for r in names]
    if state.deficit:
        assert {comp[o] for (_w, o, _c, _f), _n in state.opens if o >= 0} == set(comp)


@pytest.mark.parametrize(
    "genus,weights", list(STRUCTURE_DIGESTS) + [(2, (-3, 1, 1, 1))]
)
def test_search_state_labels_are_components(genus, weights):
    # Each open class names its origin's component and floor component,
    # the ends pairs each floor component's edges from BOTTOM, and until
    # the deficit closes every component keeps an open edge: that is what
    # lets _children count the components from the open classes alone.
    from corgw.search import _children, _State

    profile = TangencyProfile(weights)
    n_levels = len(weights) + genus - 1
    sinks = dict(Counter(profile.sinks))
    opens = tuple(sorted(Counter((w, BOTTOM, -1, None) for w in profile.sources).items()))

    def walk(state):
        check_labels(state)
        if len(state.levels) < n_levels:
            for child in _children(n_levels, genus, sinks, state):
                walk(child)

    walk(_State((), (), opens, (), genus, None))


# -- the class tally against the sum over labelled diagrams ----------------

PINNED_PROFILES = list(
    dict.fromkeys(
        list(STRUCTURE_DIGESTS) + [(g, w) for g, _a, w in BRUTE_FORCE_CASES]
    )
)


def invariant_by_diagrams(genus, degree, profile, delta):
    """Reference for invariant: the multiplicity of every labelled diagram,
    added one diagram at a time."""
    total = ProjectorElement.zero(delta)
    for d in enumerate_diagrams(genus, degree, profile):
        total = total + multiplicity(d, delta)
    return total


@pytest.mark.parametrize("genus,weights", PINNED_PROFILES)
def test_invariant_equals_sum_over_diagrams(genus, weights):
    profile = TangencyProfile(weights)
    for delta in divisors(profile.gcd_abs):
        for degree in range(1, 5):
            assert invariant(genus, degree, profile, delta) == (
                invariant_by_diagrams(genus, degree, profile, delta)
            ), (delta, degree)


@pytest.mark.parametrize("genus,weights", PINNED_PROFILES)
def test_closed_form_totals_equal_the_listing(genus, weights):
    # _shapes counts the completions of each closing branch in closed form;
    # the reference tallies the validated structures one at a time, on both
    # orientations of the profile and at every floor cap.
    from math import gcd

    from corgw.diagrams import _structures
    from corgw.search import _shapes

    for ws in (weights, tuple(-w for w in weights)):
        ws = tuple(sorted(ws))
        for cap in range(1, genus + 1):
            by_floors, sums = Counter(), Counter()
            for s in _structures(genus, ws, cap):
                by_floors[len(s.floor_indices)] += 1
                edge_gcd = gcd(*[e.w for e in s.edges])
                sums[edge_gcd, tuple(sorted(s.floor_valencies))] += s.weight_monomial
            shapes = _shapes(genus, ws, cap)
            closed = Counter()
            for _g, vals, n, _w in shapes:
                closed[len(vals)] += n
            assert closed == by_floors, (ws, cap)
            assert {(g, vals): w for g, vals, _n, w in shapes} == sums, (ws, cap)


def multiplicity_by_floor_walk(diagram, delta):
    """Reference for multiplicity: each floor's label and valency read off
    its own level, the product taken floor by floor in level order."""
    delta_d = diagram.delta_gcd(delta)
    core = ProjectorElement.unit(delta_d)
    for i, level in enumerate(diagram.levels):
        if level:
            val = sum((e.lo == i) + (e.hi == i) for e in diagram.edges)
            core = core * (level ** (val - 1) * bold_sigma(delta_d, level))
    lifted = core.to_dense().rebase(delta).divide(delta // delta_d)
    return lifted * diagram.weight_monomial


@pytest.mark.parametrize(
    "genus,weights", [(3, (2, 2, -2, -2)), (3, (3, 3, -3, -3)), (2, (2, 1, -3))]
)
def test_multiplicity_pairs_labels_with_valencies(genus, weights):
    profile = TangencyProfile(weights)
    for delta in divisors(profile.gcd_abs):
        for d in enumerate_diagrams(genus, 4, profile):
            assert multiplicity(d, delta) == multiplicity_by_floor_walk(d, delta)


@pytest.mark.parametrize("genus,weights", PINNED_PROFILES)
def test_count_equals_enumeration(genus, weights):
    profile = TangencyProfile(weights)
    for degree in range(1, 6):
        assert count_diagrams(genus, degree, profile) == len(
            enumerate_diagrams(genus, degree, profile)
        ), degree


@pytest.mark.parametrize("genus,weights", PINNED_PROFILES)
def test_enumeration_equals_checked_construction(genus, weights):
    # enumerate_diagrams relabels structures past the FloorDiagram check;
    # the checked constructor builds the same diagrams.
    profile = TangencyProfile(weights)
    for degree in range(1, 5):
        for d in enumerate_diagrams(genus, degree, profile):
            assert d == FloorDiagram(d.levels, d.edges), d.to_json()


def _refuse(*args):
    raise AssertionError("labelled diagram handled one at a time")


def test_count_builds_no_labelled_diagram(monkeypatch):
    # From cold search caches, the count and the invariant read the closing
    # branches only and build no FloorDiagram.  corgw.search never imports
    # corgw.diagrams, so the listing (enumerate_diagrams, validate) is out
    # of its reach; test_cli's test_diagrams_mode_loads_algebra_only_to_sum
    # checks that --count and --sum load no corgw.diagrams.
    from corgw import diagrams, search

    profile = TangencyProfile((2, 2, -2, -2))
    want = len(enumerate_diagrams(3, 5, profile))
    sums = {delta: invariant_by_diagrams(3, 5, profile, delta) for delta in (1, 2)}
    for cached in (search._closes, search._shapes, search._invariant_cached):
        cached.cache_clear()
    monkeypatch.setattr(diagrams.FloorDiagram, "__init__", _refuse)
    assert count_diagrams(3, 5, profile) == want
    assert {delta: invariant(3, 5, profile, delta) for delta in (1, 2)} == sums


def test_invariant_adds_once_per_class(monkeypatch):
    # The sum runs per class, as integer characters: no diagram is built or
    # weighed on its own, no refined divisor sum is read, and no element is
    # multiplied or added.
    from corgw import diagrams, refined, search

    genus, degree, delta = 3, 4, 2
    profile = TangencyProfile((2, 2, -2, -2))
    found = enumerate_diagrams(genus, degree, profile)
    want = invariant_by_diagrams(genus, degree, profile, delta)
    classes = {(d.delta_gcd(delta), d.floor_info) for d in found}
    assert len(classes) < len(found)

    search._invariant_cached.cache_clear()
    monkeypatch.setattr(diagrams, "multiplicity", _refuse)
    monkeypatch.setattr(diagrams, "_floor_core", _refuse)
    monkeypatch.setattr(refined, "bold_sigma", _refuse)
    monkeypatch.setattr(diagrams.FloorDiagram, "__init__", _refuse)
    for name in ("__add__", "__mul__", "__rmul__"):
        monkeypatch.setattr(ProjectorElement, name, _refuse)
    assert invariant(genus, degree, profile, delta) == want


def invariant_by_floor_cores(genus, degree, profile, delta):
    """Reference for the integer sum: the diagrams tallied by multiplicity
    class (delta_D, floor multiset), each class's _floor_core product taken
    in the algebra and scaled by the class's total W."""
    from corgw.diagrams import _floor_core

    classes = Counter()
    for d in enumerate_diagrams(genus, degree, profile):
        classes[d.delta_gcd(delta), tuple(sorted(d.floor_info))] += d.weight_monomial
    total = ProjectorElement.zero(delta)
    for (delta_d, floors), w_sum in classes.items():
        total = total + _floor_core(delta, delta_d, floors) * w_sum
    return total, {delta_d for delta_d, _f in classes}


# Profiles with gcd 4, 6 and 12 at a genus where some diagrams have
# delta_D < delta, so the sum reads characters at composite levels below
# the ambient one.
@pytest.mark.parametrize("genus,weights", [
    (3, (4, -4)), (4, (4, -4)), (3, (4, 4, -8)), (3, (12, -12)),
    (3, (6, 6, -6, -6)),
])
def test_integer_sum_equals_floor_core_classes(genus, weights):
    profile = TangencyProfile(weights)
    below = set()
    for delta in divisors(profile.gcd_abs):
        for degree in range(1, 5):
            want, levels = invariant_by_floor_cores(genus, degree, profile, delta)
            assert invariant(genus, degree, profile, delta) == want, (delta, degree)
            below |= {(delta, dd) for dd in levels if dd < delta}
    assert (profile.gcd_abs, 1) in below
    assert any(1 < dd < delta for delta, dd in below)


# SHA-256 of the newline-joined to_json of enumerate_diagrams below the
# genus, as the search without a floor cap produced it.
CAPPED_ENUMERATION_DIGESTS = {
    (3, 2, (2, 2, -2, -2)): (
        22, "b60da57d8f8750664eccebe809ff2e13b288db735b79be35810c78df7f92111d"),
    (4, 3, (2, 2, -4)): (
        220, "dc0f1f2d183151ae948207ea549605b1cd4c7a21acf56a5b3cab0be86b76b455"),
    (3, 2, (2, 2, 2, -6)): (
        60, "a0fda5630530927810192cbd6105c8891ad667d2e59ab9a7a0b378f15f7e9028"),
    (3, 2, (3, 3, -3, -3)): (
        42, "b176b51bc70bd8964c86bf62f97269698c09c4ef2e3fb63ec209d9bb0b9d5f1f"),
    (5, 3, (2, -2)): (
        2, "fd4b0af4f6e7ba0b6f3c551a0eb9dc770289e6bf40466b98adb1074e676b7fd8"),
    (4, 2, (4, -2, -2)): (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("genus,degree,weights", list(CAPPED_ENUMERATION_DIGESTS))
def test_enumeration_below_genus_pinned(genus, degree, weights):
    found = enumerate_diagrams(genus, degree, TangencyProfile(weights))
    text = "\n".join(d.to_json() for d in found)
    count, digest = CAPPED_ENUMERATION_DIGESTS[(genus, degree, weights)]
    assert len(found) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Profiles where some floors that must close pass over an open class of two
# edges of a sink weight (two 1s): (count, SHA-256 of the newline-joined
# to_json of enumerate_diagrams, character 1 of the invariant at delta = 1).
# Each listing equals the brute force of brute_force_candidates, and each
# invariant the sum of multiplicity over it; the brute force took 24.5 s and
# 25.1 s per orientation on a 2-vCPU VM (Python 3.11.7), too slow for
# test_totals_match_brute_force, so it ran once and its results are pinned.
CLOSING_PASS_OVER_PINS = {
    (2, 2, (-3, 1, 1, 1)): (
        37, "f97a5a3090b538919afde3ccf9a790a4dbd00a371c162b6a8f69e538d096bae5", 1080),
    (2, 2, (3, -1, -1, -1)): (
        37, "5539fde48a72c367cb44e11a16df6be04ce639f47fda77af9a61ff22182f7140", 1080),
}


@pytest.mark.parametrize("genus,degree,weights", list(CLOSING_PASS_OVER_PINS))
def test_closing_floor_passing_over_a_sink_class_pinned(genus, degree, weights):
    profile = TangencyProfile(weights)
    found = enumerate_diagrams(genus, degree, profile)
    text = "\n".join(d.to_json() for d in found)
    count, digest, character = CLOSING_PASS_OVER_PINS[(genus, degree, weights)]
    assert len(found) == count_diagrams(genus, degree, profile) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert invariant(genus, degree, profile, 1).character(1) == character


SURPLUS_PROFILES = list(dict.fromkeys(
    (genus, tuple(sorted(sign * w for w in weights)))
    for genus, weights in [*STRUCTURE_DIGESTS,
                           *((g, w) for g, _a, w in CLOSING_PASS_OVER_PINS)]
    for sign in (1, -1)
))


@pytest.mark.parametrize("genus,weights", SURPLUS_PROFILES)
def test_closing_surpluses_add_up_to_the_levels_left(genus, weights):
    # _children tests no sum of surpluses: once the closing floor has joined
    # every component they add up to the levels left, so the flats that
    # follow, each taking one from a positive surplus, end them all at 0.
    from corgw.search import _children, _closes, _walk

    n_levels = len(weights) + genus - 1
    for cap in range(1, genus + 1):
        children = partial(_children, n_levels, cap, {})
        for closed in _closes(genus, weights, cap):
            surplus = dict(closed.surplus)
            assert min(surplus.values()) >= 0
            assert sum(surplus.values()) == n_levels - len(closed.levels)
            last = _walk(closed, children, lambda state: len(state.levels) == n_levels)
            for s in last:
                assert not any(e for _r, e in s.surplus)


# -- two-flat cycle test against path enumeration ---------------------------


def _simple_paths(adj, x, y):
    """Internal-vertex sets of all simple paths from x to y."""
    path = []

    def dfs(v, visited):
        if v == y:
            yield frozenset(path)
            return
        for w in adj.get(v, ()):
            if w not in visited:
                if w != y:
                    path.append(w)
                yield from dfs(w, visited | {w})
                if w != y:
                    path.pop()

    yield from dfs(x, {x})


def two_flat_cycle_by_paths(diagram):
    """two_flat_cycle_in_graph on the graph of a diagram."""
    _, pairs = diagram._vertices_and_edges()
    return two_flat_cycle_in_graph(pairs, diagram.flat_indices)


def two_flat_cycle_in_graph(pairs, flats):
    """Reference for _has_two_flat_cycle: two flats share a simple cycle iff
    two paths between them have disjoint interiors.  Exponential time."""
    flats = sorted(flats)
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    adj = {v: sorted(ws) for v, ws in adj.items()}
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            internals = list(_simple_paths(adj, flats[i], flats[j]))
            for p in range(len(internals)):
                for q in range(p + 1, len(internals)):
                    if not (internals[p] & internals[q]):
                        return True
    return False


def has_two_flat_cycle(diagram):
    """_has_two_flat_cycle on the graph of a diagram, as validate calls it."""
    from corgw.search import _has_two_flat_cycle

    n, pairs = diagram._vertices_and_edges()
    return _has_two_flat_cycle(n, pairs, set(diagram.flat_indices))


def _structure_candidates(genus, weights, monkeypatch, max_floors, block_tests=None):
    """Every diagram the structure search hands to validate.  block_tests,
    when given, maps the name of the calling module to the (pairs, flats,
    verdict) of each of its two-flat tests: corgw.search's on partial
    graphs and corgw.diagrams' in validate.  Each module reads the name
    from its own globals, so both are patched."""
    from corgw import diagrams, search
    from corgw.diagrams import _structures
    from corgw.search import _closes, _has_two_flat_cycle

    _closes.cache_clear()  # so the search runs and its block tests are seen
    built = []

    def recording(diagram, *args):
        built.append(diagram)
        return validate(diagram, *args)

    def block_test(caller):
        def test(n, pairs, flats):
            verdict = _has_two_flat_cycle(n, pairs, flats)
            block_tests.setdefault(caller, []).append((list(pairs), set(flats), verdict))
            return verdict

        return test

    monkeypatch.setattr(diagrams, "validate", recording)
    if block_tests is not None:
        for module in (search, diagrams):
            monkeypatch.setattr(module, "_has_two_flat_cycle", block_test(module.__name__))
    tuple(_structures(genus, tuple(sorted(weights)), max_floors))
    monkeypatch.undo()
    return built


@pytest.mark.parametrize(
    "genus,degree,weights", BRUTE_FORCE_CASES + [(3, 2, (2, 2, -2, -2))]
)
def test_two_flat_cycle_matches_path_oracle(genus, degree, weights, monkeypatch):
    profile = TangencyProfile(weights)
    block_tests = {}
    built = _structure_candidates(genus, weights, monkeypatch, genus, block_tests)
    if (genus, degree, weights) in BRUTE_FORCE_CASES:
        built += list(brute_force_candidates(genus, degree, profile))
    assert built
    for d in built:
        assert has_two_flat_cycle(d) == two_flat_cycle_by_paths(d), d.to_json()
    # The search's cut on partial graphs, at the floors that close a cycle.
    # No brute-force case closes one; the added case is there to reach it.
    if (genus, degree, weights) not in BRUTE_FORCE_CASES:
        assert block_tests.get("corgw.search"), "no partial-graph test seen"
    for tests in block_tests.values():
        for pairs, flats, verdict in tests:
            assert verdict == two_flat_cycle_in_graph(pairs, flats), (pairs, flats)


@pytest.mark.parametrize(
    "genus,weights",
    list(STRUCTURE_DIGESTS) + [(g, w) for g, _a, w in BRUTE_FORCE_CASES]
    + [(2, (1,) * 8 + (-8,))],
)
def test_search_hands_validate_only_two_flat_cycles(genus, weights, monkeypatch):
    # The search cuts every clause as it goes, a cycle through two flats
    # where it closes, so validate, still the gate, accepts every candidate.
    profile = TangencyProfile(weights)
    built = _structure_candidates(genus, weights, monkeypatch, genus)
    assert built
    for d in built:
        ok, why = validate(d, genus, len(d.floor_indices), profile)
        assert ok, (why, d.to_json())


def test_listing_raises_on_a_structure_validate_rejects(monkeypatch, capsys):
    # validate gates the listing while the counts read the search alone, so
    # a structure it rejects is a search defect: the listing raises, naming
    # the clause, and the CLI reports an internal error, not a shorter list.
    from corgw import diagrams
    from corgw.cli import main

    monkeypatch.setattr(diagrams, "validate", lambda *args: (False, "connectivity"))
    with pytest.raises(AssertionError, match="failing connectivity"):
        enumerate_diagrams(2, 2, TangencyProfile((2, -2)))
    argv = ["diagrams", "--g", "2", "--a", "2", "--profile=2,-2", "--list"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert not out and "failing connectivity" in err


def test_two_flat_cycle_hand_built():
    def diagram(levels, edges):
        return FloorDiagram(
            tuple(int(c == "F") for c in levels),
            tuple(Edge(lo, hi, w) for lo, hi, w in edges),
        )

    cases = [
        # parallel floor-floor edges between two flat-capped floors
        (diagram("-FF-", [(BOTTOM, 0, 2), (0, 1, 2), (1, 2, 1), (1, 2, 1),
                          (2, 3, 2), (3, 4, 2)]), False),
        # a flat whose two in-edges both come from one floor
        (diagram("F-F-", [(BOTTOM, 0, 2), (0, 1, 1), (0, 1, 1), (1, 2, 2),
                          (2, 3, 2), (3, 4, 2)]), False),
        # parallel flat-flat edges collapse to one edge: no cycle
        (diagram("F--F", [(BOTTOM, 0, 2), (0, 1, 2), (1, 2, 1), (1, 2, 1),
                          (2, 3, 2), (3, 4, 2)]), False),
        # two one-flat cycles meeting at a cut floor: different blocks
        (diagram("F-F-F", [(BOTTOM, 0, 2), (0, 1, 1), (0, 2, 1), (1, 2, 1),
                           (2, 3, 1), (2, 4, 1), (3, 4, 1), (4, 5, 2)]),
         False),
        # the pinned cycle of test_validate_rejects_pinned_cycle
        (diagram("F--F", [(BOTTOM, 0, 2), (0, 1, 1), (0, 2, 1), (1, 3, 1),
                          (2, 3, 1), (3, 4, 2)]), True),
    ]
    for d, want in cases:
        assert has_two_flat_cycle(d) == two_flat_cycle_by_paths(d) == want


def test_cross_flow_on_enumerated():
    p = TangencyProfile((3, 1, -4))
    for d in enumerate_diagrams(2, 2, p):
        n = len(d.levels)
        for gap in range(n + 1):
            crossing = sum(e.w for e in d.edges if e.lo < gap <= e.hi)
            assert crossing == p.b


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_balancing_and_profile_fix_cross_flow(data):
    # Why validate has no cross-flow clause: once every level is balanced
    # and the ends match the profile, b crosses every gap.
    n = data.draw(st.integers(1, 5), label="levels")
    kinds = data.draw(st.text("F-", min_size=n, max_size=n), label="kinds")
    spans = data.draw(st.lists(
        st.tuples(st.integers(-1, n), st.integers(-1, n), st.integers(1, 3)),
        max_size=8), label="edges")

    edges = [(min(p, q), max(p, q), w) for p, q, w in spans if p != q]
    net = [0] * n
    for lo, hi, w in edges:
        if lo >= 0:
            net[lo] -= w
        if hi < n:
            net[hi] += w
    # Close every level with an end: surplus to the top, deficit from BOTTOM.
    edges += [(i, n, f) if f > 0 else (BOTTOM, i, -f)
              for i, f in enumerate(net) if f]
    d = _hand_built(kinds, edges)
    ends = d.profile()
    if not ends:
        return
    profile = TangencyProfile(ends)
    ok, why = validate(d, n - len(ends) + 1, d.degree, profile)
    assert ok or not why.startswith(("level-count", "balancing", "tangency"))
    for gap in range(n + 1):
        crossing = sum(e.w for e in d.edges if e.lo < gap <= e.hi)
        assert crossing == profile.b


def test_invariant_order_dependence():
    # with no correlator shift every term is a rational combination of the
    # projectors, so equal-order points carry equal coefficients
    from corgw.projector import point_order

    for (g, a, w, delta) in ((1, 2, 4, 4), (2, 2, 6, 6), (3, 2, 2, 2)):
        x = invariant(g, a, TangencyProfile((w, -w)), delta)
        by_order = {}
        for u in range(delta):
            for v in range(delta):
                r = point_order(delta, u, v)
                by_order.setdefault(r, set()).add(x.coefficient(u, v))
        assert all(len(vals) == 1 for vals in by_order.values())


def reflect(diagram: FloorDiagram) -> FloorDiagram:
    """The diagram turned upside down: levels reversed, each edge (lo, hi, w)
    sent to (R(hi), R(lo), w), where R sends every position x to n - 1 - x:
    level i to level n - 1 - i, and the bottom -1 and the top n to each
    other."""
    n = len(diagram.levels)
    edges = tuple(Edge(n - 1 - e.hi, n - 1 - e.lo, e.w) for e in diagram.edges)
    return FloorDiagram(diagram.levels[::-1], edges)


@pytest.mark.parametrize(
    "genus,weights",
    list(STRUCTURE_DIGESTS)
    + [(g, w) for g, _a, w in BRUTE_FORCE_CASES]
    + [(3, (2, 1, -3)), (5, (2, -2)), (3, (3, 3, -2, -2, -2))],
)
def test_reflection_duality(genus, weights):
    # Turning a diagram upside down swaps the sign of its profile, so the
    # reflection is a bijection between the structures of w and of -w, and
    # the invariants of the two profiles agree.
    from corgw.diagrams import _structures

    dual = tuple(-w for w in weights)
    found = tuple(_structures(genus, tuple(sorted(weights)), genus))
    assert {reflect(s) for s in found} == set(
        _structures(genus, tuple(sorted(dual)), genus))
    profile, dual_profile = TangencyProfile(weights), TangencyProfile(dual)
    for delta in divisors(profile.gcd_abs):
        for a in (1, 2, 3):
            assert invariant(genus, a, profile, delta) == invariant(
                genus, a, dual_profile, delta), (delta, a)


# -- the refinement as a multiple-cover formula ------------------------------


def exponent_sum(diagram: FloorDiagram) -> int:
    """Sum of the edge exponents k_e and of v - 1 over the floor valencies v.

    It is c = 2(2g - 2 + n) on every valid diagram of genus g with n ends.
    Let F be the floors, f the flats, L = F + f = n + g - 1 the levels, E_b
    the bounded edges and ff the edges joining two flats.
    - Genus: g = b1 + F with b1 = (|E_b| + n) - (L + n) + 1, so
      |E_b| = g + f - 1.
    - Forest: with the flats deleted, the floors and the n end vertices
      form a forest of n trees, one per end, so it has F edges:
      |E_b| + n - (2f - ff) = F.  With the genus count, ff = L - (n+g-1) = 0.
    - So 2f edges touch a flat and |E_b| + n - 2f do not:
      sum k_e = |E_b| + 2(|E_b| + n - 2f).  Every flat is bivalent, so the
      floor valencies sum to 2|E_b| + n - 2f and sum (v - 1) to that less F.
    - In all, 5|E_b| + 3n - 6f - F = 5g - 5 + 3n - L = 2(2g - 2 + n).
    """
    return sum(diagram.edge_exponents) + sum(v - 1 for v in diagram.floor_valencies)


# Scalings left out for run time: each took 0.5-11 s on a 2-vCPU VM, most
# of it searching every floor cap up to four.
SLOW_SCALINGS = {
    (6, (2, -2), 3), (6, (2, -2), 6), (4, (4, -2, -2), 6),
    (3, (2, 2, 2, -6), 6), (4, (2, 2, -4), 6),
}
# Every pinned profile scaled by 2, 3 and 6, less SLOW_SCALINGS.
MULTIPLE_COVER_CASES = [
    (genus, tuple(scale * w for w in weights))
    for genus, weights in PINNED_PROFILES
    for scale in (2, 3, 6)
    if (genus, weights, scale) not in SLOW_SCALINGS
]


@pytest.mark.parametrize("genus,weights", MULTIPLE_COVER_CASES)
def test_refinement_is_a_multiple_cover_formula(genus, weights):
    # chi_m(invariant(g, a, w, delta)) = e^c invariant(g, a/e, w/e, 1) with
    # e = delta/m, and 0 when e does not divide a.  The two sides run the
    # searches of w and of w/e.  Only the diagrams whose edge weights e
    # divides reach chi_m; they are those of w/e scaled by e, and
    # exponent_sum is why they scale by e^c.
    from corgw.diagrams import _structures

    c = 2 * (2 * genus - 2 + len(weights))
    profile = TangencyProfile(weights)
    # The structures the invariants below read: at a <= 4, those of at
    # most four floors.
    for s in _structures(genus, tuple(sorted(weights)), min(4, genus)):
        assert exponent_sum(s) == c, s.to_json()
    for delta in divisors(profile.gcd_abs):
        for a in range(1, 5):
            x = invariant(genus, a, profile, delta)
            for m in divisors(delta):
                e = delta // m
                divided = TangencyProfile(tuple(w // e for w in weights))
                want = 0 if a % e else e ** c * invariant(
                    genus, a // e, divided, 1).total_mass
                assert x.character(m) == want, (delta, a, m)
