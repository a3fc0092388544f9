import json
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from corgw.arith import divisors
from corgw.diagrams import (
    BOTTOM,
    FloorDiagram,
    TangencyProfile,
    enumerate_diagrams,
    multiplicity,
)
from corgw.polyfit import (
    DiagramTemplate,
    direct_sum_over_weightings,
    flow_degrees_of_freedom,
    gamma_coeffs,
    interpolate,
    invariant_by_template,
    poly_degree,
    poly_eval,
    polynomial_fit,
    weightings,
)
from corgw.projector import ProjectorElement, theta_coordinates
from corgw.refined import bold_sigma
from corgw.torsion import GroupAlgebraElement, convolve, theta
from test_diagrams import BRUTE_FORCE_CASES, STRUCTURE_DIGESTS
from test_torsion import dense_theta_coordinates


def template_of(diagram: FloorDiagram) -> DiagramTemplate:
    """The template of a diagram: its levels and edges, weights erased."""
    pairs = tuple((e.lo, e.hi) for e in diagram.edges)
    return DiagramTemplate(diagram.levels, pairs)


def adjacency_matrix(template: DiagramTemplate) -> list[list[int]]:
    """Signed incidence matrix: rows vertices (levels, then one infinite
    vertex per end edge), columns edges; +1 where an edge ends, -1 where it
    starts.  A @ omega is the divergence at every vertex."""
    n = len(template.levels)
    ends = [
        ("end", j)
        for j, e in enumerate(template.edges)
        for side in (e.lo, e.hi)
        if side in (BOTTOM, n)
    ]
    rows = [("level", i) for i in range(n)] + ends
    index = {r: k for k, r in enumerate(rows)}
    mat = [[0] * len(template.edges) for _ in rows]
    for j, e in enumerate(template.edges):
        lo, hi = e.lo, e.hi
        lo_row = index[("level", lo)] if lo >= 0 else index[("end", j)]
        hi_row = index[("level", hi)] if hi < n else index[("end", j)]
        mat[lo_row][j] -= 1
        mat[hi_row][j] += 1
    return mat


def rank_flow_dimension(template: DiagramTemplate) -> int:
    """Reference flow dimension: bounded columns minus the rank of the level
    rows of the incidence matrix restricted to them, by exact Gaussian
    elimination."""
    n = len(template.levels)
    cols = [j for j, e in enumerate(template.edges) if e.lo >= 0 and e.hi < n]
    full = adjacency_matrix(template)
    rows = [[Fraction(full[i][j]) for j in cols] for i in range(n)]
    rank = 0
    for col in range(len(cols)):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = Fraction(1) / pr[col]
        rows[rank] = [x * inv for x in pr]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return len(cols) - rank


def second_kind_template(a1=2, a2=2):
    levels = (0, a1, 0, a2)
    edges = ((BOTTOM, 0), (0, 1), (1, 2), (1, 3), (2, 3), (3, 4))
    return DiagramTemplate(levels, edges)


def chain_template(a1=1):
    levels = (a1, 0)
    edges = ((BOTTOM, 0), (0, 1), (1, 2))
    return DiagramTemplate(levels, edges)


def test_adjacency_matrix_basics():
    t = chain_template()
    mat = adjacency_matrix(t)
    assert all(sum(col) == 0 for col in zip(*mat))
    single = DiagramTemplate((1,), ((BOTTOM, 0), (0, 1)))
    mat = adjacency_matrix(single)
    cols = list(zip(*mat))
    assert sorted(cols[0]) == [-1, 0, 1] and sorted(cols[1]) == [-1, 0, 1]


def test_adjacency_unimodular_spot_checks():
    t = second_kind_template()
    mat = adjacency_matrix(t)
    n = len(mat)
    m = len(mat[0])
    import itertools

    def det3(rows, cols):
        a = [[mat[r][c] for c in cols] for r in rows]
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )

    for rows in itertools.combinations(range(n), 3):
        for cols in itertools.combinations(range(m), 3):
            assert det3(rows, cols) in (-1, 0, 1)


def test_weightings_two_parallel_edges():
    t = second_kind_template()
    for w in range(2, 11):
        got = weightings(t, TangencyProfile((w, -w)))
        assert len(got) == w - 1
        for omega in got:
            assert all(x >= 1 for x in omega)
            # divergence zero at levels
            mat = adjacency_matrix(t)
            for i in range(len(t.levels)):
                assert sum(m * x for m, x in zip(mat[i], omega)) == 0


def test_weightings_chain_unique():
    t = chain_template()
    for w in (1, 3, 7):
        got = weightings(t, TangencyProfile((w, -w)))
        assert got == [(w, w, w)]


def test_weightings_at_the_level_bound():
    # One floor, then MAX_LEVELS - 1 flats: the walk over the levels keeps
    # its own stack, so it holds from a caller 600 frames deep.
    from corgw.search import MAX_LEVELS
    from test_cli import call_at_depth

    pairs = ((BOTTOM, 0),) + tuple((i, i + 1) for i in range(MAX_LEVELS))
    t = DiagramTemplate((1,) + (0,) * (MAX_LEVELS - 1), pairs)
    got = call_at_depth(600, weightings, t, TangencyProfile((3, -3)))
    assert got == [(3,) * (MAX_LEVELS + 1)]


@pytest.mark.parametrize("values", [
    (), (1,), (1, 1), (2, 1), (1, 1, 2), (3, 1, 2), (2, 2, 1, 1), (1, 3, 1, 2, 1),
    (4, 4, 4), (5, 1, 5, 1, 3), (1, 2, 3, 4, 5), (2, 1, 2, 1, 2, 1),
])
def test_orders_are_the_distinct_permutations(values):
    from itertools import permutations

    from corgw.polyfit import _orders

    assert list(_orders(values)) == sorted(set(permutations(values)))


@pytest.mark.parametrize("k", [12, 40])
def test_weightings_with_many_equal_sources(k):
    # k sources of weight 1 into one floor have one order, not k! orders.
    t = DiagramTemplate((1,), ((BOTTOM, 0),) * k + ((0, 1),))
    assert weightings(t, TangencyProfile((-1,) * k + (k,))) == [(1,) * k + (k,)]


def brute_weightings(t, profile):
    b = profile.b
    n_edges = len(t.edges)
    mat = adjacency_matrix(t)
    out = set()
    bottoms = [j for j, e in enumerate(t.edges) if e.lo == BOTTOM]
    tops = [j for j, e in enumerate(t.edges) if e.hi == len(t.levels)]
    for omega in product(range(1, b + 1), repeat=n_edges):
        if sorted(omega[j] for j in bottoms) != list(profile.sources):
            continue
        if sorted(omega[j] for j in tops) != list(profile.sinks):
            continue
        if all(
            sum(m * x for m, x in zip(mat[i], omega)) == 0
            for i in range(len(t.levels))
        ):
            out.add(tuple(omega))
    return out


def test_weightings_against_brute_force():
    t = second_kind_template()
    for w in (2, 4, 6):
        got = set(weightings(t, TangencyProfile((w, -w))))
        assert got == brute_weightings(t, TangencyProfile((w, -w)))
    # a template with several ends and repeated weights
    t2 = DiagramTemplate(
        (1, 0),
        ((BOTTOM, 0), (BOTTOM, 0), (0, 1), (0, 2), (1, 2)),
    )
    p2 = TangencyProfile((2, 2, -2, -2))
    assert set(weightings(t2, p2)) == brute_weightings(t2, p2)


def test_gamma_coeffs_prime_and_identity():
    t = second_kind_template(1, 2)
    for delta in (2, 3):
        gam = gamma_coeffs(t, delta)
        phi1 = gam[1]
        # gamma_1 is the floor product at level 1 averaged to level delta
        scal = 1
        for a_v, val in t.floor_info:
            from corgw.arith import sigma

            scal *= a_v ** (val - 1) * sigma(a_v)
        assert phi1 == scal * theta(delta, delta)
        # defining identity: partial sums reproduce the level-e floor core
        for e in divisors(delta):
            acc = ProjectorElement.zero(delta)
            for d in divisors(e):
                acc = acc + gam[d]
            core = GroupAlgebraElement.unit(e)
            for a_v, val in t.floor_info:
                core = convolve(core, a_v ** (val - 1) * bold_sigma(e, a_v))
            lifted = core.rebase(delta).divide(delta // e)
            assert acc == lifted


def test_gamma_coeffs_returns_a_fresh_dict():
    # The gammas of the last (template, delta) are cached for the samples
    # of one fit; a caller's edits must not reach the next caller.
    t = chain_template(2)
    want = gamma_coeffs(t, 12)
    got = gamma_coeffs(t, 12)
    assert got == want and got is not want
    got.clear()
    assert gamma_coeffs(t, 12) == want
    assert gamma_coeffs(second_kind_template(), 12) != want


def test_gamma_defining_identity_delta12():
    t = chain_template(2)
    gam = gamma_coeffs(t, 12)
    for e in divisors(12):
        acc = ProjectorElement.zero(12)
        for d in divisors(e):
            acc = acc + gam[d]
        core = GroupAlgebraElement.unit(e)
        for a_v, val in t.floor_info:
            core = convolve(core, a_v ** (val - 1) * bold_sigma(e, a_v))
        assert acc == core.rebase(12).divide(12 // e)


def test_route_equivalence():
    # At composite delta the samples are multiples of delta, so the
    # weightings fall into several buckets gcd(delta, omega), and each
    # gamma_d sums every bucket that d divides.
    cases = [(delta, w) for delta in (1, 2) for w in (2, 4, 6, 8)] + [
        (delta, k * delta) for delta in (3, 4, 6, 12) for k in (1, 2, 3)
    ]
    gcds = {delta: set() for delta, _ in cases}
    for a1, a2 in ((1, 1), (1, 2), (2, 2)):
        t = second_kind_template(a1, a2)
        for delta, w in cases:
            p = TangencyProfile((w, -w))
            gcds[delta] |= {math.gcd(delta, *omega) for omega in weightings(t, p)}
            assert invariant_by_template(t, p, delta) == direct_sum_over_weightings(
                t, p, delta
            )
    assert all(gcds[delta] == set(divisors(delta)) for delta in gcds)


def test_templates_rebuild_full_invariant():
    # summing per-template invariants over all templates of the class
    # reproduces the diagram-sum invariant
    for (g, a, w, delta) in ((2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 4, 2), (1, 2, 6, 3)):
        p = TangencyProfile((w, -w))
        seen = set()
        total = ProjectorElement.zero(delta)
        for d in enumerate_diagrams(g, a, p):
            t = template_of(d)
            key = t.to_json()
            if key in seen:
                continue
            seen.add(key)
            total = total + invariant_by_template(t, p, delta)
        from corgw.diagrams import invariant

        assert total == invariant(g, a, p, delta)


def newton_interpolate(points):
    """Reference interpolant: Newton divided differences over Fractions,
    expanded to monomial coefficients, trailing zeros stripped."""
    xs = [Fraction(x) for x, _ in points]
    dd = [Fraction(y) for _, y in points]
    n = len(points)
    newton = []
    for level in range(n):
        newton.append(dd[0])
        dd = [
            (dd[i + 1] - dd[i]) / (xs[i + level + 1] - xs[i])
            for i in range(len(dd) - 1)
        ]
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for level in range(n):
        for k in range(n):
            coeffs[k] += newton[level] * basis[k]
        if level < n - 1:
            shifted = [Fraction(0)] * n
            for k in range(n - 1):
                shifted[k + 1] += basis[k]
                shifted[k] -= xs[level] * basis[k]
            basis = shifted
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_interpolate_matches_newton_reference():
    rng = random.Random(20)
    for _ in range(1200):
        n = rng.randint(1, 12)
        # Distinct nodes, negative and unevenly spaced.
        xs = rng.sample(range(-40, 41), n)
        ys = [
            Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3, 7, 12, 35)))
            for _ in xs
        ]
        if rng.random() < 0.2:
            ys = [Fraction(0)] * n  # the zero polynomial keeps one zero
        points = list(zip(xs, ys))
        coeffs = interpolate(points)
        assert coeffs == newton_interpolate(points)
        assert all(type(c) is Fraction for c in coeffs)
        assert all(poly_eval(coeffs, x) == y for x, y in points)
        for x in (-3, 0, 5, 101):
            assert poly_eval(coeffs, x) == horner(coeffs, x)


def test_interpolate_and_eval():
    pts = [(1, Fraction(1)), (2, Fraction(4)), (3, Fraction(9))]
    coeffs = interpolate(pts)
    assert coeffs == [Fraction(0), Fraction(0), Fraction(1)]
    assert poly_eval(coeffs, 7) == 49
    assert poly_degree(coeffs) == 2
    const = interpolate([(5, Fraction(3))])
    assert const == [Fraction(3)]


def test_theta_coordinates():
    def basis(d):
        return ProjectorElement(6, {d: 1})

    x = 3 * basis(2) + Fraction(1, 2) * basis(3) - 2 * basis(1)
    dense = 3 * theta(6, 2) + Fraction(1, 2) * theta(6, 3) - 2 * theta(6, 1)
    assert x == dense
    for coords in (theta_coordinates(x), dense_theta_coordinates(dense)):
        assert coords[2] == 3 and coords[3] == Fraction(1, 2) and coords[1] == -2
        assert coords[6] == 0
    with pytest.raises(ValueError):
        dense_theta_coordinates(GroupAlgebraElement(6, {(1, 0): 1}))


def test_flow_degrees_of_freedom():
    assert flow_degrees_of_freedom(second_kind_template()) == 1
    assert flow_degrees_of_freedom(chain_template()) == 0


@pytest.mark.parametrize(
    "genus,weights",
    list(STRUCTURE_DIGESTS) + [(g, w) for g, _a, w in BRUTE_FORCE_CASES],
)
def test_flow_dimension_is_incidence_corank(genus, weights):
    # The Betti number of the bounded subgraph equals the Gaussian-elimination
    # corank of the incidence matrix on every template of the profile.
    from corgw.diagrams import _structures

    for struct in _structures(genus, tuple(sorted(weights)), genus):
        t = template_of(struct)
        assert flow_degrees_of_freedom(t) == rank_flow_dimension(t), t.to_json()


@pytest.mark.parametrize(
    "genus,weights",
    list(STRUCTURE_DIGESTS) + [(g, w) for g, _a, w in BRUTE_FORCE_CASES],
)
def test_template_json_omits_weights_and_round_trips(genus, weights):
    from corgw.diagrams import _structures

    for struct in _structures(genus, tuple(sorted(weights)), genus):
        t = template_of(struct)
        for sep in ((",", ":"), (", ", ": ")):
            text = t.to_json(sep)
            assert text == json.dumps(t.to_json_dict(), separators=sep)
            assert '"w"' not in text
            assert DiagramTemplate.from_json(text) == t


def test_template_edges_held_in_canonical_order():
    t = second_kind_template(2, 2)
    pairs = [(e.lo, e.hi) for e in t.edges]
    shuffled = DiagramTemplate(t.levels, tuple(reversed(pairs)))
    assert shuffled == t and shuffled.edges == t.edges
    assert [(e.lo, e.hi) for e in shuffled.edges] == pairs
    assert isinstance(t, FloorDiagram) and {e.w for e in t.edges} == {1}
    fit = list(range(2, 21, 2))
    reports = [
        json.dumps(polynomial_fit(x, 2, fit, [22, 24], (2, 0)).to_json_dict())
        for x in (t, shuffled)
    ]
    assert reports[0] == reports[1]


def test_gammas_cache_keyed_by_template_value():
    # A template read from JSON and one rebuilt from its reversed edge
    # pairs are one cache key; another template is a different key, so
    # fields read as () would make the first fit below a hit.  From an
    # empty per-sample cache the first fit computes the gammas once, the
    # rebuilt template's fit reads every sample's value from that cache,
    # and its own gammas are a _gammas hit.
    from corgw.polyfit import _gammas

    t = DiagramTemplate.from_json(second_kind_template(2, 2).to_json())
    rebuilt = DiagramTemplate(
        t.levels, tuple((e.lo, e.hi) for e in reversed(t.edges))
    )
    invariant_by_template.cache_clear()
    gamma_coeffs(chain_template(2), 2)
    misses = _gammas.cache_info().misses
    fit = list(range(2, 21, 2))
    first = polynomial_fit(t, 2, fit, [22, 24], (2, 0))
    assert _gammas.cache_info().misses == misses + 1
    before = invariant_by_template.cache_info()
    second = polynomial_fit(rebuilt, 2, fit, [22, 24], (2, 0))
    after = invariant_by_template.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (12, 0)
    assert first == second and first.ok
    gammas = _gammas.cache_info()
    assert gamma_coeffs(rebuilt, 2) == gamma_coeffs(t, 2)
    assert _gammas.cache_info().hits == gammas.hits + 2
    assert _gammas.cache_info().misses == misses + 1


def test_template_shares_diagram_weight_monomial():
    t = second_kind_template(1, 3)
    omega = (4, 3, 1, 2, 1, 4)
    # The product invariant_by_template takes for each weighting.
    monomial = math.prod(w ** k for w, k in zip(omega, t.edge_exponents))
    assert monomial == t.with_weights(omega).weight_monomial
    assert t.monomial_degree == sum(t.edge_exponents) == 8


@pytest.mark.parametrize(
    "edges",
    [((BOTTOM, 7), (0, 2)), ((BOTTOM, 0), (0, "Q")), ((BOTTOM, 0), (0, 2), (1, 0))],
)
def test_template_rejects_bad_edges(edges):
    with pytest.raises(ValueError):
        DiagramTemplate((1, 0), edges)


def test_polynomial_fit_rejects_samples_below_one():
    t = chain_template()
    with pytest.raises(ValueError, match="samples must be >= 1"):
        polynomial_fit(t, 1, [-1, -2, -3, -4, -5], [-6, -7])
    with pytest.raises(ValueError, match="samples must be >= 1"):
        polynomial_fit(t, 1, [0, 1, 2, 3], [4])


def test_polynomial_fit_rejects_empty_fit_or_holdout():
    # One fit point and no holdout point would pass vacuously.
    t = chain_template()
    with pytest.raises(ValueError, match="at least one fit and one holdout"):
        polynomial_fit(t, 1, [2], [])
    with pytest.raises(ValueError, match="at least one fit and one holdout"):
        polynomial_fit(t, 1, [], [2])


def test_polynomial_fit_rejects_holdout_repeating_fit_point():
    t = chain_template()
    with pytest.raises(ValueError, match=r"holdout samples \[2, 5\] repeat"):
        polynomial_fit(t, 1, [1, 2, 3, 4, 5], [5, 6, 2])


def test_polynomial_fit_rejects_template_without_weighting():
    # Two ends from BOTTOM: no weighting induces the two-end profile (w, -w).
    t = DiagramTemplate(
        (1, 0),
        ((BOTTOM, 0), (BOTTOM, 0), (0, 1), (1, 2)),
    )
    with pytest.raises(ValueError, match="admits no weighting"):
        polynomial_fit(t, 1, [1, 2, 3, 4, 5], [6, 7])


def test_polynomial_fit_rejects_non_diagram_shape():
    # The flat has two in-edges: weightings exist, but it is no floor diagram.
    t = DiagramTemplate(
        (1, 0),
        ((BOTTOM, 0), (0, 1), (0, 1), (1, 2)),
    )
    assert weightings(t, TangencyProfile((2, -2)))
    with pytest.raises(ValueError, match="flat bivalency at level 1"):
        polynomial_fit(t, 1, [1, 2, 3, 4, 5], [6, 7])


def test_polynomial_fit_chain():
    t = chain_template()
    rep = polynomial_fit(t, 1, [1, 2, 3, 4, 5], [6, 7])
    assert rep.ok
    coord = rep.coordinates[0]
    # multiplicity of the chain is w^3: pure cubic
    assert coord.coeffs == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))


def second_kind_high_template(a1=2, a2=2):
    # The second-kind template with the flats above their floors.
    levels = (a1, 0, a2, 0)
    edges = ((BOTTOM, 0), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4))
    return DiagramTemplate(levels, edges)


ACCEPTANCE_TEMPLATES = [second_kind_template(), second_kind_high_template()]


@pytest.mark.parametrize("delta", [1, 2, 4])
@pytest.mark.parametrize("template", ACCEPTANCE_TEMPLATES)
def test_cached_template_invariant_equals_cold_and_direct(template, delta):
    # A stored value is what a cold resummation and the uncached direct
    # route compute, whether the first or a later read fills the entry.
    invariant_by_template.cache_clear()
    for w in (4, 8, 12, 4, 8):
        profile = TangencyProfile((w, -w))
        cached = invariant_by_template(template, profile, delta)
        assert cached == invariant_by_template.__wrapped__(template, profile, delta)
        assert cached == direct_sum_over_weightings(template, profile, delta)
    info = invariant_by_template.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 3, 3)
    assert not hasattr(direct_sum_over_weightings, "cache_info")


@pytest.mark.parametrize("template", ACCEPTANCE_TEMPLATES)
def test_polynomial_fit_json_same_cold_and_warm(template):
    from corgw.polyfit import _gammas

    def fit_json():
        report = polynomial_fit(template, 2, list(range(2, 21, 2)), [22, 24], (2, 0))
        return json.dumps(report.to_json_dict())

    invariant_by_template.cache_clear()
    _gammas.cache_clear()
    cold = fit_json()
    hits = invariant_by_template.cache_info().hits
    assert fit_json() == cold
    assert invariant_by_template.cache_info().hits == hits + 12


def test_template_invariant_cache_stays_bounded():
    # More distinct keys than the bound: the cache evicts, never grows past it.
    bound = invariant_by_template.cache_info().maxsize
    assert bound == 256
    invariant_by_template.cache_clear()
    t = chain_template()
    for w in range(1, bound + 40):
        invariant_by_template(t, TangencyProfile((w, -w)), 1)
        assert invariant_by_template.cache_info().currsize <= bound
    assert invariant_by_template.cache_info().currsize == bound


def test_polynomial_fit_second_kind_even_chamber():
    t = second_kind_template(2, 2)
    fit = list(range(2, 21, 2))
    rep = polynomial_fit(t, 2, fit, [22, 24], chamber=(2, 0))
    assert rep.ok
    assert rep.degree_bound == 9
    assert {c.degree for c in rep.coordinates} == {9}


def test_polynomial_fit_chamber_mismatch():
    t = second_kind_template(2, 2)
    with pytest.raises(ValueError):
        polynomial_fit(t, 2, [2, 4, 6], [8], chamber=(4, 0))


def test_polynomial_fit_mixed_parity_fails_for_delta1_split():
    # mixing chambers makes the samples non-polynomial: with delta=2 only
    # even w are admissible, so emulate the failure with an underdetermined
    # fit: 9 points cannot pin the degree-9 truth
    t = second_kind_template(2, 2)
    rep = polynomial_fit(t, 2, list(range(4, 21, 2)), [22, 24], chamber=(2, 0))
    assert not rep.ok


def test_template_json_round_trip():
    t = second_kind_template(1, 3)
    assert DiagramTemplate.from_json(t.to_json()) == t
    d = t.with_weights((4, 4, 1, 3, 1, 4))
    assert isinstance(d, FloorDiagram)
    assert multiplicity(d, 2) is not None


BENCH_TEMPLATES = Path(__file__).parents[1] / "perfbench" / "templates"

# (template file, delta, fit samples, holdout samples, chamber).  The last
# case is the underdetermined fit of the CLI's exit-3 test: its holdout fails.
ROUTE_CASES = [
    (name, delta, fit, holdout, chamber)
    for name in ("second_kind_low", "second_kind_high")
    for delta in (1, 2)
    for fit, holdout, chamber in (
        (list(range(2, 21, 2)), [22, 24], (2, 0)),
        (list(range(2, 40, 4)), [42, 46], (4, 2)),
    )
] + [("second_kind_low", 2, list(range(4, 21, 2)), [22, 24], None)]


@pytest.mark.parametrize("name, delta, fit, holdout, chamber", ROUTE_CASES)
def test_polynomial_fit_matches_public_route(name, delta, fit, holdout, chamber):
    # The integer fit reports what the public Fraction route reads: interpolate
    # on theta_coordinates, then poly_eval at the holdout points.
    template = DiagramTemplate.from_json((BENCH_TEMPLATES / f"{name}.json").read_text())
    report = polynomial_fit(template, delta, fit, holdout, chamber)

    def coords(w):
        profile = TangencyProfile((w, -w))
        return theta_coordinates(invariant_by_template(template, profile, delta))

    fit_coords = [coords(w) for w in fit]
    holdout_coords = [coords(w) for w in holdout]
    verdicts = []
    for got, d in zip(report.coordinates, divisors(delta), strict=True):
        coeffs = interpolate([(w, c[d]) for w, c in zip(fit, fit_coords)])
        degree = poly_degree(coeffs)
        ok = degree <= report.degree_bound and all(
            poly_eval(coeffs, w) == c[d] for w, c in zip(holdout, holdout_coords)
        )
        assert (got.divisor, got.coeffs, got.degree) == (d, tuple(coeffs), degree)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got.holdout_ok is ok
        verdicts.append(ok)
    assert report.ok is all(verdicts)
    assert report.ok is (chamber is not None)
