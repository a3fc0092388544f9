"""Piecewise-polynomial structure of the invariants in the tangency orders.

A diagram template is a floor diagram whose edge weights all read 1; the
1s stand for the family of its positive weightings.  Its edges come in the
diagram's canonical order, and column j of a weighting is edge j.  The
admissible weightings are the positive lattice points of the flow polytope
cut out by the signed incidence matrix; once the end weights are fixed,
the polytope has the dimension of the first Betti number of the levels
joined by the bounded edges.  Summing the weight monomial over weightings restricted to
gcd classes, with group-algebra coefficients obtained from a Moebius-style
triangular system, rebuilds the per-template invariant and exposes it as a
polynomial in the tangency order on each divisibility chamber.  Polynomial
identification is exact interpolation in Lagrange form over one integer
denominator, with held-out validation points.

The fit operates on the two-end profile family (w, -w): a template must
weight to a valid floor diagram of that family.  Richer profile grids would
need the full chamber complex, which is out of scope.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Iterator, Sequence

from .arith import Frozen, divisors
from .diagrams import (
    FloorDiagram,
    _components,
    _floor_core,
    _from_json,
    multiplicity,
    validate,
)
from .projector import ProjectorElement
from .search import (
    TangencyProfile,
    _check_genus_and_degree,
    _compositions_asc,
    _walk,
)


class DiagramTemplate(FloorDiagram):
    """Floor diagram whose edge weights all read 1, standing for the family
    of its positive weightings; orientation and labels are kept.

    Built from (lo, hi) endpoint pairs and held as (lo, hi, 1) edges, which
    are checked as a diagram's are (ValueError otherwise) and kept in its
    canonical order; its JSON is a diagram's without the "w"s.
    """

    __slots__ = ()
    _json_weights = False

    def __init__(self, levels: tuple, edges: tuple[tuple, ...]) -> None:
        super().__init__(levels, tuple((lo, hi, 1) for lo, hi in edges))

    def __reduce__(self):
        # __init__ takes (lo, hi) pairs, not the (lo, hi, 1) edges it stores.
        return type(self), (self.levels, tuple((lo, hi) for lo, hi, _ in self.edges))

    def with_weights(self, omega: Sequence[int]) -> FloorDiagram:
        if len(omega) != len(self.edges):
            raise ValueError("weight vector length mismatch")
        return FloorDiagram(
            self.levels,
            tuple((lo, hi, w) for (lo, hi, _), w in zip(self.edges, omega)),
        )

    @property
    def monomial_degree(self) -> int:
        return sum(self.edge_exponents)

    @classmethod
    def from_json(cls, text: str) -> "DiagramTemplate":
        return cls(*_from_json(json.loads(text)))


def weightings(
    template: DiagramTemplate, profile: TangencyProfile
) -> list[tuple[int, ...]]:
    """All strictly positive integer weightings inducing the profile.

    The vector is indexed by template.edges.  End weights realize the
    profile multisets on the source and sink edges; bounded weights are
    propagated level by level, each level's outgoing flow enumerated as a
    composition of its incoming flow.
    """
    return list(_weightings(template, profile))


def _weightings(
    template: DiagramTemplate, profile: TangencyProfile
) -> Iterator[tuple[int, ...]]:
    n = len(template.levels)
    bottom_cols, top_cols = [], []
    # Per level: the edges into it, its bounded out-edges, its edges to the top.
    in_cols, out_bounded, out_top = ([[] for _ in range(n)] for _ in range(3))
    for j, (lo, hi, _) in enumerate(template.edges):
        if lo < 0:
            bottom_cols.append(j)
        else:
            (out_top if hi == n else out_bounded)[lo].append(j)
        if hi == n:
            top_cols.append(j)
        else:
            in_cols[hi].append(j)
    if (len(bottom_cols), len(top_cols)) != (len(profile.sources), len(profile.sinks)):
        return

    def children(level: int) -> Iterator[int]:
        # The walk is depth first, so omega holds every weight below level.
        get = omega.__getitem__
        rest = sum(map(get, in_cols[level])) - sum(map(get, out_top[level]))
        cols = out_bounded[level]
        if not cols:
            if rest == 0:
                yield level + 1
            return
        for parts in _compositions_asc(rest, len(cols)):
            for j, w in zip(cols, parts):
                omega[j] = w
            yield level + 1

    for src in _orders(profile.sources):
        for snk in _orders(profile.sinks):
            omega = [0] * len(template.edges)
            for j, w in zip(bottom_cols + top_cols, src + snk):
                omega[j] = w
            for _ in _walk(0, children, n.__eq__):
                yield tuple(omega)


def _orders(values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The distinct orders of the multiset values, lexicographically: each
    step of the walk places one of the distinct values left."""
    def children(state):
        placed, left = state
        for v in dict.fromkeys(left):
            i = left.index(v)
            yield placed + (v,), left[:i] + left[i + 1:]

    start = ((), tuple(sorted(values)))
    return (placed for placed, _left in _walk(start, children, lambda s: not s[1]))


def gamma_coeffs(
    template: DiagramTemplate, delta: int
) -> dict[int, ProjectorElement]:
    """Summation-by-parts coefficients for the gcd-stratified weighting sum.

    Solves, smallest divisors first, the triangular system requiring that
    for every possible weighting gcd e | delta the partial sums of the
    gammas reproduce the division-averaged floor product at level e.
    """
    if delta < 1:
        raise ValueError(f"expected delta >= 1, got {delta}")
    return dict(_gammas(template, delta))


# polynomial_fit resums one template at every sample w, and the gammas
# depend only on (template, delta), so one cached entry serves a whole fit.
@lru_cache(maxsize=1)
def _gammas(
    template: DiagramTemplate, delta: int
) -> tuple[tuple[int, ProjectorElement], ...]:
    floors = template.floor_info
    gammas: dict[int, ProjectorElement] = {}
    zero = ProjectorElement.zero(delta)
    for e in divisors(delta):
        lower = [gammas[d] for d in divisors(e) if d != e]
        gammas[e] = _floor_core(delta, e, floors) - sum(lower, zero)
    return tuple(gammas.items())


# polynomial_fit reads one value per sample, and a long-lived process refits
# the same templates at the same or overlapping samples; the values are
# immutable ProjectorElements, so the cached ones are shared as they are.
@lru_cache(maxsize=256)
def invariant_by_template(
    template: DiagramTemplate, profile: TangencyProfile, delta: int
) -> ProjectorElement:
    """Per-template invariant via the gamma resummation.

    sum over d | delta of gamma_d times the weight-monomial sum over
    weightings omega with d | gcd(delta, omega), bucketed by that gcd.
    Equals the direct sum of multiplicities over the same weightings.
    Cached by value: a template read again from JSON is the same key.
    """
    profile.check_delta(delta)
    exponents = template.edge_exponents
    by_gcd: dict[int, int] = {}
    for omega in weightings(template, profile):
        g = gcd(delta, *omega)
        by_gcd[g] = by_gcd.get(g, 0) + prod(map(pow, omega, exponents))
    gammas = gamma_coeffs(template, delta)
    total = ProjectorElement.zero(delta)
    for d in divisors(delta):
        s = sum(v for g, v in by_gcd.items() if g % d == 0)
        if s:
            total = total + gammas[d] * s
    return total


def direct_sum_over_weightings(
    template: DiagramTemplate, profile: TangencyProfile, delta: int
) -> ProjectorElement:
    """Reference route: sum of diagram multiplicities over all weightings."""
    zero = ProjectorElement.zero(delta)
    omegas = weightings(template, profile)
    return sum((multiplicity(template.with_weights(w), delta) for w in omegas), zero)


def flow_degrees_of_freedom(template: DiagramTemplate) -> int:
    """Dimension of the space of flows once the end weights are fixed.

    That is the bounded edge count less the rank of the level rows of the
    incidence matrix restricted to them.  An oriented incidence matrix of a
    graph with n vertices and c components has rank n - c, so this is the
    first Betti number of the levels joined by the bounded edges.
    """
    bounded = template.bounded_edges
    n = len(template.levels)
    roots = _components(n, [(lo, hi) for lo, hi, _ in bounded])
    return len(bounded) - n + len(set(roots))


def _check_shape(template: DiagramTemplate, samples: Sequence[int]) -> None:
    """Raise unless the template, weighted at the first sample w that admits
    a weighting of (w, -w), is a valid floor diagram of its genus."""
    for w in samples:
        profile = TangencyProfile((w, -w))
        omega = next(_weightings(template, profile), None)
        if omega is not None:
            diagram = template.with_weights(omega)
            genus = len(template.levels) - 1
            _check_genus_and_degree(genus, diagram.degree)
            ok, clause = validate(diagram, genus, diagram.degree, profile)
            if not ok:
                raise ValueError(f"template is not a floor diagram: {clause}")
            return
    raise ValueError(f"template admits no weighting at samples {list(samples)}")


# -- exact polynomial helpers ----------------------------------------------


def interpolate(points: Sequence[tuple[int, Fraction]]) -> list[Fraction]:
    """Monomial coefficients of the unique minimal-degree interpolant, as
    Fractions: the integer numerators of _lagrange over its denominator."""
    xs = [x for x, _ in points]
    bad = [x for x in xs if not isinstance(x, int)]
    if bad:
        raise ValueError(f"interpolation nodes must be ints, got {bad}")
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    nums, den = _lagrange(xs, [Fraction(y) for _, y in points])
    return [Fraction(c, den) for c in nums]


def _lagrange(
    xs: Sequence[int], ys: Sequence[int | Fraction]
) -> tuple[list[int], int]:
    """The interpolant through the distinct int nodes xs and the exact
    values ys, as integer numerators of its monomial coefficients (lowest
    degree first, trailing zeros dropped down to one) over one positive
    integer denominator.  Lagrange form: basis numerator i is
    prod_j (x - x_j) divided synthetically by (x - x_i), over the weight
    prod_{j != i} (x_i - x_j)."""
    master = [1]  # coefficients, lowest degree first
    for xj in xs:
        master = [a - xj * b for a, b in zip([0, *master], [*master, 0])]
    dens = [
        prod(xi - xj for xj in xs if xj != xi) * y.denominator
        for xi, y in zip(xs, ys)
    ]
    den = lcm(*dens)
    coeffs = [0] * len(xs)
    for xi, y, d in zip(xs, ys, dens):
        scale, carry = y.numerator * (den // d), 0
        for k in range(len(xs) - 1, -1, -1):
            carry = master[k + 1] + xi * carry
            coeffs[k] += scale * carry
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs, den


def poly_eval(coeffs: Sequence[Fraction], x: int) -> Fraction:
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    return Fraction(_horner(nums, x), den)


def _horner(coeffs: Sequence[int], x: int) -> int:
    """The integer polynomial with coefficients coeffs, lowest degree
    first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_degree(coeffs: Sequence[int | Fraction]) -> int:
    deg = -1
    for k, c in enumerate(coeffs):
        if c:
            deg = k
    return deg


class CoordinateFit(Frozen):
    __slots__ = ("divisor", "coeffs", "degree", "holdout_ok")


class PolyFitReport(Frozen):
    __slots__ = (
        "ok", "delta", "chamber", "degree_bound", "fit_points",
        "holdout_points", "coordinates",
    )

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "delta": self.delta,
            "chamber": list(self.chamber) if self.chamber else None,
            "degree_bound": self.degree_bound,
            "fit_points": list(self.fit_points),
            "holdout_points": list(self.holdout_points),
            "coordinates": {
                str(c.divisor): {
                    "coeffs": [f"{x.numerator}/{x.denominator}" for x in c.coeffs],
                    "degree": c.degree,
                    "holdout_ok": c.holdout_ok,
                }
                for c in self.coordinates
            },
        }


def polynomial_fit(
    template: DiagramTemplate,
    delta: int,
    fit_ws: Sequence[int],
    holdout_ws: Sequence[int],
    chamber: tuple[int, int] | None = None,
) -> PolyFitReport:
    """Exact polynomial identification of the per-template invariant.

    Interpolates each projector coordinate of w -> invariant on the fit
    points of the two-end profile (w, -w), checks the interpolant's degree
    against the structural bound (monomial degree plus flow dimension), and
    validates it exactly on the held-out points.  Both point lists must be
    non-empty, samples must be >= 1 and multiples of delta >= 1, no sample
    may appear twice (within a list or across them), and the template,
    weighted at the first sample that admits a weighting, must be a valid
    floor diagram; otherwise the fit would pass vacuously.
    """
    if not fit_ws or not holdout_ws:
        raise ValueError("need at least one fit and one holdout sample")
    samples = (*fit_ws, *holdout_ws)
    bad = [w for w in samples if w < 1]
    if bad:
        raise ValueError(f"samples must be >= 1, got {bad}")
    for name, ws in (("fit", fit_ws), ("holdout", holdout_ws)):
        repeated = sorted({w for w in ws if ws.count(w) > 1})
        if repeated:
            raise ValueError(f"{name} samples {repeated} are repeated")
    repeated = sorted(set(fit_ws) & set(holdout_ws))
    if repeated:
        raise ValueError(f"holdout samples {repeated} repeat fit samples")
    if chamber is not None:
        mod, res = chamber
        if mod < 1:
            raise ValueError(f"chamber modulus must be >= 1, got {mod}")
        if not 0 <= res < mod:
            raise ValueError(f"chamber residue {res} lies outside [0, {mod})")
        bad = [w for w in samples if w % mod != res]
        if bad:
            raise ValueError(f"samples {bad} lie outside chamber {chamber}")
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    bad = [w for w in samples if w % delta]
    if bad:
        raise ValueError(f"samples {bad} are not multiples of delta={delta}")
    _check_shape(template, samples)
    bound = template.monomial_degree + flow_degrees_of_freedom(template)

    def coords_at(w: int) -> dict[int, int | Fraction]:
        value = invariant_by_template(
            template, TangencyProfile((w, -w)), delta
        )
        return value._coords()

    fit_data = [coords_at(w) for w in fit_ws]
    holdout_data = [coords_at(w) for w in holdout_ws]
    fits = []
    ok = True
    for d in divisors(delta):
        nums, den = _lagrange(fit_ws, [c[d] for c in fit_data])
        degree = poly_degree(nums)
        good = degree <= bound and all(
            _horner(nums, w) * c[d].denominator == c[d].numerator * den
            for w, c in zip(holdout_ws, holdout_data)
        )
        ok = ok and good
        coeffs = tuple(Fraction(c, den) for c in nums)
        fits.append(CoordinateFit(d, coeffs, degree, good))
    return PolyFitReport(
        ok, delta, chamber, bound, tuple(fit_ws), tuple(holdout_ws), tuple(fits)
    )
