"""Truncated generating series in the curve-class direction.

Series are exact and normalization-free: a series (GASeries) is just its
list of group-algebra coefficients for q^1 .. q^N, in the projector basis.
Quasi-modularity of the invariant series is verified structurally:
factorization_check compares a given series against the template route,
which writes it as a sum over diagram templates of division-averaged
products of the building-block series sum_a a^(k) bold_sigma(d, a) q^a,
i.e. exhibits membership in the ring generated by the shifted Eisenstein
blocks sum_a sigma_bar^d(a) q^a.  A template is a FloorDiagram whose 1s
stand for a family: its floor labels here (templates_for, weights kept),
its edge weights in polyfit (DiagramTemplate).
Templates with equal sorted floor valencies share one product at level
delta, weighted by the sum of W theta(delta, delta/delta_T) over them, so
each valency multiset costs one Cauchy chain.
"""

from __future__ import annotations

from functools import reduce

from .arith import Frozen
from .diagrams import FloorDiagram, _structures
from .projector import ProjectorElement, _class_text
from .refined import bold_sigma
from .search import TangencyProfile, _search_key, invariants


class GASeries(Frozen):
    """Truncated q-series with ProjectorElement coefficients for q^1..q^N."""

    __slots__ = ("delta", "coeffs")

    def __init__(self, delta: int, coeffs: tuple[ProjectorElement, ...]) -> None:
        for c in coeffs:
            if c.delta != delta:
                raise ValueError("coefficient level mismatch")
        super().__init__(delta, coeffs)

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    def coefficient(self, a: int) -> ProjectorElement:
        """Coefficient of q^a, 1-indexed."""
        return self.coeffs[a - 1]

    def cauchy(self, other: "GASeries") -> "GASeries":
        """Cauchy product; both factors start at q^1, truncation preserved."""
        if self.delta != other.delta or self.truncation != other.truncation:
            raise ValueError("series shape mismatch")
        n = self.truncation
        out = [ProjectorElement(self.delta)] * n
        for i in range(1, n + 1):
            x = self.coeffs[i - 1]
            for j in range(1, n - i + 1):
                out[i + j - 1] = out[i + j - 1] + x * other.coeffs[j - 1]
        return GASeries(self.delta, tuple(out))


def invariant_series(
    genus: int, profile: TangencyProfile, delta: int, truncation: int
) -> GASeries:
    """Series of diagram-summed invariants in the class direction: the
    coefficient of q^a is search.invariant(genus, a, profile, delta),
    all read off one structure search (search.invariants).
    """
    return GASeries(delta, tuple(invariants(genus, profile, delta, truncation)))


def templates_for(genus: int, profile: TangencyProfile) -> list[FloorDiagram]:
    """Weight-carrying templates: the structures _structures yields for the
    profile, floor labels all 1, stably sorted by floor count.

    The structures are those of class genus, which carries every one.  A
    template with F floors is valid for every labeling with a_V >= 1, so
    each labelled diagram of the profile comes from exactly one template.
    """
    structures = _structures(*_search_key(genus, genus, profile.weights))
    return sorted(structures, key=lambda s: len(s.floor_indices))


def _template_route(
    templates: list[FloorDiagram], delta: int, truncation: int
) -> list[ProjectorElement]:
    """The series summed over the templates, q^1..q^N at level delta.

    A template's series is W times the division-averaged Cauchy product of
    the blocks sum_a a^(val-1) bold_sigma(delta_T, a) q^a over its floors;
    as in diagrams._floor_core, that is W theta(delta, delta/delta_T) times
    the product of the level-delta blocks.  So templates with equal sorted
    valencies share one Cauchy chain, weighted by the sum of their W
    theta(delta, delta/delta_T).  The chains multiply ProjectorElements
    of bold_sigma, while invariant adds integer divisor sums per
    character, so the two routes factorization_check compares share no
    arithmetic.
    """
    shapes: dict[tuple[int, ...], ProjectorElement] = {}
    for t in templates:
        valencies = tuple(sorted(t.floor_valencies))
        w = ProjectorElement(delta, {delta // t.delta_gcd(delta): t.weight_monomial})
        shapes[valencies] = shapes.get(valencies, ProjectorElement.zero(delta)) + w
    blocks = {
        val: GASeries(
            delta,
            tuple(
                a ** (val - 1) * bold_sigma(delta, a) for a in range(1, truncation + 1)
            ),
        )
        for val in {val for valencies in shapes for val in valencies}
    }
    total = [ProjectorElement.zero(delta)] * truncation
    for valencies, weight in shapes.items():
        prod = reduce(GASeries.cauchy, [blocks[val] for val in valencies])
        total = [x + c * weight for x, c in zip(total, prod.coeffs)]
    return total


def factorization_check(
    genus: int, profile: TangencyProfile, series: GASeries
) -> tuple[list[FloorDiagram], int | None]:
    """Verify the per-template factorization of the given invariant series.

    Rebuilds the series by the template route (_template_route, one Cauchy
    chain per valency multiset) and compares it coefficient by coefficient
    with series.  Returns the templates summed, in templates_for order, and
    the first a whose q^a coefficients differ, or None.  An empty series
    would pass vacuously and is rejected.
    """
    if series.truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {series.truncation}")
    profile.check_delta(series.delta)
    templates = templates_for(genus, profile)
    route = _template_route(templates, series.delta, series.truncation)
    mismatch = next(
        (a for a, (x, y) in enumerate(zip(route, series.coeffs), 1) if x != y), None
    )
    return templates, mismatch


def write_series_csv(series: GASeries, fh) -> None:
    """One row per a; one column per support point; cells are num/den.

    A coefficient is constant on the points of each order, so the columns
    are the points whose order is nonzero in some coefficient, and the
    header and each row are laid out from one text per order class along
    the distinct rows of orders (projector._class_text).  The format is
    that of csv.writer: "\r\n" line ends, and only the header's "(u,v)"
    cells, which hold a comma, in double quotes.
    """
    delta = series.delta
    orders = {r for c in series.coeffs for r, x in c.order_values().items() if x}
    # Every order r | delta has points, so the cells are empty only when
    # orders is, and the header and rows are then "a" and a alone.
    sep = "," if orders else ""
    columns = _class_text(delta, dict.fromkeys(orders, ""), '"({},', '{})"', ",")
    fh.write(f"a{sep}{columns}\r\n")
    for a, c in enumerate(series.coeffs, 1):
        values = c.order_values()
        text = {r: f"{values[r].numerator}/{values[r].denominator}" for r in orders}
        fh.write(f"{a}{sep}{_class_text(delta, text, '', '', ',')}\r\n")
