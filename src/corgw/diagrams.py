"""Floor diagrams for curves in a P1-bundle over an elliptic curve.

A floor diagram is a totally ordered, weighted, oriented graph recording
the combinatorial type of a curve in a maximal degeneration of E x P1:
floors are genus-one components carrying a class label a_V, flat vertices
are marked genus-zero fiber components, and infinite ends carry the
tangency profile.  One marked point lives on every floor or flat vertex,
so a diagram for genus g and an n-end profile has exactly n + g - 1
ordered levels, one vertex per level.

A diagram is plain integers.  A level is its floor label, or 0 for a flat
vertex.  An edge endpoint is a position: BOTTOM = -1 for the bottom
boundary, 0..n-1 for the levels and n for the top.  Only the JSON form names
the boundaries, as "B" and "T".

This module holds the diagram value, its validity clauses, the per-diagram
multiplicity and the listing, which completes the states of the structure
search (search).  The multiplicity takes values in the torsion group
algebra: a division-average of the product of refined divisor sums of the
floor labels, times a monomial in the edge weights.  The average is a
projector times the same product at level delta (_floor_core).  The totals
(count_diagrams, invariant, invariants) are read off the search without
building a diagram and live in search; they are re-exported here.
"""

from __future__ import annotations

from functools import partial
from math import gcd, prod
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

from .arith import Frozen
from .search import (
    BOTTOM,
    TangencyProfile,
    _check_level_count,
    _children,
    _closes,
    _compositions_asc,
    _has_two_flat_cycle,
    _search_key,
    _walk,
)

# Re-exported: the totals are the same objects as in search, so a caller
# (or a patch) that reaches them through diagrams reaches search's.
from .search import _invariant_cached, count_diagrams, invariant, invariants  # noqa: F401

# projector and refined are imported where used, by multiplicity, the
# per-diagram reference, so the listing loads no algebra.
if TYPE_CHECKING:
    from .projector import ProjectorElement


class Edge(Frozen):
    """Weighted edge between the positions BOTTOM <= lo < hi <= n of a
    diagram with n levels."""

    __slots__ = ("lo", "hi", "w")


class FloorDiagram(Frozen):
    __slots__ = ("levels", "edges")
    _json_weights = True  # whether to_json writes each edge's "w"

    def __init__(self, levels: tuple[int, ...], edges: tuple[Edge, ...]) -> None:
        # Checked before sorting: the sort key compares endpoints as ints.
        _structural_check(levels, edges)
        # Canonical edge order so that equal diagrams compare equal.
        super().__init__(levels, tuple(sorted(edges, key=attrgetter("lo", "hi", "w"))))

    # -- basic derived data -------------------------------------------

    @property
    def floor_indices(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.levels) if a)

    @property
    def flat_indices(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.levels) if not a)

    @property
    def degree(self) -> int:
        """Curve class in the elliptic direction: sum of floor labels."""
        return sum(self.levels)

    def profile(self) -> tuple[int, ...]:
        """Induced tangency multiset, positives for sinks, sorted."""
        n = len(self.levels)
        out = []
        for e in self.edges:
            if e.lo < 0:
                out.append(-e.w)
            if e.hi == n:
                out.append(e.w)
        return tuple(sorted(out))

    @property
    def floor_valencies(self) -> tuple[int, ...]:
        """Valency of each floor, in level order."""
        # Slots n and n + 1 (index -1) count the ends at the top and bottom.
        val = [0] * (len(self.levels) + 2)
        for e in self.edges:
            val[e.lo] += 1
            val[e.hi] += 1
        return tuple(val[i] for i in self.floor_indices)

    @property
    def floor_info(self) -> tuple[tuple[int, int], ...]:
        """Sorted multiset of (label, valency) over the floors."""
        labels = (a for a in self.levels if a)
        return tuple(sorted(zip(labels, self.floor_valencies)))

    def delta_gcd(self, delta: int) -> int:
        return gcd(delta, *[e.w for e in self.edges])

    @property
    def bounded_edges(self) -> tuple[Edge, ...]:
        """Edges with both endpoints at levels."""
        n = len(self.levels)
        return tuple(e for e in self.edges if e.lo >= 0 and e.hi < n)

    @property
    def edge_exponents(self) -> tuple[int, ...]:
        """Exponent of each edge weight in the weight monomial: one if the
        edge is bounded, plus two if it has no flat endpoint."""
        n = len(self.levels)
        flats = set(self.flat_indices)
        return tuple(
            (e.lo >= 0 and e.hi < n) + 2 * (e.lo not in flats and e.hi not in flats)
            for e in self.edges
        )

    @property
    def weight_monomial(self) -> int:
        """Product of w_e ** k_e over the edges, k_e from edge_exponents."""
        return prod(e.w ** k for e, k in zip(self.edges, self.edge_exponents))

    # -- graph structure ------------------------------------------------

    def _vertices_and_edges(self) -> tuple[int, list[tuple[int, int]]]:
        """Vertex count and edges as id pairs: levels 0..n-1, then one per end."""
        top = n = len(self.levels)
        pairs = []
        for e in self.edges:
            lo, hi = e.lo, e.hi
            if lo < 0:
                lo, n = n, n + 1
            if hi == top:
                hi, n = n, n + 1
            pairs.append((lo, hi))
        return n, pairs

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """A level is {"kind": "floor", "a": label} or {"kind": "flat"}; an
        endpoint is a level index, "B" for the bottom or "T" for the top."""
        name = {BOTTOM: "B", len(self.levels): "T"}
        return {
            "levels": [{"kind": "floor", "a": a} if a else {"kind": "flat"}
                       for a in self.levels],
            "edges": [
                {"lo": name.get(e.lo, e.lo), "hi": name.get(e.hi, e.hi), "w": e.w}
                for e in self.edges
            ],
        }

    def to_json(self, separators: tuple[str, str] = (",", ":")) -> str:
        """json.dumps(self.to_json_dict(), separators=separators)."""
        comma, colon = separators
        name = {BOTTOM: '"B"', len(self.levels): '"T"'}
        levels = comma.join(
            f'{{"kind"{colon}"floor"{comma}"a"{colon}{a}}}' if a
            else f'{{"kind"{colon}"flat"}}'
            for a in self.levels
        )
        edges = []
        for e in self.edges:
            lo, hi = name.get(e.lo, e.lo), name.get(e.hi, e.hi)
            w = f'{comma}"w"{colon}{e.w}' if self._json_weights else ""
            edges.append(f'{{"lo"{colon}{lo}{comma}"hi"{colon}{hi}{w}}}')
        return (
            f'{{"levels"{colon}[{levels}]{comma}'
            f'"edges"{colon}[{comma.join(edges)}]}}'
        )


def _level_from_json(lv: dict) -> int:
    if lv["kind"] == "flat":
        return 0
    if lv["kind"] != "floor":
        raise ValueError(f"unknown level kind {lv['kind']!r}")
    if type(lv["a"]) is not int or lv["a"] < 1:
        raise ValueError(f"floor label must be an integer >= 1, got {lv['a']!r}")
    return lv["a"]


def _from_json(data: dict) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Levels and (lo, hi) edge pairs of a diagram's parsed JSON.

    "B" and "T" read as BOTTOM and the top.  An integer endpoint must be a
    level index, so neither boundary enters as one, and a floor label must
    be >= 1, so no flat enters as a floor.  Other endpoints are left to the
    FloorDiagram check.
    """
    levels = tuple(map(_level_from_json, data["levels"]))
    n = len(levels)

    def end(x):
        if x == "B":
            return BOTTOM
        if x == "T":
            return n
        if type(x) is int and not 0 <= x < n:
            raise ValueError(f"edge endpoint {x} out of range")
        return x

    return levels, tuple((end(e["lo"]), end(e["hi"])) for e in data["edges"])


def _components(n: int, pairs) -> list[int]:
    """Union-find on the vertices 0..n-1: the root of each vertex."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(v) for v in range(n)]


# -- validation ----------------------------------------------------------


def _structural_check(levels: tuple, edges: tuple[Edge, ...]) -> None:
    """Raise on malformed input (bad references, bad data, too many levels)."""
    n = len(levels)
    if n == 0:
        raise ValueError("diagram has no levels")
    _check_level_count(n)
    for a in levels:
        if type(a) is not int or a < 0:
            raise ValueError(f"level label must be an integer >= 0, got {a!r}")
    for e in edges:
        for end in (e.lo, e.hi):
            if type(end) is not int:
                raise ValueError(f"bad endpoint {end!r}")
            if not BOTTOM <= end <= n:
                raise ValueError(f"edge endpoint {end} out of range")
        if e.w < 1:
            raise ValueError(f"edge weight must be >= 1, got {e.w}")
        if e.lo >= e.hi:
            raise ValueError(f"edge {e} must go strictly upward")


def validate(
    diagram: FloorDiagram,
    genus: int,
    degree: int,
    profile: TangencyProfile,
) -> tuple[bool, str | None]:
    """Check every diagram invariant; report the first violated clause.

    Malformed structure (dangling edge references, bad weights) already
    raised in the FloorDiagram constructor; everything else returns
    (False, clause-name).  The clauses, in order: level-count, balancing
    at level i, flat bivalency at level i, tangency profile, connectivity,
    genus, class, the two forest clauses and cycle through two flat
    vertices.
    """
    n_levels = len(diagram.levels)

    if n_levels != len(profile.weights) + genus - 1:
        return False, "level-count"

    # One pass over the edges: net flow and in/out degree per level, and
    # the induced profile.
    net = [0] * n_levels
    n_in = [0] * n_levels
    n_out = [0] * n_levels
    ends = []
    for e in diagram.edges:
        if e.lo < 0:
            ends.append(-e.w)
        else:
            net[e.lo] -= e.w
            n_out[e.lo] += 1
        if e.hi == n_levels:
            ends.append(e.w)
        else:
            net[e.hi] += e.w
            n_in[e.hi] += 1

    for i in range(n_levels):
        if net[i]:
            return False, f"balancing at level {i}"

    flats = diagram.flat_indices
    for i in flats:
        if n_in[i] != 1 or n_out[i] != 1:
            return False, f"flat bivalency at level {i}"

    if sorted(ends) != sorted(profile.weights):
        return False, "tangency profile"

    # No cross-flow clause: balancing and the profile fix every gap's flow at b.

    n_verts, pairs = diagram._vertices_and_edges()
    if len(set(_components(n_verts, pairs))) > 1:
        return False, "connectivity"

    # Graph genus with floors counted once: first Betti number + #floors.
    b1 = len(pairs) - n_verts + 1
    if b1 + n_levels - len(flats) != genus:
        return False, "genus"

    if diagram.degree != degree:
        return False, "class"

    # Forest condition: delete flats (edges to them become stubs); every
    # remaining component must be acyclic with exactly one infinite end.
    # A graph is a forest iff #edges = #vertices - #components.  The ends
    # are the vertices from n_levels on; each flat stays a lone root.
    flat_set = set(flats)
    keep_pairs = [(a, b) for a, b in pairs if a not in flat_set and b not in flat_set]
    roots = _components(n_verts, keep_pairs)
    kept = {r for v, r in enumerate(roots) if v not in flat_set}
    if len(keep_pairs) != n_verts - len(flats) - len(kept):
        return False, "forest: cycle avoiding all flats"
    if sorted(roots[n_levels:]) != sorted(kept):
        return False, "forest: component without a unique infinite end"

    # Every cycle must carry exactly one flat vertex.  Cycles with none are
    # already excluded above; cycles through two or more flats have all
    # their fiber chains pinned by point constraints, leave no gluing
    # parameter, and contribute zero.
    if _has_two_flat_cycle(n_verts, pairs, flat_set):
        return False, "cycle through two flat vertices"

    return True, None


# -- multiplicity ----------------------------------------------------------


def _floor_core(delta: int, delta_d: int, floors: tuple[tuple[int, int], ...]):
    """Division-averaged product of refined divisor sums over the floors.

    floors is a multiset of (label, valency) pairs.  The product is taken
    at level delta_d and averaged over k-th roots, k = delta/delta_d, which
    reads chi_m = chi_(m/k) of it where k | m and 0 elsewhere.  Since
    chi_(m/k)(bold_sigma(delta_d, a)) = chi_m(bold_sigma(delta, a)), that is
    theta(delta, k) times the same product at level delta, computed here.
    """
    from .projector import ProjectorElement
    from .refined import bold_sigma

    core = ProjectorElement(delta, {delta // delta_d: 1})
    for a_v, val in floors:
        core = core * (a_v ** (val - 1) * bold_sigma(delta, a_v))
    return core


def multiplicity(diagram: FloorDiagram, delta: int) -> ProjectorElement:
    """Correlated multiplicity of a floor diagram at refinement level delta.

    The division-averaged floor product of _floor_core at delta_D, scaled
    by the weight monomial: bounded edges contribute w_e, and edges without
    a flat endpoint contribute w_e^2 on top.
    """
    TangencyProfile(diagram.profile()).check_delta(delta)
    core = _floor_core(delta, diagram.delta_gcd(delta), diagram.floor_info)
    return core * diagram.weight_monomial


# -- enumeration -----------------------------------------------------------


def _structures(
    genus: int, weights: tuple[int, ...], max_floors: int
) -> Iterator[FloorDiagram]:
    """All diagram structures (floor labels stripped to 1) for a profile:
    the completions of each closing state of _closes, in order, walked by
    _children to the last level.  The search cuts every clause, so validate
    rejecting one is a defect of the search: it raises AssertionError
    naming the clause."""
    profile = TangencyProfile(weights)
    n_levels = len(profile.weights) + genus - 1
    children = partial(_children, n_levels, max_floors, {})  # flats read no sinks
    edge: dict = {}  # one Edge per (lo, hi, w): the structures share most
    for closed in _closes(genus, weights, max_floors):
        for s in _walk(closed, children, lambda state: len(state.levels) == n_levels):
            tops = [(key[1], n_levels, key[0]) for key, c in s.opens for _ in range(c)]
            diagram = FloorDiagram(s.levels, tuple(
                [edge.get(e) or edge.setdefault(e, Edge(*e)) for e in (*s.edges, *tops)]
            ))
            ok, why = validate(diagram, genus, diagram.degree, profile)
            if not ok:
                raise AssertionError(f"search built {diagram.to_json()}, failing {why}")
            yield diagram


def enumerate_diagrams(
    genus: int, degree: int, profile: TangencyProfile
) -> list[FloorDiagram]:
    """Every valid floor diagram for the given genus, class and profile.

    Floor labels run over the compositions of the class on each structure
    _structures yields, which touches no validity clause, and keep its
    checked, sorted edges, so they skip the FloorDiagram check; a structure
    validate rejects raises AssertionError.  Output order is deterministic:
    structure discovery order, then labels ascending lexicographically.
    """
    out: list[FloorDiagram] = []
    for struct in _structures(*_search_key(genus, degree, profile.weights)):
        idx = struct.floor_indices
        for labels in _compositions_asc(degree, len(idx)):
            levels = list(struct.levels)
            for i, a_v in zip(idx, labels):
                levels[i] = a_v
            diagram = object.__new__(FloorDiagram)
            Frozen.__init__(diagram, tuple(levels), struct.edges)
            out.append(diagram)
    return out
