"""The structure search for floor diagrams, and the totals read off it.

A floor diagram (see diagrams) for genus g and an n-end profile has
n + g - 1 ordered levels, one floor or flat vertex per level.  The search
builds the diagrams level by level with their floor labels stripped to 1,
as states of a partial graph (_State, _children), and _closes keeps each
branch at the floor that closes its genus deficit.  Only flats follow that
floor, so the totals need no diagram: _shapes counts the completions of
each closing state by shape, count_diagrams counts the labelled diagrams
and invariant sums their multiplicities.

An edge endpoint is a position: BOTTOM = -1 for the bottom boundary,
0..n-1 for the levels and n for the top.

The correlated invariant is the sum over all diagrams of a multiplicity
with values in the torsion group algebra (diagrams.multiplicity), so it
lies in the span of the projectors and is carried in that basis.  Its
characters depend on delta only through e = delta/m: with delta_D the gcd
of delta and the edge weights, chi_m(theta(delta, delta/delta_D))
= [e | delta_D], and chi_m(bold_sigma(delta, a)) = sigma(a/e) if e | a,
else 0.  So invariant adds plain integers per e until its output.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache, partial
from itertools import accumulate, product
from math import comb, factorial, gcd, prod
from operator import or_
from typing import TYPE_CHECKING, Iterator

from .arith import Frozen, divisors, sigma

# projector is imported where used, by _from_e, so the structure modes load
# no algebra.
if TYPE_CHECKING:
    from .projector import ProjectorElement

BOTTOM = -1

# Most levels a diagram may have.  _walk keeps its own stack, so the bound
# holds however deep the caller is.
MAX_LEVELS = 500


class TangencyProfile(Frozen):
    """Nonzero integer tangency orders summing to zero."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[int, ...]) -> None:
        if not weights:
            raise ValueError("profile must be non-empty")
        if any(w == 0 for w in weights):
            raise ValueError("profile entries must be non-zero")
        if sum(weights) != 0:
            raise ValueError(f"profile must sum to zero, got {weights}")
        super().__init__(weights)

    @property
    def b(self) -> int:
        """Total positive flow b(w)."""
        return sum(w for w in self.weights if w > 0)

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(sorted(-w for w in self.weights if w < 0))

    @property
    def sinks(self) -> tuple[int, ...]:
        return tuple(sorted(w for w in self.weights if w > 0))

    @property
    def gcd_abs(self) -> int:
        return gcd(*self.weights)

    def check_delta(self, delta: int) -> None:
        """Raise unless the torsion level delta >= 1 divides the profile gcd."""
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        if self.gcd_abs % delta:
            raise ValueError(
                f"delta={delta} must divide the profile gcd {self.gcd_abs}"
            )


def _check_level_count(n_levels: int) -> None:
    if n_levels > MAX_LEVELS:
        raise ValueError(f"{n_levels} levels exceed the bound of {MAX_LEVELS}")


def _blocks(adj: list[set]) -> list[set]:
    """Vertex sets of the biconnected blocks of a simple graph, adj[v] the
    neighbours of vertex v.

    Iterative depth-first search with low points (Hopcroft-Tarjan), linear
    in the size of the graph.  A bridge is a block of two vertices.
    """
    depth = [-1] * len(adj)
    low = depth[:]
    blocks = []
    for root in range(len(adj)):
        if depth[root] >= 0:
            continue
        depth[root] = low[root] = 0
        visited = [root]
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if depth[w] < 0:
                    depth[w] = low[w] = depth[v] + 1
                    visited.append(w)
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent:
                    low[v] = min(low[v], depth[w])
            else:
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= depth[parent]:
                    block = {parent}
                    while True:
                        u = visited.pop()
                        block.add(u)
                        if u == v:
                            break
                    blocks.append(block)
    return blocks


def _has_two_flat_cycle(n: int, pairs, flats: set) -> bool:
    """True when some simple cycle of the graph on the vertices 0..n-1 with
    edges pairs passes through two distinct vertices of flats.

    Parallel edges are collapsed.  Two vertices lie on a common simple
    cycle exactly when they share a block with at least three vertices
    (Whitney/Menger).
    """
    if len(flats) < 2:
        return False
    adj: list[set] = [set() for _ in range(n)]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return any(len(block) >= 3 and len(block & flats) >= 2 for block in _blocks(adj))


# -- search ---------------------------------------------------------------


def _partitions_desc(m: int, cap: int, most: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m into at most `most` parts, each in [1, cap], in
    decreasing-lex order.  Recursing once per part is safe: the parts are
    one floor's out-edges, and an input with many would never finish."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, cap), 0, -1):
        if first * most < m:
            return
        for rest in _partitions_desc(m - first, first, most - 1):
            yield (first,) + rest


def _compositions_asc(total: int, k: int):
    """Ordered k-tuples of positive integers summing to total, lex ascending.
    Recursing once per entry is safe: k counts one structure's floors or one
    level's out-edges, and an input with many would never finish."""
    if k == 0:
        if total == 0:
            yield ()
        return
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions_asc(total - first, k - 1):
            yield (first,) + rest


def _without(open_cnt: dict, taken) -> dict:
    """A copy of the open multiset less one edge of each class in taken."""
    out = dict(open_cnt)
    for wo in taken:
        if out[wo] == 1:
            del out[wo]
        else:
            out[wo] -= 1
    return out


def _missing_sinks(open_cnt: dict, sinks: dict) -> list[int] | None:
    """The sinks not yet open; None when the open weights are not a
    sub-multiset of the sinks."""
    rest = dict(sinks)
    for key, c in open_cnt.items():
        if rest.get(key[0], 0) < c:
            return None
        rest[key[0]] -= c
    return [w for w, c in rest.items() for _ in range(c)]


# A node of the structure search: the levels (1 a floor, 0 a flat), the
# (lo, hi, w) edges into them, the open edges as sorted ((w, origin, comp,
# floor), count) classes, with comp the origin's component (-1 at BOTTOM)
# and floor its floor component (None at BOTTOM and flats), each named by a
# level, one (floor component, ends) pair per floor component in level
# order, the deficit, and the surplus pairs, None before the closing floor.
# A tuple, not a Frozen: the search builds one per node.
_State = namedtuple("_State", "levels edges opens ends deficit surplus")


def _children(
    n_levels: int, max_floors: int, sinks: dict, state: _State
) -> Iterator[_State]:
    """The states one level above state, in the search's order; sinks
    counts the profile's sinks.

    Level-by-level transfer search: at each of the n + g - 1 levels place a
    flat vertex or a floor, threading the multiset of open upward edges
    (whose total weight always equals b).  Flats are tried before floors,
    a floor's consumed sub-multisets come in a fixed order and its flow
    partitions descend, so discovery order is deterministic.

    Let the deficit be genus - floors - b1, with b1 the first Betti number
    of the partial graph; a floor lowers it by at least one, a flat keeps
    it.  Components are those of the partial graph, with each open edge
    from BOTTOM a component of its own.  A branch failing one of these
    tests is cut at the level where it fails:

    - Betti number: a floor may not drive the deficit below 0.
    - Last level: the top level must bring the deficit to 0.  A flat fits
      there only at deficit 0; a floor must close it exactly.
    - Floor cap: at most max_floors floors.  The max_floors-th floor must
      therefore close the deficit exactly, as on the last level.  The
      capped output is the full output less the structures with more
      floors, in the same order.
    - Forest: with the flats deleted, a floor may take at most one edge
      from each floor component (a second edge, parallel or not, closes a
      flat-free cycle), and the merged component may carry at most one
      infinite end.  The consumed sub-multisets are built under these
      tests, so no more than one edge is offered from BOTTOM or from any
      floor-origin class.
    - Edge count: with m open edges in C components and deficit d > 0, the
      f >= 1 floors still to come take C - 1 + d edges in all (C - 1 + f
      to join the components into one, d - f to close cycles) and emit at
      least f, while m must end at #sinks; so m - C <= d + #sinks - 2.
      That caps the parts a floor may emit when it leaves d > 0.
    - Connectivity: once the deficit is 0 only flats follow, and a flat
      never joins two components.  So the floor that brings it to 0 must
      take an edge from every component, leaving none open from BOTTOM.
      A floor that must close (last level or floor cap) builds only the
      sub-multisets that can still do so.
    - Sinks: flats keep the open weights, so that floor leaves only sinks
      open and emits exactly the sinks still missing, one partition instead
      of all of them.  A floor that must close builds only the sub-multisets
      that take every open edge of a weight no sink has.  Both closing tests
      run before its state is built.
    - One infinite end per floor component: after the closing floor a floor
      component ends with its end count plus its open floor-origin edges,
      less those later flats take.  Its surplus, ends + open edges - 1,
      must not be negative, and a flat there may take an edge only from a
      component whose surplus is still positive.  Once the closing floor has
      joined every component, counting vertices and edges shows that the
      surpluses add up to the levels left, so that needs no test.
    - Two flats on a cycle: cycles close only at a floor that takes a second
      edge from one component.  There a block of the partial graph with three
      or more vertices and two flats cuts the branch; later levels only add.

    Distinct branches differ in the in-edges or the out-weights of the level
    where they part, so they build distinct diagrams.
    """
    levels, edges, opens, ends, deficit, surplus = state
    open_cnt = dict(opens)
    level = len(levels)
    last = level == n_levels - 1
    spare = None if surplus is None else dict(surplus)
    # Flat vertex: pass one open edge through.  Consuming a flat-emitted
    # edge would create a flat-flat edge, impossible at this level count.
    # From the closing floor on, the edge's floor component needs surplus.
    for key, _n in () if last and deficit else opens:
        w, origin, c, fc = key
        if origin >= 0 and fc is None:
            continue
        rest = None
        if spare is not None:
            if not spare.get(fc):
                continue
            rest = tuple([(r, s - (r == fc)) for r, s in surplus])
        nxt = _without(open_cnt, (key,))
        nxt[w, level, level if origin < 0 else c, None] = 1
        yield _State(levels + (0,), edges + ((origin, level, w),),
                     tuple(sorted(nxt.items())), ends, deficit, rest)
    if not deficit:
        return

    # Floor: consume a sub-multiset of open edges, re-emit its flow.
    # Candidates are (classes taken, merged components, joined floor
    # components, cycles closed, infinite ends), grown from the last class
    # so that they come in the order of a counter whose first class turns
    # fastest.  Each taken edge either touches a component for the first
    # time or closes a cycle, so a candidate touches len(taken) - cycles
    # components, and its flow is summed only where partitions need it.
    # Every test on the way only gets worse as edges are added.  A floor
    # that must close the deficit must take an edge from every component
    # and leave only sinks open, so it passes over a class only when the
    # class's weight is a sink's and a class taken or still to come shares
    # its component; an edge from BOTTOM shares its own with none.
    # comps[i] is 0 for an edge from BOTTOM, else the bit of the class's
    # component, and before[i] the components of the classes before i,
    # which come later.  Sets of components are bit masks.
    closing = last or sum(levels) + 1 >= max_floors
    comps = [0 if c < 0 else 1 << c for (_w, _o, c, _f), _n in opens]
    before = list(accumulate(comps, or_, initial=0))
    ends_of = dict(ends)
    choices = [((), 0, 0, 0, 0)]
    for i in reversed(range(len(opens))):
        key = opens[i][0]
        w, fc = key[0], key[3]
        bit = comps[i]
        later = before[i]
        sink = w in sinks
        grown = []
        for choice in choices:
            taken, merged, joined, cycles, n_ends = choice
            if not closing or sink and (merged | later) & bit:
                grown.append(choice)
            if not bit:
                n_ends += 1
            elif merged & bit:
                cycles += 1
            else:
                merged |= bit
            if fc is not None:
                if joined >> fc & 1:
                    continue
                joined |= 1 << fc
                n_ends += ends_of[fc]
            if n_ends > 1 or cycles >= deficit:
                continue
            grown.append(((key,) + taken, merged, joined, cycles, n_ends))
        choices = grown

    # Till the deficit closes, floors emit and flats re-emit: all components stay open.
    n_comps = before[-1].bit_count() + sum([n for key, n in opens if key[1] < 0])
    n_open = sum(n for _key, n in opens)
    n_sinks = sum(sinks.values())
    for taken, merged, joined, cycles, n_ends in choices:
        if not taken:
            continue
        left = deficit - 1 - cycles
        if left and closing:
            continue
        # The closing floor must take an edge from every component and
        # leave only sinks open; both are tested before its state is built.
        if not left and len(taken) - cycles != n_comps:
            continue
        base = _without(open_cnt, taken)
        parts = () if left else _missing_sinks(base, sinks)
        if parts is None:
            continue
        # The classes left and the floor components not joined, relabelled:
        # what the floor merged or joined is named by its level.
        base = {(w, o, level if c >= 0 and merged >> c & 1 else c,
                 level if f is not None and joined >> f & 1 else f): n
                for (w, o, c, f), n in base.items()}
        ends2 = (*[(r, e) for r, e in ends if not joined >> r & 1], (level, n_ends))
        if not left:
            surplus2 = {r: e - 1 for r, e in ends2}
            surplus2[level] += len(parts)
            for (_w, _o, _c, f), n in base.items():
                if f is not None:
                    surplus2[f] += n
            if min(surplus2.values()) < 0:
                continue
        if cycles and _has_two_flat_cycle(
            level + 1,
            [(lo, hi) for lo, hi, _w in edges if lo >= 0]
            + [(key[1], level) for key in taken if key[1] >= 0],
            {i for i, a in enumerate(levels) if not a},
        ):
            continue
        head = (levels + (1,), edges + tuple([(key[1], level, key[0]) for key in taken]))
        tail = (ends2, left, None if left else tuple(surplus2.items()))
        if left:
            flow = sum([key[0] for key in taken])
            most = left + n_sinks - 1 - n_open + cycles + n_comps
        for parts in _partitions_desc(flow, flow, most) if left else (parts,):
            nxt = dict(base)
            for p in parts:
                key = (p, level, level, level)
                nxt[key] = nxt.get(key, 0) + 1
            yield _State(*head, tuple(sorted(nxt.items())), *tail)


def _walk(start, children, stop) -> Iterator:
    """The states at or below start where stop holds, in depth-first order,
    going no deeper there; children(state) gives the states one level up.
    The walk keeps its own stack of child iterators, so a level costs no
    Python frame and MAX_LEVELS holds from any caller's depth."""
    stack = [iter((start,))]
    while stack:
        for state in stack[-1]:
            if stop(state):
                yield state
            else:
                stack.append(children(state))
                break
        else:
            stack.pop()


@lru_cache(maxsize=None)
def _closes(genus: int, weights: tuple[int, ...], max_floors: int) -> tuple:
    """The states of the structure search for a profile at the floor that
    brings the deficit to 0, in discovery order; more than MAX_LEVELS levels
    raise ValueError.  Branches repeat few values of each field but the
    edges, and few edges, so each of those values is stored once."""
    profile = TangencyProfile(weights)
    n_levels = len(profile.weights) + genus - 1
    _check_level_count(n_levels)
    opens = tuple(sorted(Counter((w, BOTTOM, -1, None) for w in profile.sources).items()))
    start = _State((), (), opens, (), genus, None)
    children = partial(_children, n_levels, max_floors, dict(Counter(profile.sinks)))
    share = {}.setdefault
    return tuple(
        _State._make(tuple(map(share, v, v)) if field == "edges" else share(v, v)
                     for field, v in zip(_State._fields, s))
        for s in _walk(start, children, lambda state: state.surplus is not None)
    )


def _check_genus_and_degree(genus: int, degree: int) -> None:
    if genus < 1:
        raise ValueError(f"expected genus >= 1, got {genus}")
    if degree < 1:
        raise ValueError(f"expected degree >= 1, got {degree}")


def _search_key(genus: int, degree: int, weights: tuple[int, ...]) -> tuple:
    """(genus, sorted profile, floor cap): the structure search that serves
    class degree, in _closes, _shapes and diagrams._structures; checks genus
    and class.

    The floor cap is min(degree, genus): every floor label is >= 1, and no
    structure has more floors than the genus.  From the genus on the cap is
    the genus, so those classes and qseries.templates_for share one cached
    search per genus and profile.
    """
    _check_genus_and_degree(genus, degree)
    return genus, tuple(sorted(weights)), min(degree, genus)


# -- totals ---------------------------------------------------------------


def count_diagrams(genus: int, degree: int, profile: TangencyProfile) -> int:
    """len(diagrams.enumerate_diagrams(genus, degree, profile)), without
    building a diagram: a structure with F floors carries C(degree - 1, F - 1)
    labellings, one per composition of the class, and _shapes counts the
    structures by their F valencies."""
    shapes = _shapes(*_search_key(genus, degree, profile.weights))
    return sum(n * comb(degree - 1, len(vals) - 1) for _g, vals, n, _w in shapes)


@lru_cache(maxsize=None)
def _shapes(genus: int, weights: tuple[int, ...], max_floors: int) -> tuple:
    """(gcd of the edge weights, sorted floor valencies, number N, summed W)
    per shape of the structures of diagrams._structures(genus, weights,
    max_floors), counted from the closing states of _closes without
    completing them.

    Only flats follow a closing floor, and each of the k levels left takes
    one open edge that starts at a floor (its class names a floor component);
    floor component r gives exactly its surplus of them, as the surpluses
    add up to k.  A taken edge weighs w (bounded, one flat end) and the
    flat's edge to the top 1; an untaken one w^2, and an open edge from a
    flat 1.  So x_i edges taken from the open class i of c_i edges of
    weight w_i stand for k!/prod x_i!
    structures of monomial W prod w_i^(2c_i - x_i), W that of the state's
    edges as in diagrams.FloorDiagram.edge_exponents.  Flats change no
    valency and repeat an open weight, so the valencies and the gcd are the
    state's.
    """
    n_levels = len(weights) + genus - 1
    shapes: dict = {}
    for state in _closes(genus, weights, max_floors):
        levels, edges, opens = state.levels, state.edges, state.opens
        val = [0] * (len(levels) + 1)  # the last slot counts BOTTOM
        w_branch = 1
        for lo, hi, w in edges:
            val[lo] += 1
            val[hi] += 1
            flat_end = lo >= 0 and not levels[lo] or not levels[hi]
            w_branch *= w ** ((lo >= 0) + 2 * (not flat_end))
        # No edge from BOTTOM is open, so every origin is a level.
        for (_w, o, _c, _f), c in opens:
            val[o] += c
        key = (gcd(*[w for _lo, _hi, w in edges], *[w for (w, _o, _c, _f), _n in opens]),
               tuple(sorted(v for v, a in zip(val, levels) if a)))
        k = n_levels - len(levels)
        taken = [(w, c, f) for (w, _o, _c, f), c in opens if f is not None]
        need = dict(state.surplus)
        n = w_sum = 0
        for xs in product(*[range(c + 1) for _w, c, _r in taken]):
            used = dict.fromkeys(need, 0)
            for x, (_w, _c, r) in zip(xs, taken):
                used[r] += x
            if used == need:
                ways = factorial(k) // prod(map(factorial, xs))
                n += ways
                w_sum += ways * prod(w ** (2 * c - x) for x, (w, c, _r) in zip(xs, taken))
        old = shapes.get(key, (0, 0))
        shapes[key] = (old[0] + n, old[1] + w_branch * w_sum)
    return tuple(key + tot for key, tot in shapes.items())


@lru_cache(maxsize=None)
def _invariant_cached(
    genus: int, weights: tuple[int, ...], max_floors: int, e: int, top: int
) -> tuple[int, ...]:
    """Entry x, for x = 0 .. top: chi_m of the invariant of class e x at
    every level delta = e m, from the _shapes entries of the structure
    search (genus, weights, max_floors).

    That is the sum over the shapes whose edge gcd e divides of W times
    the sum over the compositions of x of the products of rows
    (e x_i)^(v_i - 1) sigma(x_i), read off one Cauchy product per shape
    truncated at x = top.  Structures with more than x floors have no
    composition of x and add 0, so one search serves every class."""
    shapes = [(vals, w_sum) for edge_gcd, vals, _n, w_sum
              in _shapes(genus, weights, max_floors) if edge_gcd % e == 0]
    rows = {v: [0] + [(e * x) ** (v - 1) * sigma(x) for x in range(1, top + 1)]
            for v in {v for vals, _w in shapes for v in vals}}
    total = [0] * (top + 1)
    for vals, w_sum in shapes:
        # Rows vanish at 0, as every part of a composition is >= 1.
        head = rows[vals[0]]
        for v in vals[1:]:
            row = rows[v]
            head = [sum(head[j] * row[i - j] for j in range(1, i))
                    for i in range(top + 1)]
        total = [t + w_sum * h for t, h in zip(total, head)]
    return tuple(total)


def _from_e(delta: int, by_e: dict[int, int]) -> ProjectorElement:
    """The element at level delta whose character delta/e is by_e[e] (0
    for an e | delta missing from by_e)."""
    from .projector import ProjectorElement

    return ProjectorElement.from_characters(
        delta, {delta // e: x for e, x in by_e.items()}
    )


def invariant(
    genus: int, degree: int, profile: TangencyProfile, delta: int
) -> ProjectorElement:
    """Correlated count: sum of multiplicities over all floor diagrams.

    chi_m(theta(delta, delta/delta_D)) = [e | delta_D] and
    chi_m(bold_sigma(delta, a)) = sigma(a/e) if e | a, else 0, e = delta/m;
    so character m is 0 unless e divides the class, else entry degree/e of
    the _invariant_cached row of e, and the element is built from those.
    """
    profile.check_delta(delta)
    key = _search_key(genus, degree, profile.weights)
    return _from_e(delta, {e: _invariant_cached(*key, e, degree // e)[-1]
                           for e in divisors(delta) if degree % e == 0})


def invariants(
    genus: int, profile: TangencyProfile, delta: int, truncation: int
) -> list[ProjectorElement]:
    """invariant(genus, a, profile, delta) for a = 1 .. truncation.

    One structure search, _search_key's for class truncation, serves every
    class, and each e | delta costs one _invariant_cached row, truncated at
    class truncation/e.  The genus (through the key of class 1 at
    truncation 0), truncation and delta are checked first, so an empty list
    still rejects bad input.
    """
    key = _search_key(genus, max(truncation, 1), profile.weights)
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    profile.check_delta(delta)
    if not truncation:
        return []
    chi = {e: _invariant_cached(*key, e, truncation // e) for e in divisors(delta)}
    return [_from_e(delta, {e: row[a // e] for e, row in chi.items() if a % e == 0})
            for a in range(1, truncation + 1)]
