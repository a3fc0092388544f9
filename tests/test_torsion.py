import copy
import json
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corgw.arith import divisors
from corgw.projector import ProjectorElement, point_order, theta_coordinates
from corgw.refined import bold_sigma
from corgw.torsion import GroupAlgebraElement, convolve, theta, unrefine


def brute_order(delta, u, v):
    n = 1
    while ((n * u) % delta, (n * v) % delta) != (0, 0):
        n += 1
    return n


def test_order_examples():
    assert point_order(6, 0, 0) == 1
    assert point_order(6, 3, 0) == 2
    assert point_order(6, 2, 3) == brute_order(6, 2, 3) == 6
    for delta in range(1, 13):
        for u in range(delta):
            for v in range(delta):
                assert point_order(delta, u, v) == brute_order(delta, u, v)


def test_theta_examples():
    assert theta(5, 1) == GroupAlgebraElement.unit(5)
    t = theta(2, 2)
    assert t.support == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(t.coefficient(u, v) == Fraction(1, 4) for u, v in t.support)
    assert convolve(theta(6, 2), theta(6, 3)) == theta(6, 6)
    with pytest.raises(ValueError):
        theta(6, 4)


def test_theta_projector_lattice():
    for delta in (1, 2, 3, 4, 6, 8, 12, 24):
        divs = [d for d in range(1, delta + 1) if delta % d == 0]
        for d1 in divs:
            for d2 in divs:
                assert convolve(theta(delta, d1), theta(delta, d2)) == theta(
                    delta, math.lcm(d1, d2)
                )


def test_convolve_unit_and_generators():
    x = GroupAlgebraElement(6, {(1, 2): Fraction(3, 7), (5, 0): Fraction(-2)})
    assert convolve(x, theta(6, 1)) == x
    p1 = GroupAlgebraElement(6, {(1, 2): 1})
    p2 = GroupAlgebraElement(6, {(4, 5): 1})
    assert convolve(p1, p2) == GroupAlgebraElement(6, {(5, 1): 1})
    with pytest.raises(ValueError):
        convolve(theta(2, 1), theta(3, 1))


def brute_convolve(x, y):
    d = x.delta
    terms = {}
    for u in range(d):
        for v in range(d):
            total = Fraction(0)
            for s in range(d):
                for t in range(d):
                    total += x.coefficient(s, t) * y.coefficient(
                        (u - s) % d, (v - t) % d
                    )
            if total:
                terms[(u, v)] = total
    return GroupAlgebraElement(d, terms)


def test_convolve_against_brute_force():
    for delta in (1, 2, 3, 4, 6):
        divs = [d for d in range(1, delta + 1) if delta % d == 0]
        for d in divs:
            assert convolve(theta(delta, d), theta(delta, d)) == theta(delta, d)
        x = GroupAlgebraElement(
            delta, {(0, 0): Fraction(1, 2), (1 % delta, 0): Fraction(2, 3)}
        )
        y = GroupAlgebraElement(
            delta, {(0, 1 % delta): Fraction(-1, 5), (1 % delta, 1 % delta): 2}
        )
        assert convolve(x, y) == brute_convolve(x, y)


def test_m_push_examples():
    x = GroupAlgebraElement(4, {(1, 2): Fraction(1, 3), (3, 3): 1})
    assert x.m_push(1) == x
    assert theta(2, 2).m_push(2) == theta(2, 1)
    assert x.m_push(4) == x.total_mass * GroupAlgebraElement.unit(4)


def test_m_push_on_projectors():
    for delta in (1, 2, 3, 4, 6, 12):
        divs = [d for d in range(1, delta + 1) if delta % d == 0]
        for d in divs:
            for k in range(1, 13):
                assert theta(delta, d).m_push(k) == theta(
                    delta, d // math.gcd(d, k)
                )


def test_divide_examples():
    x = GroupAlgebraElement(6, {(0, 0): 1, (3, 3): Fraction(1, 2)})
    assert x.divide(1) == x
    assert theta(2, 1).divide(2) == theta(2, 2)
    for delta in (2, 4, 6, 12):
        divs = [d for d in range(1, delta + 1) if delta % d == 0]
        for d in divs:
            for k in divs:
                if (k * d) and delta % (k * d) == 0:
                    assert theta(delta, d).divide(k) == theta(delta, k * d)
    with pytest.raises(ValueError):
        theta(6, 1).divide(4)
    with pytest.raises(ValueError):
        # (1, 0) has no square root visible at level 2
        GroupAlgebraElement(2, {(1, 0): 1}).divide(2)


def test_mass_conservation_and_section():
    x = GroupAlgebraElement(12, {(0, 0): Fraction(2, 3), (6, 6): 5, (4, 8): -1})
    for k in (1, 2, 3, 5, 12):
        assert x.m_push(k).total_mass == x.total_mass
    # section identity on elements whose support is divisible by k
    z = GroupAlgebraElement(12, {(4, 8): 3, (0, 4): Fraction(1, 7)})
    assert z.divide(4).total_mass == z.total_mass
    assert z.divide(4).m_push(4) == z
    assert z.divide(2).m_push(2) == z


def test_rebase():
    assert theta(2, 2).rebase(4) == theta(4, 2)
    x = GroupAlgebraElement(6, {(2, 4): Fraction(5, 3)})
    assert x.rebase(6) == x
    up = x.rebase(12)
    assert up == GroupAlgebraElement(12, {(4, 8): Fraction(5, 3)})
    assert up.rebase(6) == x
    with pytest.raises(ValueError):
        # a point of order 4 is not 2-torsion
        GroupAlgebraElement(4, {(1, 0): 1}).rebase(2)
    with pytest.raises(ValueError):
        x.rebase(4)


def dense_unrefine(x: GroupAlgebraElement, new_delta: int) -> GroupAlgebraElement:
    """Reference for unrefine on the dense map: push along multiplication
    by delta/new_delta, then restrict the level."""
    return x.m_push(x.delta // new_delta).rebase(new_delta)


def test_unrefine():
    for (delta, d), new, want in (
        ((12, 12), 6, theta(6, 6)),
        ((12, 12), 1, GroupAlgebraElement.unit(1)),
        ((12, 4), 6, theta(6, 2)),
    ):
        assert unrefine(ProjectorElement(delta, {d: 1}), new) == want
        assert dense_unrefine(theta(delta, d), new) == want


def test_json_round_trip():
    x = GroupAlgebraElement(
        8, {(7, 0): Fraction(-3, 4), (0, 0): 2, (1, 5): Fraction(22, 7)}
    )
    data = x.to_json_dict()
    assert data["terms"] == sorted(data["terms"], key=lambda t: (t["u"], t["v"]))
    assert all(t["den"] > 0 for t in data["terms"])
    assert all(math.gcd(abs(t["num"]), t["den"]) == 1 for t in data["terms"])


@pytest.mark.parametrize("build", [
    lambda: GroupAlgebraElement.zero(5),
    lambda: ProjectorElement.zero(5),
    lambda: GroupAlgebraElement.unit(1),
    lambda: ProjectorElement.unit(1) * Fraction(-7, 3),
    lambda: GroupAlgebraElement(
        8, {(7, 0): Fraction(-3, 4), (0, 0): -2, (1, 5): Fraction(22, 7)}),
    lambda: ProjectorElement(12, {2: Fraction(-3, 4), 3: 5, 12: -1}),
    lambda: bold_sigma(24, 200),
    lambda: bold_sigma(24, 200).to_dense(),
], ids=["dense zero", "projector zero", "dense delta 1", "projector delta 1",
        "dense signed", "projector signed", "bold_sigma(24, 200)",
        "bold_sigma(24, 200) dense"])
def test_to_json_is_compact_dumps(build):
    x = build()
    assert x.to_json() == json.dumps(x.to_json_dict(), separators=(",", ":"))


@pytest.mark.parametrize("separators", [(",", ":"), (", ", ": ")])
@pytest.mark.parametrize("delta", [12, 24, 36])
def test_to_json_is_dumps_at_composite_levels(delta, separators):
    # to_json formats each value object once; the values here include
    # Fractions, equal values held by distinct objects (the dense map built
    # point by point) and one object shared by a whole order class.
    spread = {
        (u, v): Fraction(u - v, 1 + (u + v) % 5)
        for u in range(delta) for v in range(0, delta, 5)
    }
    projector = writer_elements(delta)
    dense = [x.to_dense() for x in projector] + [GroupAlgebraElement(delta, spread)]
    for x in projector + dense:
        assert x.to_json(separators) == json.dumps(x.to_json_dict(), separators=separators)


small_delta = st.sampled_from([1, 2, 3, 4, 6, 12])


@st.composite
def elements(draw, delta=None):
    d = delta if delta is not None else draw(small_delta)
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        u = draw(st.integers(0, d - 1))
        v = draw(st.integers(0, d - 1))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 5))
        terms[(u, v)] = terms.get((u, v), Fraction(0)) + Fraction(num, den)
    return GroupAlgebraElement(d, terms)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    d = data.draw(small_delta)
    x = data.draw(elements(delta=d))
    y = data.draw(elements(delta=d))
    z = data.draw(elements(delta=d))
    assert convolve(x, y) == convolve(y, x)
    assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))
    assert convolve(x, theta(d, 1)) == x
    assert convolve(x, y + z) == convolve(x, y) + convolve(x, z)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mass_homomorphisms(data):
    d = data.draw(small_delta)
    x = data.draw(elements(delta=d))
    y = data.draw(elements(delta=d))
    assert convolve(x, y).total_mass == x.total_mass * y.total_mass
    k = data.draw(st.sampled_from([m for m in range(1, d + 1) if d % m == 0]))
    assert x.m_push(k).total_mass == x.total_mass


# -- projector basis against the dense reference ---------------------------

product_levels = st.sampled_from([1, 2, 3, 4, 6, 8, 12])
projector_levels = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 18, 24, 30])


def level_divisors(delta):
    return [d for d in range(1, delta + 1) if delta % d == 0]


@st.composite
def projector_elements(draw, levels=projector_levels, delta=None):
    """Random element, at a drawn level unless delta is given."""
    d = delta if delta is not None else draw(levels)
    divs = level_divisors(d)
    idx = draw(st.lists(st.sampled_from(divs), max_size=4, unique=True))
    return ProjectorElement(
        d,
        {
            e: Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
            for e in idx
        },
    )


def dense_theta_coordinates(x: GroupAlgebraElement) -> dict[int, Fraction]:
    """Reference for theta_coordinates on the dense map: the coordinates in
    the projector basis, solved largest divisor first from the coefficients
    at points of exact order; ValueError when x is not in the span."""
    delta = x.delta
    coords: dict[int, Fraction] = {}
    for d in reversed(divisors(delta)):
        # (delta/d, 0) has order exactly d.
        val = x.coefficient(delta // d, 0)
        for e, c in coords.items():
            if e % d == 0:
                val -= c / (e * e)
        coords[d] = val * d * d
    span = GroupAlgebraElement(delta)
    for d, c in coords.items():
        span = span + c * theta(delta, d)
    if span != x:
        raise ValueError("element is not in the span of the projectors")
    return coords


def assert_same(projector_op, dense_op):
    """Both ops raise ValueError, or both agree, compared both ways."""
    try:
        want = dense_op()
    except ValueError:
        with pytest.raises(ValueError):
            projector_op()
        return
    got = projector_op()
    assert got == want and want == got
    assert got.to_json() == want.to_json()


def test_projector_basics():
    assert ProjectorElement(6, {2: 1}) == theta(6, 2)
    assert ProjectorElement.unit(5) == GroupAlgebraElement.unit(5)
    assert ProjectorElement.zero(4) == GroupAlgebraElement.zero(4)
    assert not ProjectorElement(4, {2: 0})
    with pytest.raises(ValueError):
        ProjectorElement(6, {4: 1})
    with pytest.raises(ValueError):
        ProjectorElement(0)


def test_mixed_addition_is_symmetric():
    # A sum, difference or product of the two representations raises
    # TypeError in either order; only equality compares across them.
    g, p = GroupAlgebraElement(6, {(1, 2): 3, (0, 0): 1}), ProjectorElement(6, {3: 2})
    for x, y in ((g, p), (p, g)):
        for op in (lambda: x + y, lambda: x - y, lambda: x * y):
            with pytest.raises(TypeError):
                op()
    assert p == p.to_dense() and p.to_dense() == p
    with pytest.raises(TypeError):
        0 + g
    with pytest.raises(ValueError):
        GroupAlgebraElement.unit(3) + GroupAlgebraElement.unit(6)
    with pytest.raises(ValueError):
        ProjectorElement.unit(3) + ProjectorElement.unit(6)


@pytest.mark.parametrize("build", [
    lambda: ProjectorElement(6, {1: Fraction(1, 2), 6: 36}),
    lambda: GroupAlgebraElement(6, {(0, 0): Fraction(1, 2), (1, 2): -1}),
])
def test_scalar_multiplication(build):
    # int, bool and Fraction scale in either order, and an integral result
    # is stored as an int; any other scalar, and the other element type,
    # raises TypeError in either order.
    x = build()
    assert any(type(c) is Fraction for _pt, c in x.items())
    for k in (3, -1, True, False, Fraction(4, 3), Fraction(2), 2):
        for got in (x * k, k * x):
            assert type(got) is type(x)
            assert dict(got.items()) == {pt: c * k for pt, c in x.items() if c * k}
            assert got.total_mass == x.total_mass * k
            stored = [c for _pt, c in got.items()]
            if type(got) is ProjectorElement:
                stored += [got.character(m) for m in divisors(6)]
            assert all(type(c) is int or c.denominator > 1 for c in stored)
    # Scaling by 2 clears every denominator, so every stored value is an int.
    assert all(type(c) is int for _pt, c in (Fraction(2) * x).items())
    other = (GroupAlgebraElement.unit(6) if type(x) is ProjectorElement
             else ProjectorElement.unit(6))
    for k in (1.5, 2.0, Decimal(2), "2", other):
        for op in (lambda: x * k, lambda: k * x):
            with pytest.raises(TypeError):
                op()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_projector_products_match_dense(data):
    d = data.draw(product_levels)
    x = data.draw(projector_elements(delta=d))
    y = data.draw(projector_elements(delta=d))
    k = data.draw(st.sampled_from([0, -2, 3, Fraction(2, 7)]))
    assert_same(lambda: x * y, lambda: convolve(x.to_dense(), y.to_dense()))
    assert_same(lambda: x + y, lambda: x.to_dense() + y.to_dense())
    assert_same(lambda: x - y, lambda: x.to_dense() - y.to_dense())
    assert_same(lambda: k * x, lambda: k * x.to_dense())
    assert GroupAlgebraElement.zero(d) + x.to_dense() == x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_projector_level_operators_match_dense(data):
    x = data.draw(projector_elements())
    dense = x.to_dense()
    d = x.delta
    new = data.draw(st.sampled_from(level_divisors(d)))
    assert_same(lambda: unrefine(x, new), lambda: dense_unrefine(dense, new))
    u0, v0 = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    assert x.translate(u0, v0) == dense.translate(u0, v0)
    assert x.total_mass == dense.total_mass
    assert x.support == dense.support
    assert bool(x) == bool(dense)
    assert x.coefficient(u0, v0 - d) == dense.coefficient(u0, v0)
    assert x.to_json() == dense.to_json()
    assert len(x.items()) == len(dense.items())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_projector_dense_conversion(data):
    x = data.draw(projector_elements())
    y = data.draw(projector_elements(delta=x.delta))
    dense = x.to_dense()
    coords = dense_theta_coordinates(dense)
    assert coords == theta_coordinates(x)
    assert ProjectorElement(x.delta, coords) == x
    assert (x == y.to_dense()) == (x == y) == (y.to_dense() == x)
    assert (x != y.to_dense()) == (x != y)
    assert hash(x) == hash(dense)
    if x.delta > 1:
        off = dense + GroupAlgebraElement(x.delta, {(1, 0): 1})
        with pytest.raises(ValueError):
            dense_theta_coordinates(off)


# -- stored values are exact, public reads are Fractions --------------------

# Integral and non-integral values, given as ints, Fractions, floats and
# decimal strings; every one of them has an exact Fraction value.
mixed_values = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
    st.sampled_from([0.5, -1.25, 2.0, "3/4", "-2", "1.5"]),
)


@st.composite
def mixed_projector_elements(draw, delta):
    divs = level_divisors(delta)
    idx = draw(st.lists(st.sampled_from(divs), max_size=4, unique=True))
    coords = {e: draw(mixed_values) for e in idx}
    x = ProjectorElement(delta, coords)
    assert x == ProjectorElement(delta, {e: Fraction(c) for e, c in coords.items()})
    return x


def assert_exact_and_fraction_reads(x):
    """Stored values are ints, or Fractions only where not integral; the
    public reads return Fractions whatever is stored.  mass is the stored
    total mass that total_mass reads."""
    stored = [c for _pt, c in x.items()] + [x.mass]
    if isinstance(x, ProjectorElement):
        stored += [x.character(m) for m in level_divisors(x.delta)]
        assert all(type(c) is Fraction for c in theta_coordinates(x).values())
    for c in stored:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    assert type(x.total_mass) is Fraction and x.total_mass == x.mass
    for u, v in x.support + [(0, 0), (x.delta - 1, 0)]:
        assert type(x.coefficient(u, v)) is Fraction


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stored_values_exact_and_reads_fraction(data):
    d = data.draw(product_levels)
    x = data.draw(mixed_projector_elements(d))
    y = data.draw(mixed_projector_elements(d))
    dense = x.to_dense()
    k = data.draw(st.sampled_from(level_divisors(d)))
    scale = data.draw(mixed_values)
    cases = [
        (x, dense),
        (x * y, convolve(dense, y.to_dense())),
        (x + y, dense + y.to_dense()),
        (x * Fraction(scale), dense * Fraction(scale)),
        (unrefine(x, d // k), dense_unrefine(dense, d // k)),
    ]
    for got, want in cases:
        assert type(got) is ProjectorElement
        assert type(want) is GroupAlgebraElement
        assert got == want and want == got
        assert got.to_json() == want.to_json()
        assert_exact_and_fraction_reads(got)
        assert_exact_and_fraction_reads(want)
        assert theta_coordinates(got) == dense_theta_coordinates(want)


def test_dense_inputs_read_exactly():
    x = GroupAlgebraElement(4, {(0, 0): 0.5, (1, 0): "3/4", (0, 1): 2.0, (5, 0): "1/4"})
    assert x == GroupAlgebraElement(
        4, {(0, 0): Fraction(1, 2), (1, 0): 1, (0, 1): 2}
    )
    assert [type(c) for _pt, c in x.items()] == [Fraction, int, int]
    assert type(x.total_mass) is Fraction and x.total_mass == Fraction(7, 2)
    assert type(x.coefficient(1, 0)) is Fraction
    assert type(ProjectorElement(6, {2: "1/2", 3: 0.5}).character(6)) is int


@pytest.mark.parametrize("build", [
    lambda: ProjectorElement(6, {2: Fraction(1, 3), 3: 2}),
    lambda: ProjectorElement.zero(3),
    lambda: GroupAlgebraElement(4, {(1, 2): Fraction(-3, 4), (0, 0): 5}),
    lambda: theta(4, 2),
])
def test_elements_copy_and_pickle(build):
    x = build()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
        assert repr(y) == repr(x) and y.to_json() == x.to_json()
        with pytest.raises(AttributeError):
            y.delta = 2


# -- writers by order class against the per-point reference ------------------

WRITER_LEVELS = [*range(1, 13), 24, 36, 60]


def writer_elements(delta):
    """Fresh elements at level delta (no dense map built yet): zero, a
    negative unit, a refined divisor sum with non-integral values, and
    signed non-integral projector combinations."""
    divs = level_divisors(delta)
    coords = {d: Fraction((-1) ** i * (2 * i + 1), 1 + i % 4) for i, d in enumerate(divs)}
    return [
        ProjectorElement.zero(delta),
        ProjectorElement.unit(delta) * -3,
        copy.copy(bold_sigma(delta, 12)),
        ProjectorElement(delta, coords),
        ProjectorElement(delta, {divs[-1]: Fraction(-5, 7), 1: 2}),
    ]


def per_point_reference(x):
    """x as a dense element summed point by point from theta(delta, d), one
    projector per coordinate: no order-class code is involved."""
    dense = GroupAlgebraElement.zero(x.delta)
    for d, c in theta_coordinates(x).items():
        dense = dense + theta(x.delta, d) * c
    return dense


@pytest.mark.parametrize("delta", WRITER_LEVELS)
def test_order_class_writers_match_per_point(delta):
    def triple(v, r, c):
        return v, r, c

    for x in writer_elements(delta):
        dense = per_point_reference(x)
        assert x._dense is None
        assert x.to_json() == dense.to_json()
        assert x.to_json() == json.dumps(dense.to_json_dict(), separators=(",", ":"))
        spaced = (", ", ": ")
        assert x.to_json(separators=spaced) == dense.to_json(separators=spaced)
        assert x.to_json(separators=spaced) == json.dumps(dense.to_json_dict())
        assert x.support == dense.support
        assert dense.support == sorted(dict(dense.items()))
        assert x.rows(triple) == dense.rows(triple)
        for u in range(-1, delta + 1):
            for v in (-delta, -1, *range(delta)):
                assert x.coefficient(u, v) == dense.coefficient(u, v)
                assert type(x.coefficient(u, v)) is Fraction
        # None of the reads above builds the delta^2 map.
        assert x._dense is None
        assert x.to_dense() == dense and dict(x.items()) == dict(dense.items())
        assert x._dense is not None


def test_order_rows_are_shared_by_gcd():
    # The level cache holds tau(delta) rows of delta orders, never delta^2.
    from corgw.projector import _order_rows

    for delta in WRITER_LEVELS:
        row_of, rows = _order_rows(delta)
        assert len(rows) == len(level_divisors(delta)) and len(row_of) == delta
        for u in range(delta):
            assert rows[row_of[u]] == tuple(
                point_order(delta, u, v) for v in range(delta)
            )
    assert _order_rows.cache_info().maxsize is not None
